# Developer entry points for the quantum-database reproduction.
#
#   make check    - tier-1 tests + doctests + loadtest
#   make test     - tier-1 test suite only (tests/)
#   make docs     - doctest the README / architecture code blocks
#   make loadtest - closed-loop TCP load harness at smoke scale (64 clients)
#   make pairbench - paired, alternating runs of the repository benchmark
#                   (bench/): working tree vs BASE on WORKLOAD, PAIRS pairs
#   make profile  - one fixed-seed round of WORKLOAD's generated inputs under
#                   phase timers (parse / admit / plan / apply / persist) and
#                   cProfile; book_tcp on the segmented engine
#   make lint     - ruff lint (and format check on the gated paths); without
#                   ruff, the stdlib fallback scripts/lint_fallback.py (E9 +
#                   F401 only, no format check)
#
# Performance is measured only by the repository benchmark (BENCHMARK.json,
# `python3 -m bench run`) and compared only in pairs (`make pairbench`).
# The paper's figures and tables print from their modules, e.g.
# `python -m repro.experiments.figure6`; their shapes are tier-1 tests
# (tests/experiments/test_paper_shapes.py).

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

# Paths under `ruff format --check`; grows as files are normalized.
FORMAT_PATHS = scripts
LINT_PATHS = src tests scripts

.PHONY: check test docs loadtest pairbench profile lint

check: test docs loadtest

test:
	$(PYTEST) -x -q tests

docs:
	PYTHONPATH=src $(PYTHON) -m doctest README.md docs/architecture.md

# Smoke-scale end-to-end check of the network layer: 64 concurrent TCP
# clients against an in-process server, exiting non-zero on any dropped
# or errored commit.  Latency is measured by the repository benchmark
# (`book_tcp`); this target proves the harness itself stays healthy.
# Scale it up by hand with --clients 1000.
loadtest:
	PYTHONPATH=src $(PYTHON) scripts/load_client.py --clients 64

# A performance claim against the repository benchmark (BENCHMARK.json,
# bench/) is made from paired runs: the same seeds on the base revision
# and on the working tree, alternating which side goes first, judged per
# end-to-end metric by the nine-of-ten-pairs rule (scripts/bench_pair.py).
# Ten pairs of 16 s runs take about ten minutes per workload.
BASE ?= HEAD
WORKLOAD ?= book_batch
PAIRS ?= 10
pairbench:
	$(PYTHON) scripts/bench_pair.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS)

# Where does a commit of WORKLOAD (book_batch, book_tcp, mixed_session)
# spend its time, and how many store commits, WAL records and fsyncs
# stand behind one booking?  The starting point of a hot-path issue; the
# claim itself still comes from `make pairbench`.
profile:
	$(PYTHON) scripts/profile_workload.py --workload $(WORKLOAD)

# CI installs ruff; an image without it (no pip installs there) still
# gets the two checks that catch a deletion's leftovers.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check $(LINT_PATHS) && \
		$(PYTHON) -m ruff format --check $(FORMAT_PATHS); \
	else \
		echo "make lint: ruff is not installed; running scripts/lint_fallback.py (E9 + F401 only, no format check)"; \
		$(PYTHON) scripts/lint_fallback.py $(LINT_PATHS); \
	fi
