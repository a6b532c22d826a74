# Developer entry points for the quantum-database reproduction.
#
#   make check    - tier-1 tests + smoke benchmarks + doctests + loadtest
#                   + recovery benchmark + search benchmark + gate
#   make test     - tier-1 test suite only (tests/)
#   make smoke    - the smoke-marked benchmark subset (-m smoke)
#   make docs     - doctest the README / architecture code blocks
#   make loadtest - closed-loop TCP load harness at smoke scale (64 clients)
#   make recoverbench - segmented-WAL recovery benchmark ("durability" section)
#   make searchbench  - admission-search strategy benchmark ("search" section)
#   make gate     - perf-regression gate: fresh BENCH_admission.json vs HEAD's
#   make pairbench - paired, alternating runs of the repository benchmark
#                   (bench/): working tree vs BASE on WORKLOAD, PAIRS pairs
#   make profile  - one fixed-seed round of WORKLOAD's generated inputs under
#                   phase timers (parse / admit / plan / apply / persist) and
#                   cProfile; book_tcp on the segmented engine
#   make lint     - ruff lint (and format check on the gated paths); without
#                   ruff, the stdlib fallback scripts/lint_fallback.py (E9 +
#                   F401 only, no format check)
#   make bench    - the full benchmark suite (regenerates every figure/table)
#
# Set REPRO_BENCH_SCALE=paper for the paper-sized benchmark parameters.
# The smoke pass refreshes BENCH_admission.json's anchor point (admission
# throughput and merged_for scan counts on the Figure 7 workload), which
# the gate normalizes every other section by.  Only the
# baseline chain (`make smoke recoverbench searchbench`) writes that
# committed file; `make bench`, a plain `pytest` and paper-scale runs
# write the gitignored BENCH_admission.full.json instead (see
# benchmarks/bench_json.py), so a full run can no longer be committed as
# the baseline by accident.  `make gate`
# fails the build if it regressed against the committed baseline
# (BENCH_GATE_TOLERANCE overrides the default 30% throughput tolerance;
# decision divergence and more anchor scan work always fail), if the
# baseline's workload scale or
# parameters don't match the fresh run, or if a run lacks the
# normalization anchor.  The gate's own exit-code semantics are pinned by
# tests/scripts/test_bench_gate.py, which `make test` picks up with the
# rest of tests/.  CI runs `make lint` + `make check`, then reruns the
# gate with --require-points so a vacuous comparison fails too.

PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

# Paths under `ruff format --check`; grows as files are normalized.
FORMAT_PATHS = scripts
LINT_PATHS = src tests benchmarks scripts

.PHONY: check test smoke docs loadtest recoverbench searchbench gate pairbench profile lint bench

check: test smoke docs loadtest recoverbench searchbench gate

test:
	$(PYTEST) -x -q tests

smoke:
	$(PYTEST) -q benchmarks -m smoke

docs:
	PYTHONPATH=src $(PYTHON) -m doctest README.md docs/architecture.md

# Smoke-scale end-to-end check of the network layer: 64 concurrent TCP
# clients against an in-process server, exiting non-zero on any dropped
# or errored commit.  The gated latency percentiles come from the
# benchmark suite (`make smoke`); this target proves the harness itself
# stays healthy.  Scale it up by hand with --clients 1000.
loadtest:
	PYTHONPATH=src $(PYTHON) scripts/load_client.py --clients 64

# Durability engine benchmark: a churn workload on the segmented WAL
# (checked against an in-memory twin's replayed log), delta vs. base
# checkpoint pauses, compaction reclaim and a timed cold recovery —
# merged into BENCH_admission.json under "durability" for the gate.
# Depends on smoke because both emitters read-modify-write the same JSON
# file (`make -j` must not interleave them).
recoverbench: smoke
	$(PYTEST) -q benchmarks/test_recovery.py -m recovery

# Admission-search strategy benchmark: branch-and-bound vs. the seed
# backtracking searcher on the Figure 7 workload (bit-identical decisions,
# admission-node ratio <= 0.5) plus the sampled-admission latency point —
# merged into BENCH_admission.json under "search" for the gate.  Depends
# on recoverbench because every emitter read-modify-writes the same JSON
# file (`make -j` must not interleave them).
searchbench: recoverbench
	$(PYTEST) -q benchmarks/test_admission_search.py -m search

# Depends on the whole emitter chain so the gate always compares a freshly
# emitted BENCH_admission.json — every section regenerated, never a stale
# working-tree copy (and `make -j` cannot run them out of order).
gate: smoke recoverbench searchbench
	$(PYTHON) scripts/bench_gate.py

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

bench:
	$(PYTEST) -q benchmarks
