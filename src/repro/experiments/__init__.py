"""Experiment harnesses regenerating every table and figure of the paper.

Each module exposes ``run_*`` functions (parameterised, returning structured
results), ``default_parameters()`` (a scaled-down configuration that
finishes in seconds), ``paper_parameters()`` (the sizes reported in the
paper) and a ``main()`` that prints the corresponding table or series.

Run any experiment from the command line, e.g.::

    python -m repro.experiments.figure6
    python -m repro.experiments.table2

Each module is named after its artifact (``figure5`` … ``figure9``,
``table1``, ``table2``), and ``tests/experiments/test_paper_shapes.py``
holds the shape each must show.
"""
