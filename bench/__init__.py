"""The repository benchmark: five seeded workloads against ``src/repro``.

``python3 -m bench run --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line (the contract in
``BENCHMARK.json``); ``python3 -m bench repeat`` checks that the numbers
repeat within their bounds.  ``bench/README.md`` defines every workload
and metric.  The package measures the program strictly from outside: it
imports only public names of ``repro`` and, in the traced pass, wraps
public callables with span recorders that it removes again afterwards.
"""
