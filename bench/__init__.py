"""The repo's measured benchmark: four workloads, end-to-end and per-layer.

See ``bench/README.md``.  ``BENCHMARK.json`` at the repo root is the
contract (workload and metric names, units, regression bounds);
``bench/run.py`` is the one command that produces every number in it.
"""
