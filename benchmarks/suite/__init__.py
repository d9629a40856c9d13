"""The repo benchmark: four fixed-work full-system workloads.

``python -m benchmarks.suite`` runs them (see ``README.md`` here); the
metric names, units and regression bounds live in ``BENCHMARK.json`` at
the repository root.
"""
