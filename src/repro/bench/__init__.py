"""The pinned performance-benchmark scenarios.

:mod:`repro.bench.scenarios` drives the simulation kernel and the full
system at calibrated sizes.  Each scenario reports its *wall-clock*
speed and its *deterministic* simulation facts (``events_processed``,
final simulated time) side by side.  The golden-determinism tests in
``tests/test_golden_determinism.py`` pin the deterministic half; the
repo benchmark (``benchmarks/suite``) times the same paths.
"""

from repro.bench.scenarios import SCENARIOS, ScenarioResult

__all__ = [
    "SCENARIOS",
    "ScenarioResult",
]
