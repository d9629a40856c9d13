"""The golden-determinism contract (docs/PERFORMANCE.md).

Every figure experiment (small config) and benchmark scenario must
reproduce the exact result tree recorded in ``tests/golden/*.json``.
The digests were recorded on the pre-optimization engine, so these tests
are the proof that the kernel fast path changed no simulated behaviour:
event counts, final simulated times, latencies, bandwidths and figure
payloads are all bit-identical.

After an *intentional* model change, regenerate with::

    PYTHONPATH=src python -m repro.experiments.golden --update
"""

import json
import re
from pathlib import Path

import pytest

from repro.experiments import golden

GOLDEN_DIR = Path(__file__).parent / "golden"
EXPERIMENTS_DOC = Path(__file__).parent.parent / "EXPERIMENTS.md"
#: a row of EXPERIMENTS.md's pinned Fig 8/9 table: device, bandwidth and
#: latency accuracy in whole percent
_ACCURACY_ROW_RE = re.compile(r"^ *\| (\w+) \| (\d+)% \| (\d+)% \|$",
                              re.MULTILINE)


def _load(case):
    return json.loads((GOLDEN_DIR / f"{case}.json").read_text())


class TestGoldenFiles:
    def test_every_case_has_a_recorded_file(self):
        for case in golden.GOLDEN_CASES:
            assert (GOLDEN_DIR / f"{case}.json").exists(), (
                f"missing golden file for {case!r}; run "
                "`python -m repro.experiments.golden --update`")

    def test_no_orphan_golden_files(self):
        on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
        assert on_disk == set(golden.GOLDEN_CASES)

    def test_documents_are_self_consistent(self):
        """Stored digest always matches the stored payload."""
        for case in golden.GOLDEN_CASES:
            doc = _load(case)
            assert doc["case"] == case
            assert golden.digest(doc["payload"]) == doc["digest"]

    def test_volatile_keys_never_recorded(self):
        def walk(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    assert key not in golden.VOLATILE_KEYS
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        for case in golden.GOLDEN_CASES:
            walk(_load(case)["payload"])

    def test_experiments_doc_quotes_the_pinned_fig08_09_accuracy(self):
        summary = _load("fig08_09_validation")["payload"]["summary"]
        rows = _ACCURACY_ROW_RE.findall(EXPERIMENTS_DOC.read_text())
        assert len(rows) == len({device for device, _bw, _lat in rows})
        assert {device: (int(bw), int(lat)) for device, bw, lat in rows} == {
            device: (round(100 * acc["bandwidth_accuracy"]),
                     round(100 * acc["latency_accuracy"]))
            for device, acc in summary.items()}


class TestCanonicalization:
    def test_tuple_keys_and_values_stabilize(self):
        tree = {("nvme", 4): (1, 2), "b": {"wall_seconds": 1.23, "x": 1}}
        canon = golden.canonicalize(tree)
        assert canon == {"('nvme', 4)": [1, 2], "b": {"x": 1}}

    def test_digest_independent_of_key_order(self):
        a = {"x": 1, "y": {"p": [1, 2], "q": 3.5}}
        b = {"y": {"q": 3.5, "p": [1, 2]}, "x": 1}
        assert golden.digest(a) == golden.digest(b)

    def test_digest_sensitive_to_values(self):
        assert golden.digest({"x": 1}) != golden.digest({"x": 2})


@pytest.mark.parametrize("case", sorted(golden.GOLDEN_CASES))
def test_golden_digest_unchanged(case):
    """Re-run the small config and compare against the recorded digest.

    A mismatch means a behavioural change: an event reordered, a latency
    recomputed differently, a float built by a different expression.
    """
    result = golden.GOLDEN_CASES[case]()
    expected = _load(case)
    actual = golden.digest(result)
    if actual != expected["digest"]:  # pragma: no cover - diagnostic path
        payload = golden.canonicalize(result)
        diffs = _first_diffs(expected["payload"], payload)
        pytest.fail(f"golden digest drift for {case}: {diffs}")


def _first_diffs(old, new, path="", out=None, limit=5):
    out = out if out is not None else []
    if len(out) >= limit:
        return out
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            _first_diffs(old.get(key), new.get(key), f"{path}.{key}", out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _first_diffs(a, b, f"{path}[{i}]", out)
    elif old != new:
        out.append(f"{path}: {old!r} -> {new!r}")
    return out


class TestKernelPins:
    """The headline determinism facts, pinned explicitly and readably."""

    def test_scenario_events_and_sim_time_pinned(self):
        recorded = _load("perf_scenarios")["payload"]
        from repro.bench.scenarios import SCENARIOS
        for name, runner in SCENARIOS.items():
            result = runner("smoke")
            assert result.events == recorded[name]["events"], name
            assert result.sim_ns == recorded[name]["sim_ns"], name

    def test_simulator_is_rerun_stable(self):
        """The same scenario twice in one process: identical facts."""
        from repro.bench.scenarios import kernel_churn
        first = kernel_churn("smoke")
        second = kernel_churn("smoke")
        assert first.events == second.events
        assert first.sim_ns == second.sim_ns
