"""SimSanitizer runtime checks: each violation class provoked on a toy
simulator, post-mortem dumps, and the golden pin that a sanitized run
is bit-identical to a plain one (docs/ANALYSIS.md, "Runtime sanitizer").
"""

import json
import os
import subprocess
import sys
from heapq import heappush
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    SanitizerError,
    all_violations,
    disable_sanitizer,
    enable_sanitizer,
    sanitizer_enabled,
    sanitizers,
)
from repro.sim import Resource, Simulator
from repro.sim.events import Event

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _reset_sanitizer():
    """Every test leaves the process-wide switch off (the tier-1 state)."""
    yield
    disable_sanitizer()


def _kinds(violations):
    return [v.kind for v in violations]


# -- arming -------------------------------------------------------------------

class TestArming:
    def test_off_by_default(self):
        assert not sanitizer_enabled()
        assert Simulator().sanitizer is None

    def test_enable_attaches_to_new_simulators(self):
        enable_sanitizer()
        sim = Simulator()
        assert sim.sanitizer is not None
        assert sim.sanitizer.sim is sim
        assert sim.sanitizer in sanitizers()

    def test_disable_detaches_and_forgets(self):
        enable_sanitizer()
        Simulator()
        disable_sanitizer()
        assert Simulator().sanitizer is None
        assert sanitizers() == []

    def test_env_var_arms_a_fresh_process(self):
        src_dir = Path(repro.__file__).parents[1]
        env = dict(os.environ, REPRO_SANITIZE="1", PYTHONPATH=str(src_dir))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.sim import Simulator; "
             "raise SystemExit(0 if Simulator().sanitizer is not None "
             "else 1)"],
            env=env, timeout=120)
        assert proc.returncode == 0


# -- violation classes --------------------------------------------------------

class TestViolations:
    def test_causality_violation_detected(self):
        enable_sanitizer()
        sim = Simulator()
        sim.timeout(100)
        sim.run()
        assert sim.now == 100
        # force-schedule into the past, bypassing _enqueue's guard
        ghost = Event(sim)
        ghost._triggered = True
        heappush(sim._queue, (5, next(sim._sequence), ghost))
        sim.run()
        assert _kinds(sim.sanitizer.violations) == ["causality"]
        assert "scheduled into the past" in sim.sanitizer.violations[0].detail

    def test_clean_run_records_nothing(self):
        enable_sanitizer()
        sim = Simulator()

        def worker(gate):
            yield gate.acquire()
            try:
                yield sim.timeout(7)
            finally:
                gate.release()

        gate = Resource(sim, capacity=1)
        sim.process(worker(gate))
        sim.process(worker(gate))
        sim.run()
        assert sim.sanitizer.violations == []
        sim.sanitizer.check()  # no raise

    def test_leaked_token_and_stuck_waiter_at_drain(self):
        enable_sanitizer()
        sim = Simulator()
        gate = Resource(sim, capacity=1, name="gate")

        def hog():
            yield gate.acquire()
            yield sim.timeout(5)  # ends still holding the token

        def starved():
            yield gate.acquire()  # never granted

        sim.process(hog())
        sim.process(starved())
        sim.run()
        kinds = _kinds(sim.sanitizer.violations)
        assert "leaked-token" in kinds
        assert "stuck-waiter" in kinds
        assert "stuck-process" in kinds  # starved() never finished

    def test_stuck_process_alone_at_drain(self):
        enable_sanitizer()
        sim = Simulator()

        def waiter():
            yield Event(sim)  # nobody will ever trigger this

        sim.process(waiter())
        sim.run()
        assert _kinds(sim.sanitizer.violations) == ["stuck-process"]

    def test_deadline_cut_run_skips_the_drain_audit(self):
        """`run(until=...)` is not a drain: held tokens are legitimate."""
        enable_sanitizer()
        sim = Simulator()
        gate = Resource(sim, capacity=1)

        def worker():
            yield gate.acquire()
            try:
                yield sim.timeout(100)
            finally:
                gate.release()

        sim.process(worker())
        sim.run(until=50)  # mid-hold; not a leak
        assert sim.sanitizer.violations == []

    @pytest.mark.parametrize("entry", ["run", "run_until", "run_process",
                                       "step"])
    def test_drain_audit_runs_only_at_a_true_drain(self, entry):
        """Only `run()` without a deadline drains; every other stop
        leaves the stuck waiter unaudited."""
        enable_sanitizer()
        sim = Simulator()

        def waiter():
            yield Event(sim)  # nobody will ever trigger this

        def quick():
            yield sim.timeout(10)

        sim.process(waiter())
        if entry == "run":
            sim.run()
        elif entry == "run_until":
            sim.run(until=50)
        elif entry == "run_process":
            sim.run_process(quick())
        else:
            sim.step()
        expected = ["stuck-process"] if entry == "run" else []
        assert _kinds(sim.sanitizer.violations) == expected

    def test_double_cancel_detected(self):
        enable_sanitizer()
        sim = Simulator()
        timer = sim.timeout(5)
        timer.cancel()
        timer.cancel()
        assert _kinds(sim.sanitizer.violations) == ["double-cancel"]
        assert all_violations() == sim.sanitizer.violations

    def test_single_cancel_is_fine(self):
        enable_sanitizer()
        sim = Simulator()
        sim.timeout(10)
        timer = sim.timeout(5)
        timer.cancel()
        sim.run()
        assert sim.sanitizer.violations == []


# -- reporting and dumps ------------------------------------------------------

class TestReporting:
    def test_check_raises_with_every_violation_listed(self, tmp_path):
        enable_sanitizer(dump_dir=str(tmp_path))
        sim = Simulator()
        timer = sim.timeout(5)
        timer.cancel()
        timer.cancel()
        with pytest.raises(SanitizerError, match="double-cancel"):
            sim.sanitizer.check()

    def test_check_dumps_a_post_mortem(self, tmp_path):
        enable_sanitizer(dump_dir=str(tmp_path))
        sim = Simulator()
        timer = sim.timeout(5)
        timer.cancel()
        timer.cancel()
        with pytest.raises(SanitizerError):
            sim.sanitizer.check()
        dumps = list(tmp_path.glob("sanitizer-*.json"))
        assert len(dumps) == 1
        doc = json.loads(dumps[0].read_text())
        assert doc["violations"][0]["kind"] == "double-cancel"
        assert sim.sanitizer.dumped_to == str(dumps[0])

    def test_run_failure_dumps_through_the_sanitizer(self, tmp_path):
        enable_sanitizer(dump_dir=str(tmp_path))
        sim = Simulator()

        def doomed():
            yield sim.timeout(30)
            raise RuntimeError("die overheated")

        with pytest.raises(RuntimeError, match="overheated"):
            sim.run_process(doomed())
        dumps = list(tmp_path.glob("sanitizer-*.json"))
        assert len(dumps) == 1
        doc = json.loads(dumps[0].read_text())
        assert doc["error"]["type"] == "RuntimeError"
        assert doc["sim"]["now_ns"] == 30

    def test_report_summarizes(self):
        enable_sanitizer()
        sim = Simulator()
        assert "no violations" in sim.sanitizer.report()
        timer = sim.timeout(5)
        timer.cancel()
        timer.cancel()
        assert "1 violation(s)" in sim.sanitizer.report()


# -- determinism pins ---------------------------------------------------------

def _recorded_perf():
    doc = json.loads((GOLDEN_DIR / "perf_scenarios.json").read_text())
    return doc["payload"]


class TestDeterminismPins:
    def test_sanitized_run_is_bit_identical_to_plain(self):
        """The sanitizer observes only: golden facts are unchanged."""
        from repro.bench.scenarios import kernel_churn, randread_nvme
        recorded = _recorded_perf()
        enable_sanitizer()
        churn = kernel_churn("smoke")
        read = randread_nvme("smoke")
        assert churn.events == recorded["kernel_churn"]["events"]
        assert churn.sim_ns == recorded["kernel_churn"]["sim_ns"]
        assert read.events == recorded["randread_nvme"]["events"]
        assert read.sim_ns == recorded["randread_nvme"]["sim_ns"]

    def test_benchmarks_are_sanitizer_clean(self):
        """Regression for the kernel_churn gate leak: a full smoke pass
        over the pinned scenarios records zero violations."""
        from repro.bench.scenarios import kernel_churn, randread_nvme
        enable_sanitizer()
        kernel_churn("smoke")
        randread_nvme("smoke")
        assert all_violations() == []
