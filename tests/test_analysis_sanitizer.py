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
from repro.analysis.sanitizer import (
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


def _fresh_python(code, **env):
    """Run ``code`` in a fresh interpreter on this tree, with
    ``REPRO_SANITIZE`` set only if ``env`` sets it."""
    environ = {key: value for key, value in os.environ.items()
               if key != "REPRO_SANITIZE"}
    environ.update(env, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=environ,
                          capture_output=True, text=True, timeout=120)


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
        proc = _fresh_python(
            "from repro.sim import Simulator; "
            "raise SystemExit(0 if Simulator().sanitizer is not None "
            "else 1)", REPRO_SANITIZE="1")
        assert proc.returncode == 0, proc.stderr

    def test_kernel_import_loads_only_the_kernel(self):
        """The instruments arm ``repro.sim.engine.HOOKS`` from above, so a
        bare ``import repro.sim`` loads nothing outside ``repro.sim``."""
        proc = _fresh_python("import sys, repro.sim; print(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        loaded = [name for name in proc.stdout.split()
                  if name.partition(".")[0] == "repro"]
        assert "repro.sim.engine" in loaded
        assert [name for name in loaded if name not in ("repro", "repro.sim")
                and not name.startswith("repro.sim.")] == []

    def test_common_import_loads_only_common(self):
        """``repro.common`` sits just above the kernel: a bare ``import
        repro.common`` loads nothing outside ``repro.common``."""
        proc = _fresh_python("import sys, repro.common; print(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        loaded = [name for name in proc.stdout.split()
                  if name.partition(".")[0] == "repro"]
        assert "repro.common.histogram" in loaded
        assert [name for name in loaded
                if name not in ("repro", "repro.common")
                and not name.startswith("repro.common.")] == []

    def test_core_system_import_loads_no_instrument(self):
        """The model imports nothing from the layers that observe or
        drive it: ``import repro.core.system`` loads no ``repro.obs``,
        ``repro.analysis``, ``repro.experiments`` or ``repro.fleet``."""
        proc = _fresh_python(
            "import sys, repro.core.system; print(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        loaded = [name for name in proc.stdout.split()
                  if name.partition(".")[0] == "repro"]
        assert "repro.common.metrics" in loaded
        above = ("repro.obs", "repro.analysis", "repro.experiments",
                 "repro.fleet")
        assert [name for name in loaded
                if name.startswith(tuple(p + "." for p in above))
                or name in above] == []

    def test_model_runs_without_numpy(self):
        """The simulator needs only the standard library: building a
        system on every interface, preconditioning it (pblk maps its own
        pages, so OCSSD refuses that) and writing and reading it import
        no numpy."""
        proc = _fresh_python(
            "import sys\n"
            f"sys.path.insert(0, {str(Path(repro.__file__).parents[2])!r})\n"
            "from repro.core.system import FullSystem\n"
            "from tests.conftest import tiny_ssd_config\n"
            "for interface in ('nvme', 'sata', 'ufs', 'ocssd'):\n"
            "    system = FullSystem(device=tiny_ssd_config(),\n"
            "                        interface=interface)\n"
            "    if interface != 'ocssd':\n"
            "        system.precondition()\n"
            "    system.run_process(system.write(0, 8))\n"
            "    system.run_process(system.read(0, 8))\n"
            "print(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert "numpy" not in proc.stdout.split()

    def test_causal_import_loads_no_switch(self):
        """``repro.obs.runtime`` owns both tracer switches and imports
        ``repro.obs.causal``, never the other way round: a bare
        ``import repro.obs.causal`` loads no ``repro.obs.runtime``."""
        proc = _fresh_python(
            "import sys, repro.obs.causal; print(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "repro.obs.causal" in loaded
        assert "repro.obs.runtime" not in loaded

    def test_causal_capture_alone_arms_a_fresh_process(self):
        """``enable_causal`` fills the tracer slot from
        ``repro.obs.runtime`` in a process that armed nothing else."""
        proc = _fresh_python(
            "from repro.obs import causal, runtime; runtime.enable_causal(); "
            "from repro.sim import Simulator; "
            "raise SystemExit(0 if isinstance(Simulator().tracer, "
            "causal.CausalTracer) else 1)")
        assert proc.returncode == 0, proc.stderr


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
