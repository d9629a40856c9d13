"""The host-time profiler (``repro.obs.profiler``): no kernel hook and
bit-identical simulation, every profiled second in exactly one layer,
planted work charged to the layer whose code ran it, and the
Markdown/``.prof`` pair the CI artifact is built from
(``docs/OBSERVABILITY.md``, "Live runs & profiling")."""

import ast
import inspect
import os
import pstats
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.scenarios import SCENARIOS
from repro.obs import profiler as profiler_mod
from repro.obs.profiler import (
    MODULE_LAYERS,
    attribution,
    attribution_markdown,
    hottest_layers,
    layer_of,
    new_profile,
    write_profile,
)
from repro.sim import Simulator
from repro.sim.engine import HOOKS

SUITE_LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "suite" \
    / "layers.py"
#: where planted code pretends to live
FTL = "/x/src/repro/ssd/firmware/ftl/planted.py"
CORES = "/x/src/repro/ssd/computation/cores.py"


def _pingpong(sim, rounds=50):
    """A deterministic little workload for equivalence checks."""
    def proc():
        total = 0
        for _ in range(rounds):
            yield sim.timeout(7)
            total += sim.now
        return total
    return proc()


def _planted_in(path):
    """Plant a function's code in ``path``, as if a module there had
    defined it."""
    def plant(function):
        function.__code__ = function.__code__.replace(co_filename=path)
        return function
    return plant


def _cores_leaf(sim):
    """A one-timeout leaf planted in the SSD's embedded-cores module."""
    @_planted_in(CORES)
    def leaf():
        yield sim.timeout(10)
    return leaf


def _profile_five_calls(sim, helper):
    """Attribution of a process that runs ``helper()`` five times
    through ``yield from``; the process itself lives in this file."""
    def caller():
        for _ in range(5):
            yield from helper()

    profile = new_profile()
    profile.runcall(sim.run_process, caller())
    return attribution(profile)


# -- no switch, no hook -------------------------------------------------------

class TestSwitch:
    def test_off_by_default(self):
        """Nothing to switch off: the kernel's table has no profiler slot,
        a simulator has no profiler, and the module keeps no profiles,
        imports nothing from ``repro.sim`` and reads no clock."""
        assert list(HOOKS) == ["tracer", "telemetry", "sanitizer"]
        assert not hasattr(Simulator(), "profiler")
        nodes = list(ast.walk(ast.parse(inspect.getsource(profiler_mod))))
        imported = [alias.name for node in nodes
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in nodes
                     if isinstance(node, ast.ImportFrom)]
        assert "cProfile" in imported
        assert [name for name in imported
                if name == "time" or name.startswith("repro.sim")] == []
        assert [name for name, value in vars(profiler_mod).items()
                if isinstance(value, list)] == []


# -- behavioural equivalence --------------------------------------------------

class TestBitIdentical:
    def test_run_process_identical_on_and_off(self):
        plain = Simulator()
        value_plain = plain.run_process(_pingpong(plain))  # simlint: disable=SIM104 -- profiler equivalence tests drive _pingpong through both code paths; the helper returns its inner generator
        profiled = Simulator()
        with new_profile():
            value_profiled = profiled.run_process(_pingpong(profiled))  # simlint: disable=SIM104 -- profiler equivalence tests drive _pingpong through both code paths; the helper returns its inner generator
        assert value_profiled == value_plain
        assert profiled.now == plain.now
        assert profiled.events_processed == plain.events_processed

    def test_run_identical_on_and_off(self):
        def drive(sim):
            fired = []
            for index in range(40):
                sim.schedule(index * 3, fired.append, index)
            sim.run(until=60)
            sim.run()
            return fired

        plain = Simulator()
        fired_plain = drive(plain)
        profiled = Simulator()
        fired_profiled = new_profile().runcall(drive, profiled)
        assert fired_profiled == fired_plain
        assert profiled.now == plain.now
        assert profiled.events_processed == plain.events_processed

    def test_run_until_deadline_semantics_match(self):
        sim = Simulator()
        with new_profile():
            sim.schedule(100, lambda: None)
            sim.run(until=50)
            assert sim.now == 50 and sim.events_processed == 0
            with pytest.raises(ValueError, match="past"):
                sim.run(until=10)

    def test_run_process_failure_paths_match(self):
        profile = new_profile()
        sim = Simulator()

        def boom():
            yield sim.timeout(5)
            raise RuntimeError("kaput")

        stalled = Simulator()

        def forever():
            yield stalled.event()       # never succeeds

        broken = Simulator()

        def not_an_event():
            yield 42                    # raises out of the event loop

        with profile:
            with pytest.raises(RuntimeError, match="kaput"):
                sim.run_process(boom())
            with pytest.raises(RuntimeError, match="did not complete"):
                stalled.run_process(forever())
            with pytest.raises(TypeError, match="non-event"):
                broken.run_process(not_an_event())
        # every raise leaves the profile readable
        doc = attribution(profile)
        assert doc["layers"]["sim"]["calls"] > 0
        assert sum(e["share"] for e in doc["layers"].values()) == \
            pytest.approx(1.0)

    def test_run_process_deadline_advances_clock(self):
        sim = Simulator()

        def patient():
            yield sim.timeout(1000)

        with new_profile():
            with pytest.raises(RuntimeError, match="deadline"):
                sim.run_process(patient(), until=100)
        assert sim.now == 100

    def test_all_three_observers_together(self):
        """Telemetry and the sanitizer share the one observer slot,
        fanned out in the kernel table's order whatever the arming order,
        and a profile runs around both: the perf-scenario golden digest
        holds, telemetry samples, the sanitizer stays clean and the
        profile sees the kernel."""
        from repro.analysis.sanitizer import (
            all_violations, disable_sanitizer, enable_sanitizer)
        from repro.experiments import golden
        from repro.obs.telemetry import (
            disable_telemetry, enable_telemetry, probes)
        enable_sanitizer()
        enable_telemetry()
        try:
            sim = Simulator()
            assert sim._observer.observers == (sim.telemetry, sim.sanitizer)
            profile = new_profile()
            assert profile.runcall(golden.check_case, "perf_scenarios")
            assert sum(probe.epochs_sampled for probe in probes()) > 0
            assert all_violations() == []
            assert attribution(profile)["layers"]["sim"]["calls"] > 0
        finally:
            disable_telemetry()
            disable_sanitizer()

    def test_bench_scenario_facts_identical(self):
        """The perf scenarios produce the same deterministic facts."""
        plain = SCENARIOS["kernel_churn"]("smoke")
        profiled = new_profile().runcall(SCENARIOS["kernel_churn"], "smoke")
        assert profiled.events == plain.events
        assert profiled.sim_ns == plain.sim_ns


# -- attribution --------------------------------------------------------------

class TestAttribution:
    def test_attributes_95_percent_across_perf_scenarios(self):
        """Every profiled second falls in exactly one layer, ``other``
        included, so all of it is attributed, per scenario, for all
        three pinned benchmarks."""
        for name, runner in SCENARIOS.items():
            profile = new_profile()
            profile.runcall(runner, "smoke")
            doc = attribution(profile)
            assert doc["total_s"] > 0, name
            shares = sum(e["share"] for e in doc["layers"].values())
            assert shares == pytest.approx(1.0), name
            assert sum(e["seconds"] for e in doc["sites"].values()) == \
                pytest.approx(doc["total_s"]), name
            assert sum(e["calls"] for e in doc["sites"].values()) == \
                doc["calls"], name

    def test_real_layers_show_up(self):
        profile = new_profile()
        profile.runcall(SCENARIOS["randread_nvme"], "smoke")
        doc = attribution(profile)
        assert {"interfaces.nvme", "ssd.hil", "ssd.icl", "ssd.ftl",
                "ssd.flash", "sim"} <= set(doc["layers"])
        for entry in doc["layers"].values():
            assert entry["calls"] > 0 and entry["seconds"] >= 0.0

    def test_calls_repeat_across_fresh_processes(self):
        """Per-layer calls are exact: two fresh interpreters count the
        same.  (Within one process a later profile can also count the
        finalization of an earlier run's suspended generators.)"""
        code = ("import json; from repro.bench.scenarios import SCENARIOS; "
                "from repro.obs.profiler import attribution, new_profile; "
                "profile = new_profile(); "
                "profile.runcall(SCENARIOS['randread_nvme'], 'smoke'); "
                "print(json.dumps({name: totals['calls'] for name, totals "
                "in attribution(profile)['layers'].items()}, "
                "sort_keys=True))")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        runs = [subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120,
                               check=True).stdout for _ in range(2)]
        assert runs[0] == runs[1] and '"ssd.ftl"' in runs[0]

    def test_kernel_overhead_is_booked_under_sim(self):
        """The loop's own functions are ``sim``: its self time is the sum
        of the kernel's call sites, and the dispatch loop is one of them."""
        sim = Simulator()
        profile = new_profile()
        profile.runcall(sim.run_process, _pingpong(sim))
        doc = attribution(profile)
        kernel = [entry for name, entry in doc["sites"].items()
                  if name.startswith("repro.sim.")]
        assert "repro.sim.engine:Simulator._dispatch" in doc["sites"]
        assert doc["layers"]["sim"]["calls"] == \
            sum(entry["calls"] for entry in kernel)
        assert doc["layers"]["sim"]["seconds"] == \
            pytest.approx(sum(entry["seconds"] for entry in kernel))

    def test_hottest_layers_orders_by_seconds(self):
        doc = {"layers": {"ssd.ftl": {"seconds": 3.0},
                          "sim": {"seconds": 1.0},
                          "interfaces.nvme": {"seconds": 2.0},
                          "ssd.gc": {"seconds": 0.5}}}
        assert hottest_layers(doc) == ["ssd.ftl", "interfaces.nvme", "sim"]

    def test_empty_attribution_is_harmless(self):
        profile = new_profile()
        doc = attribution(profile)
        assert doc["total_s"] == 0.0 and doc["calls"] == 0
        assert doc["layers"] == {} and hottest_layers(doc) == []
        text = attribution_markdown(profile)
        assert "in 0 Python calls" in text
        assert "hottest layers" not in text


# -- exports ------------------------------------------------------------------

class TestExports:
    def test_markdown_names_top3_hottest_layers(self):
        profile = new_profile()
        profile.runcall(SCENARIOS["write_storm_gc"], "smoke")
        text = attribution_markdown(profile)
        assert "Top-3 hottest layers:" in text
        assert "| layer | calls | self ms | share |" in text
        assert "| `ssd.ftl` |" in text and "| `ssd.gc` |" in text
        for name in hottest_layers(attribution(profile)):
            assert f"`{name}`" in text

    def test_write_profile_emits_both_artifacts(self, tmp_path):
        sim = Simulator()
        profile = new_profile()
        profile.runcall(sim.run_process, _pingpong(sim))
        paths = write_profile(tmp_path / "attr", profile)
        assert paths == [str(tmp_path / "attr.md"),
                         str(tmp_path / "attr.prof")]
        assert "Host self time by layer" in (tmp_path / "attr.md").read_text()
        stats = pstats.Stats(str(tmp_path / "attr.prof"))
        assert any(name == "_dispatch" for _file, _line, name in stats.stats)

    def test_write_profile_strips_a_suffixed_base(self, tmp_path):
        sim = Simulator()
        profile = new_profile()
        profile.runcall(sim.run_process, _pingpong(sim))
        for suffix in (".md", ".prof"):
            paths = write_profile(tmp_path / f"attr{suffix}", profile)
            assert paths == [str(tmp_path / "attr.md"),
                             str(tmp_path / "attr.prof")]


# -- the layer map ------------------------------------------------------------

class TestCategorize:
    @pytest.mark.parametrize("path,layer", [
        ("/x/src/repro/ssd/firmware/ftl/gc.py", "ssd.gc"),
        ("/x/src/repro/ssd/firmware/ftl/mapping.py", "ssd.ftl"),
        ("/x/src/repro/ssd/firmware/ftl/__init__.py", "ssd.ftl"),
        ("/x/src/repro/ssd/firmware/icl.py", "ssd.icl"),
        ("/x/src/repro/ssd/firmware/fil.py", "ssd.fil"),
        ("/x/src/repro/ssd/firmware/hil.py", "ssd.hil"),
        ("/x/src/repro/ssd/firmware/arbiter.py", "ssd.hil"),
        ("/x/src/repro/ssd/storage/flash.py", "ssd.flash"),
        ("/x/src/repro/ssd/computation/cores.py", "ssd.cores"),
        ("/x/src/repro/ssd/computation/dram.py", "ssd.dram"),
        ("/x/src/repro/ssd/config.py", "ssd"),
        ("/x/src/repro/interfaces/nvme/queues.py", "interfaces.nvme"),
        ("/x/src/repro/interfaces/htype.py", "interfaces.htype"),
        ("/x/src/repro/interfaces/sata/fis.py", "interfaces.htype"),
        ("/x/src/repro/interfaces/ufs/upiu.py", "interfaces.htype"),
        ("/x/src/repro/interfaces/ocssd/pblk.py", "interfaces.ocssd"),
        ("/x/src/repro/interfaces/base.py", "other"),
        ("/x/src/repro/hostos/blocklayer.py", "hostos.blocklayer"),
        ("/x/src/repro/hostos/iosched.py", "hostos"),
        ("/x/src/repro/host/cpu.py", "host.cpu"),
        ("/x/src/repro/host/pcie.py", "host"),
        ("/x/src/repro/core/system.py", "core"),
        ("/x/src/repro/workloads/fio.py", "workloads"),
        ("/x/src/repro/baselines/replay.py", "baselines"),
        ("/x/src/repro/sim/process.py", "sim"),
        ("/x/src/repro/obs/profiler.py", "other"),
        ("/ckout/repro/src/repro/sim/engine.py", "sim"),
        ("/ckout/repro/tests/test_sim_kernel.py", "other"),
        ("/somewhere/else.py", "other"),
        ("<string>", "other"),
    ])
    def test_path_to_layer(self, path, layer):
        assert layer_of(path) == layer

    def test_suite_layers_keep_their_names(self):
        """Every module the repo benchmark names keeps the benchmark's
        layer here, so the two instruments share one vocabulary."""
        suite = runpy.run_path(str(SUITE_LAYERS))["MODULE_LAYERS"]
        assert {prefix: MODULE_LAYERS[prefix] for prefix in suite} == suite

    def test_yield_from_helper_is_charged_to_its_layer(self):
        """An FTL helper owns the work it does after a leaf it delegated
        to has returned: its frame is the one on the stack."""
        sim = Simulator()
        leaf = _cores_leaf(sim)

        @_planted_in(FTL)
        def helper():
            yield from leaf()
            total = 0
            for value in range(200_000):    # the spin, after the leaf
                total += value
            return total

        doc = _profile_five_calls(sim, helper)
        assert doc["layers"]["ssd.ftl"]["seconds"] >= 0.9 * doc["total_s"]
        # five calls and five resumes of the helper; the leaf starts and
        # resumes once per call too
        assert doc["layers"]["ssd.ftl"]["calls"] == 10
        assert doc["layers"]["ssd.cores"]["calls"] == 10

    def test_work_before_the_first_yield_is_charged_to_its_layer(self):
        """The same helper spinning before its first yield: that time is
        the helper's too, not its caller's."""
        sim = Simulator()
        leaf = _cores_leaf(sim)

        @_planted_in(FTL)
        def helper():
            total = 0
            for value in range(200_000):    # the spin, before any yield
                total += value
            yield from leaf()
            return total

        doc = _profile_five_calls(sim, helper)
        assert doc["layers"]["ssd.ftl"]["seconds"] >= 0.9 * doc["total_s"]

    def test_process_resume_attributes_to_the_generator(self):
        sim = Simulator()
        profile = new_profile()
        profile.runcall(sim.run_process, _pingpong(sim))
        doc = attribution(profile)
        # the generator lives in this test file -> "other", not "sim";
        # its start and each of its 50 resumes is one call
        assert doc["layers"]["other"]["calls"] == 51
        assert doc["sites"]["test_obs_profiler.py:_pingpong.<locals>.proc"] \
            ["calls"] == 51
