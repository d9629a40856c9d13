"""Tests for repro.obs: span tracing, metrics registry, exporters,
the process-wide switch, and the zero-cost-when-disabled guarantee."""

import json

import pytest

from repro.common.metrics import MetricsRegistry
from repro.core.system import FullSystem
from repro.obs.causal import CausalTracer
from repro.obs.export import (
    format_span_histograms,
    span_histograms,
    write_chrome_trace,
    write_metrics_csv,
)
from repro.obs.runtime import (
    disable_causal,
    disable_tracing,
    enable_causal,
    enable_tracing,
    metric_snapshots,
    tracers,
    tracing_enabled,
)
from repro.sim import Simulator, TimeAverage, UtilizationTracker
from repro.sim.tracer import NULL_TRACER, Tracer, merge_spans

from tests.conftest import tiny_ssd_config


@pytest.fixture
def traced():
    """Enable process-wide tracing for one test, always cleaning up."""
    enable_tracing()
    yield
    disable_tracing()


class _Clock:
    def __init__(self):
        self.now = 0


# -- Tracer unit behaviour ---------------------------------------------------


class TestTracer:
    def test_spans_nest_by_track(self):
        clock = _Clock()
        tracer = Tracer(clock)
        outer = tracer.begin("io.submit", 1)
        clock.now = 10
        inner = tracer.begin("flash.read", 1)
        other = tracer.begin("ftl.gc", 0)     # different track: no nesting
        clock.now = 30
        tracer.end(inner)
        clock.now = 50
        tracer.end(outer)
        tracer.end(other)
        assert inner.parent is outer
        assert outer.parent is None
        assert other.parent is None
        assert inner.depth == 1 and outer.depth == 0
        assert (inner.t_start, inner.t_end) == (10, 30)
        assert outer.duration == 50

    def test_out_of_order_end_is_safe(self):
        clock = _Clock()
        tracer = Tracer(clock)
        a = tracer.begin("a", 1)
        b = tracer.begin("b", 1)
        clock.now = 5
        tracer.end(a)               # a closes before its child b
        clock.now = 9
        tracer.end(b)
        assert a.duration == 5 and b.duration == 9
        assert tracer._open[1] == []

    def test_context_manager_closes_on_exception(self):
        clock = _Clock()
        tracer = Tracer(clock)
        with pytest.raises(RuntimeError):
            with tracer.span("x", 2):
                clock.now = 7
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.t_end == 7

    def test_queries(self):
        clock = _Clock()
        tracer = Tracer(clock)
        with tracer.span("a", 1):
            clock.now = 4
        with tracer.span("b", 2):
            clock.now = 10
        assert tracer.kinds() == ["a", "b"]
        assert [s.kind for s in tracer.by_track(2)] == ["b"]
        assert tracer.durations("a") == [4]

    def test_null_tracer_records_nothing(self):
        span = NULL_TRACER.begin("anything", 42, detail=1)
        NULL_TRACER.end(span)
        with NULL_TRACER.span("more", 7):
            pass
        assert NULL_TRACER.spans == []
        assert not NULL_TRACER.enabled


# -- metrics registry --------------------------------------------------------


class TestMetricsRegistry:
    def test_register_read_and_snapshot(self):
        reg = MetricsRegistry()
        reg.register("a.b", lambda: 2.5)
        reg.register("a.count", lambda: 3)
        reg.register("c.depth", lambda: 7)
        assert reg.read("a.b") == 2.5
        snap = reg.snapshot()
        assert snap == {"a.b": 2.5, "a.count": 3.0, "c.depth": 7.0}
        assert reg.snapshot("a") == {"a.b": 2.5, "a.count": 3.0}

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.register("x", lambda: 0.0)
        with pytest.raises(ValueError):
            reg.register("x", lambda: 1.0)

    def test_scoped_prefixing(self):
        reg = MetricsRegistry()
        scope = reg.scoped("ssd.ch0")
        scope.register("util", lambda: 0.5)
        assert reg.read("ssd.ch0.util") == 0.5

    def test_reads_instruments_lazily(self, sim):
        reg = MetricsRegistry()
        avg = TimeAverage(sim, initial=2.0)
        busy = UtilizationTracker(sim)
        reg.register("avg", avg.mean)
        reg.register("busy", busy.utilization)

        def proc():
            busy.begin()
            yield sim.timeout(50)
            busy.end()
            yield sim.timeout(50)

        sim.run_process(proc())
        assert reg.read("busy") == pytest.approx(0.5)
        assert reg.read("avg") == pytest.approx(2.0)

    def test_csv_round_trip(self):
        reg = MetricsRegistry()
        reg.register("m.one", lambda: 1.0)
        reg.register("m.two", lambda: 0.25)
        lines = reg.to_csv().strip().splitlines()
        assert lines[0] == "metric,value"
        assert "m.one,1" in lines[1]


# -- exporters ---------------------------------------------------------------


class TestExport:
    def _tracer_with_spans(self):
        clock = _Clock()
        tracer = Tracer(clock)
        tracer.label = "unit"
        with tracer.span("io.submit", 3, op="READ"):
            clock.now = 4000
            with tracer.span("flash.read", 3):
                clock.now = 9000
        return tracer

    def test_chrome_trace_json_round_trip(self, tmp_path):
        tracer = self._tracer_with_spans()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), [tracer])
        assert count == 2
        trace = json.loads(path.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "unit"
        by_name = {e["name"]: e for e in spans}
        # ns -> fractional µs, thread id = track
        assert by_name["io.submit"]["dur"] == pytest.approx(9.0)
        assert by_name["flash.read"]["ts"] == pytest.approx(4.0)
        assert by_name["io.submit"]["tid"] == 3
        assert by_name["io.submit"]["args"]["op"] == "READ"

    def test_latency_breakdown_percentiles(self):
        clock = _Clock()
        tracer = Tracer(clock)
        for duration in (1000, 2000, 3000, 4000):
            clock.now = 0
            span = tracer.begin("flash.read", 1)
            clock.now = duration
            tracer.end(span)
        histograms = span_histograms(merge_spans([tracer]))
        stats = histograms["flash.read"].summary(scale=1e-3)
        # count, mean and max are exact; percentiles are bucket estimates
        assert stats["count"] == 4
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["max"] == pytest.approx(4.0)
        assert stats["p50"] == pytest.approx(2.5, rel=1 / 16)
        table = format_span_histograms(histograms)
        assert "flash.read" in table and "p99_us" in table
        row = table.splitlines()[-1].split("|")
        assert [cell.strip() for cell in row[1:3]] == ["4", "2.5"]
        assert row[-1].strip() == "4.0"

    def test_open_spans_excluded_from_breakdown(self):
        tracer = Tracer(_Clock())
        tracer.begin("never.closed", 1)
        assert span_histograms(tracer.spans) == {}

    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = write_metrics_csv(
            str(path), [("sysA", {"ssd.ch0.util": 0.5, "a": 1.0})])
        assert rows == 2
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "system,metric,value"
        assert lines[1] == "sysA,a,1"


# -- the process-wide switch -------------------------------------------------


class TestRuntimeSwitch:
    def test_simulator_gets_live_tracer_only_when_enabled(self, traced):
        assert tracing_enabled()
        sim = Simulator()
        assert sim.tracer.enabled
        assert sim.tracer in tracers()
        disable_tracing()
        assert Simulator().tracer is NULL_TRACER

    def test_causal_capture_shares_the_tracer_slot(self, traced):
        """Disarming either switch leaves the other's tracers in place."""
        enable_causal()
        try:
            assert isinstance(Simulator().tracer, CausalTracer)
            disable_causal()
            assert type(Simulator().tracer) is Tracer
            enable_causal()
            disable_tracing()
            assert isinstance(Simulator().tracer, CausalTracer)
        finally:
            disable_causal()
        assert Simulator().tracer is NULL_TRACER

    def test_no_metric_snapshots_when_off(self):
        """With tracing off nothing is collected, and the shared null
        tracer keeps no system's registry."""
        system = FullSystem(device=tiny_ssd_config(), interface="nvme")
        assert system.sim.tracer is NULL_TRACER
        assert NULL_TRACER.metrics is None
        assert metric_snapshots() == []

    @pytest.mark.parametrize("causal", [False, True])
    def test_every_traced_system_has_a_snapshot(self, traced, causal):
        """Each ``FullSystem``'s registry reaches the snapshots through
        its tracer, a causal one too; a bare ``Simulator`` has none and
        no row."""
        if causal:
            enable_causal()
        try:
            Simulator()
            first = FullSystem(device=tiny_ssd_config(), interface="nvme")
            second = FullSystem(device=tiny_ssd_config(), interface="sata")
            assert isinstance(second.sim.tracer, CausalTracer) == causal
            second.sim.tracer.label = "sata-box"
            _run_small_workload(second)
            snapshots = metric_snapshots()
        finally:
            disable_causal()
        assert [label for label, _snap in snapshots] == ["system1",
                                                         "sata-box"]
        assert snapshots[0][1] == first.metrics.snapshot()
        assert snapshots[1][1]["ssd.flash.reads"] >= 1.0

    def test_causal_capture_alone_keeps_no_registry(self):
        """Without tracing a causal tracer retains no spans, and so no
        registry either: nothing would export its snapshot."""
        enable_causal()
        try:
            system = FullSystem(device=tiny_ssd_config(), interface="nvme")
            assert system.sim.tracer.metrics is None
            assert metric_snapshots() == []
        finally:
            disable_causal()

    def test_default_is_off(self):
        assert not tracing_enabled()
        assert Simulator().tracer is NULL_TRACER


# -- full-stack integration ---------------------------------------------------


def _run_small_workload(system):
    if system.interface != "ocssd":     # pblk maps its own pages
        system.precondition(0.5)    # mapped LPNs so reads reach flash

    def scenario():
        data = system.pattern_data(0, 8)
        yield from system.write(0, 8, data=data)
        yield from system.read(0, 8)
        yield from system.read(256, 8)

    system.run_process(scenario())


STACK_KINDS = {
    "nvme": {"io.submit", "os.blocklayer", "nvme.sq", "nvme.cmd",
             "hil.serve", "icl.read", "ftl.translate", "flash.read",
             "dma.to_host"},
    "sata": {"io.submit", "os.blocklayer", "ahci.submit", "ahci.complete",
             "sata.cmd", "hil.serve", "icl.read", "flash.read"},
    "ufs": {"io.submit", "os.blocklayer", "ufs.utp.submit",
            "ufs.utp.complete", "ufs.cmd", "hil.serve", "flash.read"},
    "ocssd": {"io.submit", "os.blocklayer", "ocssd.pblk.write",
              "ocssd.pblk.read"},
}


class TestFullStackTracing:
    @pytest.mark.parametrize("interface", sorted(STACK_KINDS))
    def test_span_kinds_cover_the_stack(self, interface, traced):
        system = FullSystem(device=tiny_ssd_config(), interface=interface)
        _run_small_workload(system)
        tracer = system.sim.tracer
        assert STACK_KINDS[interface] <= set(tracer.kinds())
        if interface != "ocssd":    # pblk absorbs this workload host-side
            # >= 5 distinct kinds spanning hostos -> interface -> device
            assert len(tracer.kinds()) >= 5

    def test_spans_nest_along_the_request_path(self, traced):
        system = FullSystem(device=tiny_ssd_config(), interface="nvme")
        _run_small_workload(system)
        tracer = system.sim.tracer
        # every traced host request nests under io.submit on its track
        for span in tracer.by_kind("nvme.cmd"):
            chain = set()
            node = span.parent
            while node is not None:
                chain.add(node.kind)
                node = node.parent
            assert "io.submit" in chain
        # flash work attributed to a real request sits on its track
        read_tracks = {s.track for s in tracer.by_kind("flash.read")}
        assert any(track > 0 for track in read_tracks)
        # all spans closed once the workload drained
        assert all(s.t_end is not None for s in tracer.spans)

    def test_background_flush_lands_on_track_zero(self, traced):
        system = FullSystem(device=tiny_ssd_config(), interface="nvme")

        def scenario():
            for i in range(24):
                yield from system.write(
                    i * 8, 8, data=system.pattern_data(i * 8, 8))
            yield from system.ssd.icl.flush_all()

        system.sim.process(scenario())
        system.sim.run()
        programs = system.sim.tracer.by_kind("flash.program")
        assert programs, "writes should reach flash"
        assert {s.track for s in programs} == {0}, \
            "write-back flushing is background work"

    def test_chrome_export_of_a_real_run(self, tmp_path, traced):
        system = FullSystem(device=tiny_ssd_config(), interface="nvme")
        _run_small_workload(system)
        path = tmp_path / "run.json"
        count = write_chrome_trace(str(path), tracers())
        trace = json.loads(path.read_text())
        assert count == len(
            [e for e in trace["traceEvents"] if e["ph"] == "X"])
        assert count >= 10

    def test_metrics_registry_reflects_the_run(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        _run_small_workload(system)
        snap = system.metrics.snapshot()
        assert snap["os.block.submitted"] >= 3.0
        assert snap["ssd.flash.reads"] >= 1.0
        assert snap["ssd.hil.completed"] >= 3.0
        assert 0.0 <= snap["ssd.channel0.util"] <= 1.0
        assert snap["sim.events_processed"] > 0
        names = system.metrics.names("host.cpu")
        assert "host.cpu.core0.kernel.util" in names


# -- the zero-cost guarantee -------------------------------------------------


class TestDisabledTracingIsInvisible:
    def _run(self):
        system = FullSystem(device=tiny_ssd_config(), interface="nvme")
        _run_small_workload(system)
        return (system.sim.events_processed, system.sim.now,
                system.ssd.backend.reads_issued)

    def test_disabled_tracing_is_invisible(self):
        baseline = self._run()          # tracing off: the tier-1 state
        enable_tracing()
        try:
            traced_run = self._run()
        finally:
            disable_tracing()
        again = self._run()
        assert baseline == again, "disabled runs must be deterministic"
        assert baseline == traced_run, \
            "tracing must not perturb events or simulated time"


# -- satellite regressions ---------------------------------------------------


class TestRunProcessDeadline:
    def test_clock_reaches_deadline_when_queue_drains_early(self, sim):
        def stalls_forever():
            yield sim.event()       # never succeeds

        with pytest.raises(RuntimeError, match="deadline"):
            sim.run_process(stalls_forever(), until=5_000)
        assert sim.now == 5_000

    def test_success_keeps_completion_time(self, sim):
        def quick():
            yield sim.timeout(100)

        sim.run_process(quick(), until=10_000)
        assert sim.now == 100


class TestInstrumentMemoryBounds:
    def test_utilization_marks_are_capped(self, sim):
        tracker = UtilizationTracker(sim, max_points=32)

        def proc():
            for _ in range(200):
                tracker.begin()
                yield sim.timeout(5)
                tracker.end()
                tracker.mark()

        sim.run_process(proc())
        assert len(tracker._marks) <= 32
        # cumulative busy time survives the thinning
        assert tracker.busy_ns() == 1000
