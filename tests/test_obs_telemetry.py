"""Telemetry epochs: streaming histograms, bounded time series, epoch
sampling determinism, flight-recorder failure dumps, zero-overhead pins
and report generation (docs/OBSERVABILITY.md, "Telemetry & reports")."""

import json
import random
from pathlib import Path

import pytest

from repro.analysis.sanitizer import disable_sanitizer, enable_sanitizer
from repro.common.histogram import LogHistogram
from repro.common.stats import percentile_exact, percentile_sorted
from repro.obs.flightrec import FlightRecorder
from repro.obs.report import write_report
from repro.obs.runtime import disable_tracing, enable_tracing
from repro.obs.telemetry import (
    disable_telemetry,
    enable_telemetry,
    probes,
    telemetry_enabled,
)
from repro.obs.timeseries import TimeSeries, sparkline
from repro.sim import Simulator

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _reset_observability():
    """Every test leaves the process-wide switches off."""
    yield
    disable_telemetry()
    disable_tracing()
    disable_sanitizer()


# -- shared percentile helper -------------------------------------------------

class TestSharedPercentile:
    def test_empty_is_zero(self):
        assert percentile_sorted([], 50) == 0.0

    def test_single_sample_for_every_p(self):
        for p in (0, 37.5, 100):
            assert percentile_sorted([42], p) == 42.0

    def test_p0_and_p100_are_extremes(self):
        ordered = [1, 5, 9, 200]
        assert percentile_sorted(ordered, 0) == 1.0
        assert percentile_sorted(ordered, 100) == 200.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile_sorted([1, 2], -1)
        with pytest.raises(ValueError):
            percentile_sorted([1, 2], 100.5)

    def test_linear_interpolation(self):
        # rank = 0.25 * 3 = 0.75 between 10 and 20
        assert percentile_sorted([10, 20, 30, 40], 25) == pytest.approx(17.5)

    def test_exact_wrapper_sorts(self):
        assert percentile_exact([30, 10, 20], 50) == 20.0


# -- streaming log-bucketed histogram -----------------------------------------

class TestLogHistogram:
    def test_small_values_are_exact(self):
        hist = LogHistogram()
        for v in range(16):
            hist.record(v)
        assert [(lo, hi, n) for lo, hi, n in hist.buckets()] == [
            (v, v + 1, 1) for v in range(16)]

    def test_bucket_width_bounds_relative_error(self):
        hist = LogHistogram(subbuckets=16)
        for value in (16, 1000, 123_456, 10**9):
            lo, hi = hist._bounds_of(hist._index_of(value))
            assert lo <= value < hi
            assert (hi - lo) <= max(1, value / 16)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram().record(-5)

    def test_subbuckets_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            LogHistogram(subbuckets=12)

    def test_accuracy_against_exact_on_10k_samples(self):
        """p50/p95/p99 agree with exact within the documented error."""
        rng = random.Random(42)
        samples = [int(rng.lognormvariate(10, 1.2)) for _ in range(10_000)]
        hist = LogHistogram()
        for s in samples:
            hist.record(s)
        ordered = sorted(samples)
        for p in (50, 90, 95, 99):
            exact = percentile_sorted(ordered, p)
            estimate = hist.percentile(p)
            assert abs(estimate - exact) <= hist.relative_error * exact + 1, (
                f"p{p}: estimate {estimate} vs exact {exact}")

    def test_exact_aggregates(self):
        rng = random.Random(7)
        samples = [rng.randrange(0, 1 << 30) for _ in range(2000)]
        hist = LogHistogram()
        for s in samples:
            hist.record(s)
        assert hist.count == 2000
        assert hist.total == sum(samples)
        assert hist.min == min(samples)
        assert hist.max == max(samples)
        assert hist.mean() == pytest.approx(sum(samples) / 2000)

    def test_merge_equals_single_stream(self):
        rng = random.Random(9)
        samples = [int(rng.expovariate(1e-5)) for _ in range(5000)]
        whole = LogHistogram()
        left, right = LogHistogram(), LogHistogram()
        for i, s in enumerate(samples):
            whole.record(s)
            (left if i % 2 else right).record(s)
        left.merge(right)
        assert left.count == whole.count
        assert left.total == whole.total
        assert left.min == whole.min and left.max == whole.max
        assert left.percentiles([50, 95, 99]) == whole.percentiles([50, 95, 99])

    def test_merge_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(16).merge(LogHistogram(32))

    def test_percentiles_monotone_and_clamped(self):
        rng = random.Random(3)
        hist = LogHistogram()
        for _ in range(300):
            hist.record(rng.randrange(1, 10**7))
        values = hist.percentiles([0, 10, 50, 90, 99, 100])
        assert values == sorted(values)
        assert values[0] >= hist.min
        assert values[-1] <= hist.max


# -- bounded time series ------------------------------------------------------

class TestTimeSeries:
    def test_memory_stays_bounded(self):
        ts = TimeSeries("x", max_points=16)
        for i in range(10_000):
            ts.append(i * 10, float(i))
        assert len(ts) <= 16
        assert ts.total_appends == 10_000
        assert ts.last_value == 9999.0

    def test_decimation_spans_whole_run(self):
        ts = TimeSeries("x", max_points=8)
        for i in range(1000):
            ts.append(i, float(i))
        times = [t for t, _v in ts.points()]
        assert times[0] == 0                 # oldest point survives
        assert times == sorted(times)
        assert times[-1] >= 500              # coverage reaches the tail

    def test_deterministic_retention(self):
        def build():
            ts = TimeSeries("x", max_points=32)
            for i in range(777):
                ts.append(i * 3, float(i * i % 97))
            return ts.points()
        assert build() == build()

    def test_sparkline_width_and_flat(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        line = sparkline([float(i) for i in range(500)], width=32)
        assert len(line) == 32


# -- epoch sampler ------------------------------------------------------------

def _busy_process(sim, rounds=200):
    for i in range(rounds):
        yield sim.timeout(7 + (i % 5))


@pytest.mark.parametrize("arm, name, value", [
    (enable_telemetry, "max_points", 2),
    (enable_telemetry, "flight_events", 0),
    (enable_sanitizer, "flight_events", 0),
])
def test_bad_parameters_raise_when_arming(arm, name, value):
    """A bad value fails ``enable_*`` and arms nothing, rather than the
    first simulator or epoch that would use it."""
    with pytest.raises(ValueError, match=name):
        arm(**{name: value})
    sim = Simulator()
    assert sim.telemetry is None and sim.sanitizer is None


class TestEpochSampler:
    def test_probe_absent_when_disabled(self):
        assert not telemetry_enabled()
        assert Simulator().telemetry is None

    def test_samples_builtin_series(self):
        enable_telemetry(epoch_ns=50)
        sim = Simulator()
        assert sim.telemetry is not None
        sim.run_process(_busy_process(sim))
        probe = sim.telemetry
        assert probe.epochs_sampled > 5
        assert "sim.events_processed" in probe.series
        counts = probe.series["sim.events_processed"].values()
        assert counts == sorted(counts)      # monotone counter

    def test_sample_times_lie_on_epoch_boundaries(self):
        enable_telemetry(epoch_ns=64)
        sim = Simulator()
        sim.run_process(_busy_process(sim))
        for t, _v in sim.telemetry.series["sim.events_processed"].points():
            assert t % 64 == 0

    def test_identical_runs_produce_identical_series(self):
        def run_once():
            enable_telemetry(epoch_ns=32)
            sim = Simulator()
            sim.run_process(_busy_process(sim))
            series = {name: ts.points()
                      for name, ts in sim.telemetry.series.items()}
            disable_telemetry()
            return series
        assert run_once() == run_once()

    def test_queue_length_counts_events_due_now_and_later(self):
        """The gauge counts both queue levels: events due now (the FIFO)
        and events due later (the heap)."""
        enable_telemetry(epoch_ns=10)
        sim = Simulator()
        later = [sim.timeout(25), sim.timeout(25)]
        sim.run(until=10)            # the clock sits on a boundary
        now = [sim.timeout(0) for _ in range(3)]
        snapshot = sim.telemetry.flight.snapshot(sim)
        assert snapshot["sim"]["queue_length"] == 5
        sim.run()
        # t=10: the first zero-delay timeout is being dispatched; two
        # more are due now and two later.  t=25 (boundary 20): one of
        # the pair is being dispatched, its sibling is due now.
        assert sim.telemetry.series["sim.queue_length"].points() == [
            (10, 4.0), (20, 1.0)]
        assert all(timeout.processed for timeout in later + now)

    def test_probes_collected_and_labelled(self):
        enable_telemetry(epoch_ns=100)
        s1, s2 = Simulator(), Simulator()
        collected = probes()
        assert [p.sim for p in collected] == [s1, s2]
        assert len({p.label for p in collected}) == 2


# -- zero overhead / enabled invariance ---------------------------------------

def _recorded_perf():
    doc = json.loads((GOLDEN_DIR / "perf_scenarios.json").read_text())
    return doc["payload"]


class TestDeterminismPins:
    def test_disabled_matches_committed_golden(self):
        """Telemetry off (the default): bit-identical to the seed facts."""
        from repro.bench.scenarios import kernel_churn
        recorded = _recorded_perf()["kernel_churn"]
        result = kernel_churn("smoke")
        assert result.events == recorded["events"]
        assert result.sim_ns == recorded["sim_ns"]

    def test_enabled_telemetry_changes_nothing(self):
        """Telemetry + tracing on: same events and simulated time.

        The probe only observes — it schedules no events — so even an
        aggressive epoch period leaves every simulated fact identical.
        """
        from repro.bench.scenarios import kernel_churn, randread_nvme
        recorded = _recorded_perf()
        enable_tracing()
        enable_telemetry(epoch_ns=100)
        churn = kernel_churn("smoke")
        read = randread_nvme("smoke")
        assert churn.events == recorded["kernel_churn"]["events"]
        assert churn.sim_ns == recorded["kernel_churn"]["sim_ns"]
        assert read.events == recorded["randread_nvme"]["events"]
        assert read.sim_ns == recorded["randread_nvme"]["sim_ns"]
        # and the probes did observe the runs
        assert any(p.epochs_sampled > 0 for p in probes())


# -- flight recorder ----------------------------------------------------------

class TestFlightRecorder:
    def test_ring_is_bounded_and_keeps_newest(self):
        rec = FlightRecorder(capacity=16)
        for i in range(1000):
            rec.note_event(i, f"E{i}")
        events = rec.recent_events()
        assert len(events) == 16
        assert events[0] == (984, "E984")
        assert events[-1] == (999, "E999")

    def test_dump_on_run_process_failure(self, tmp_path):
        enable_telemetry(epoch_ns=50, dump_dir=str(tmp_path))
        sim = Simulator()

        def doomed():
            yield sim.timeout(120)
            raise RuntimeError("flash array on fire")

        with pytest.raises(RuntimeError, match="on fire"):
            sim.run_process(doomed())
        dumps = list(tmp_path.glob("flightrec-*.json"))
        assert len(dumps) == 1
        doc = json.loads(dumps[0].read_text())
        assert doc["error"]["type"] == "RuntimeError"
        assert "on fire" in doc["error"]["message"]
        assert doc["sim"]["now_ns"] == 120
        assert doc["recent_events"]          # the ring made it out
        assert sim.telemetry.dumped_to == str(dumps[0])

    def test_dump_on_deadline_miss(self, tmp_path):
        enable_telemetry(dump_dir=str(tmp_path))
        sim = Simulator()

        def slow():
            yield sim.timeout(10_000)

        with pytest.raises(RuntimeError, match="deadline"):
            sim.run_process(slow(), until=100)
        assert list(tmp_path.glob("flightrec-*.json"))

    @pytest.mark.parametrize("writer", ["flightrec", "sanitizer"])
    def test_colliding_dumps_get_suffixes(self, tmp_path, writer):
        arm = enable_telemetry if writer == "flightrec" else enable_sanitizer
        arm(dump_dir=str(tmp_path))
        for _ in range(3):
            sim = Simulator()
            hook = sim.telemetry if writer == "flightrec" else sim.sanitizer
            hook.label = hook.flight.label = "same/label"

            def boom():
                raise ValueError("x")
                yield

            with pytest.raises(ValueError):
                sim.run_process(boom())
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"{writer}-same-label-2.json", f"{writer}-same-label-3.json",
            f"{writer}-same-label.json"]

    def test_no_dump_when_disabled(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sim = Simulator()

        def boom():
            raise ValueError("x")
            yield

        with pytest.raises(ValueError):
            sim.run_process(boom())
        assert not list(tmp_path.glob("flightrec-*.json"))


# -- report generation --------------------------------------------------------

def _tiny_full_system_run():
    from repro.bench.scenarios import _storm_config
    from repro.core.fio import FioJob
    from repro.core.system import FullSystem

    system = FullSystem(device=_storm_config(), interface="nvme")
    system.precondition()
    system.run_fio(FioJob(rw="randread", bs=4096, iodepth=8, total_ios=60))
    return system


class TestReports:
    def test_html_report_contents(self, tmp_path):
        enable_tracing()
        enable_telemetry(epoch_ns=10_000)
        _tiny_full_system_run()
        out = tmp_path / "run.html"
        write_report(str(out), title="telemetry test run")
        text = out.read_text()
        assert text.lower().startswith("<!doctype html>")
        # at least three distinct epoch time-series by name
        for series in ("nvme.sq.depth", "ssd.channel0.util",
                       "ssd.ftl.gc_pages_migrated", "os.block.inflight",
                       "sim.events_processed"):
            assert series in text, series
        # per-layer latency histograms from the span stream
        assert "Per-layer latency histograms" in text
        for kind in ("io.submit", "flash.read", "hil.serve"):
            assert kind in text, kind
        assert "bucket error" in text
        # self-contained: inline style, tables and unicode sparklines,
        # no external refs
        assert "<style>" in text and "<table>" in text
        assert any(block in text for block in "▁▂▃▄▅▆▇█")
        for external in ("href=", "src=", "http://", "https://"):
            assert external not in text, external

    def test_markdown_report_contents(self, tmp_path):
        enable_tracing()
        enable_telemetry(epoch_ns=10_000)
        _tiny_full_system_run()
        out = tmp_path / "run.md"
        write_report(str(out), title="telemetry test run")
        text = out.read_text()
        assert text.startswith("# telemetry test run")
        assert "nvme.sq.depth" in text
        assert "## Per-layer latency histograms" in text
        # the histograms are the one per-kind summary; every traced
        # FullSystem's registry reaches the snapshot section
        assert "## Span latency breakdown" not in text
        assert "## End-of-run metric snapshots" in text
        assert "<details><summary>system0 (" in text
        assert any(block in text for block in "▁▂▃▄▅▆▇█")

    def test_report_without_telemetry_degrades_gracefully(self, tmp_path):
        out = tmp_path / "empty.md"
        write_report(str(out), title="nothing armed")
        text = out.read_text()
        assert "Telemetry was not enabled" in text
        assert "Tracing was not enabled" in text


# -- CLI name resolution ------------------------------------------------------

class TestExperimentNameResolution:
    def test_short_and_module_names_resolve(self):
        from repro.experiments.__main__ import resolve_experiment
        assert resolve_experiment("fig12") == "fig12"
        assert resolve_experiment("fig12_os_impact") == "fig12"
        assert resolve_experiment("fig16_simspeed") == "fig16"
        assert resolve_experiment("nope") is None


# -- bench scenario record ----------------------------------------------------

class TestBenchLatencyBlock:
    def test_scenario_to_dict_shape_unchanged(self):
        """``to_dict`` is pinned by the perf golden: its keys never change."""
        from repro.bench.scenarios import ScenarioResult
        result = ScenarioResult("x", "smoke", 0.5, 10, 100, {})
        assert set(result.to_dict()) == {
            "name", "profile", "wall_seconds", "events", "sim_ns",
            "extra", "events_per_sec"}
