"""Tests for measurement instruments: time averages, utilization,
bandwidth/latency recorders, unit conversions."""

import pytest

from repro.common.recorders import BandwidthRecorder, LatencyRecorder
from repro.common.units import (
    GB,
    MB,
    SEC,
    bandwidth_mbps,
    cycles_to_ns,
    ns_per_byte,
    transfer_ns,
)
from repro.sim import Simulator, TimeAverage, UtilizationTracker


@pytest.fixture
def sim():
    return Simulator()


class TestTimeAverage:
    def test_constant_signal(self, sim):
        avg = TimeAverage(sim, initial=5.0)
        sim.schedule(100, lambda: None)
        sim.run()
        assert avg.mean() == 5.0

    def test_step_change_weighted_by_duration(self, sim):
        avg = TimeAverage(sim, initial=0.0)
        sim.schedule(100, avg.set, 10.0)
        sim.schedule(300, lambda: None)
        sim.run()
        # 0 for 100 ns, 10 for 200 ns -> mean 20/3
        assert avg.mean() == pytest.approx(10.0 * 200 / 300)

    def test_add_is_relative(self, sim):
        avg = TimeAverage(sim, initial=3.0)
        avg.add(2.0)
        assert avg.value == 5.0
        avg.add(-5.0)
        assert avg.value == 0.0

    def test_timeline_records_every_change(self, sim):
        avg = TimeAverage(sim, keep_timeline=True)
        sim.schedule(10, avg.set, 1.0)
        sim.schedule(20, avg.set, 2.0)
        sim.run()
        assert avg.timeline() == [(0, 0.0), (10, 1.0), (20, 2.0)]

    def test_timeline_off_by_default_but_mean_exact(self, sim):
        avg = TimeAverage(sim)
        sim.schedule(100, avg.set, 10.0)
        sim.schedule(300, lambda: None)
        sim.run()
        assert avg.timeline() == []
        assert avg.mean() == pytest.approx(10.0 * 200 / 300)

    def test_timeline_capped_by_coarsening(self, sim):
        avg = TimeAverage(sim, keep_timeline=True, max_points=64)
        for t in range(1, 501):
            sim.schedule(t, avg.set, float(t))
        sim.run()
        points = avg.timeline()
        assert len(points) <= 64
        # first and last samples survive every halving pass
        assert points[0] == (0, 0.0)
        assert points[-1] == (500, 500.0)
        assert avg.mean() == pytest.approx(
            sum(t for t in range(1, 500)) / 500)


class TestUtilizationTracker:
    def test_fully_busy(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.begin()
            yield sim.timeout(100)
            tracker.end()

        sim.run_process(proc())
        assert tracker.utilization() == 1.0

    def test_half_busy(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.begin()
            yield sim.timeout(50)
            tracker.end()
            yield sim.timeout(50)

        sim.run_process(proc())
        assert tracker.utilization() == pytest.approx(0.5)

    def test_nested_begins_count_once(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.begin()
            tracker.begin()
            yield sim.timeout(60)
            tracker.end()
            yield sim.timeout(40)
            tracker.end()

        sim.run_process(proc())
        # busy from 0 to 100 (depth never reached zero until the end)
        assert tracker.busy_ns() == 100

    def test_unbalanced_end_raises(self, sim):
        tracker = UtilizationTracker(sim)
        with pytest.raises(RuntimeError):
            tracker.end()

    def test_interval_utilization_between_marks(self, sim):
        tracker = UtilizationTracker(sim)

        def proc():
            tracker.begin()
            yield sim.timeout(50)
            tracker.end()
            tracker.mark()          # interval 1: 100% of [0, 50)
            yield sim.timeout(50)
            tracker.mark()          # interval 2: 0% of [50, 100)

        sim.run_process(proc())
        intervals = tracker.interval_utilization()
        assert intervals[0][1] == pytest.approx(1.0)
        assert intervals[1][1] == pytest.approx(0.0)


class TestLatencyRecorder:
    def test_empty_is_zero(self):
        recorder = LatencyRecorder()
        assert recorder.mean() == 0.0
        assert recorder.percentile(99) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_bad_percentile_rejected(self):
        recorder = LatencyRecorder()
        recorder.record(10)
        with pytest.raises(ValueError):
            recorder.percentile(150)

    def test_percentile_interpolation(self):
        recorder = LatencyRecorder()
        for value in (0, 1000):
            recorder.record(value)
        # The streaming histogram interpolates between buckets; its
        # estimate stays within the documented bucket error of the
        # exact midpoint (500) relative to the max sample.
        estimate = recorder.percentile(50)
        assert abs(estimate - 500) <= recorder.histogram.relative_error * 1000

    def test_exact_extremes_and_mean(self):
        recorder = LatencyRecorder()
        for value in (3, 17, 90_000, 1_000_000):
            recorder.record(value)
        assert recorder.count == 4
        assert recorder.min() == 3
        assert recorder.max() == 1_000_000
        assert recorder.mean() == pytest.approx(1_090_020 / 4)
        # percentiles never escape the exact [min, max] envelope
        assert recorder.percentile(0) >= 3
        assert recorder.percentile(100) <= 1_000_000

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(1000)
        summary = recorder.summary()
        assert set(summary) == {"count", "mean_us", "p50_us", "p99_us",
                                "max_us"}


class TestBandwidthRecorder:
    def test_simple_rate(self):
        recorder = BandwidthRecorder()
        recorder.record(MB, now_ns=0)
        recorder.record(MB, now_ns=SEC)
        assert recorder.mbps() == pytest.approx(2.0)

    def test_no_samples(self):
        assert BandwidthRecorder().mbps() == 0.0


class TestUnits:
    def test_transfer_time_rounds_up(self):
        assert transfer_ns(1, 10**12) == 1      # sub-ns rounds to 1
        assert transfer_ns(0, GB) == 0

    def test_ns_per_byte_inverse(self):
        assert ns_per_byte(GB) == pytest.approx(SEC / GB)
        with pytest.raises(ValueError):
            ns_per_byte(0)

    def test_bandwidth_mbps(self):
        assert bandwidth_mbps(MB, SEC) == pytest.approx(1.0)
        assert bandwidth_mbps(MB, 0) == 0.0

    def test_cycles_to_ns(self):
        assert cycles_to_ns(1000, 10**9) == 1000
        with pytest.raises(ValueError):
            cycles_to_ns(10, 0)
