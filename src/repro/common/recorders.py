"""Latency and bandwidth measurement recorders."""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.histogram import LogHistogram
from repro.common.units import MB, SEC


class LatencyRecorder:
    """Collects per-request latencies (ns) and summarizes them.

    Backed by a streaming :class:`~repro.common.histogram.LogHistogram`:
    memory stays bounded no matter how many samples arrive (the seed
    implementation kept every sample forever and re-sorted per
    percentile call).  ``count``/``mean``/``min``/``max`` are exact;
    :meth:`percentile` is a bucket estimate within the histogram's
    documented relative error (6.25% at the default 16 sub-buckets),
    which is far below run-to-run workload variance.
    """

    __slots__ = ("_hist",)

    def __init__(self) -> None:
        self._hist = LogHistogram()

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError("negative latency")
        self._hist.record(latency_ns)

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def histogram(self) -> LogHistogram:
        """The backing streaming histogram (mergeable, report-ready)."""
        return self._hist

    def mean(self) -> float:
        return self._hist.mean()

    def mean_us(self) -> float:
        return self.mean() / 1000.0

    def percentile(self, p: float) -> int:
        """Estimated percentile in ns (see class note on error bounds)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self._hist.count == 0:
            return 0
        return round(self._hist.percentile(p))

    def max(self) -> int:
        return self._hist.max

    def min(self) -> int:
        return self._hist.min

    def merge(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """Fold another recorder's samples into this one (lossless).

        Delegates to :meth:`LogHistogram.merge`, so per-tenant recorders
        roll up to a device-wide recorder exactly — the merged histogram
        is bucket-for-bucket identical to one fed every sample directly
        (pinned by the rollup regression test).
        """
        self._hist.merge(other._hist)
        return self

    def summary(self) -> Dict[str, float]:
        p50, p99 = self._hist.percentiles([50, 99])
        return {
            "count": self.count,
            "mean_us": self.mean_us(),
            "p50_us": p50 / 1000.0,
            "p99_us": p99 / 1000.0,
            "max_us": self.max() / 1000.0,
        }


class BandwidthRecorder:
    """Counts bytes moved; reports MB/s between the first and the last
    recorded completion.  Callers exclude a warm-up by not recording it.
    """

    def __init__(self) -> None:
        self._bytes = 0
        self._first_ns: Optional[int] = None
        self._last_ns: Optional[int] = None

    def record(self, nbytes: int, now_ns: int) -> None:
        if self._first_ns is None:
            self._first_ns = now_ns
        self._bytes += nbytes
        self._last_ns = now_ns

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def mbps(self) -> float:
        """Bandwidth in MB/s over the recorded window."""
        if self._first_ns is None or self._last_ns is None:
            return 0.0
        span = self._last_ns - self._first_ns
        return (self._bytes / MB) / (span / SEC) if span > 0 else 0.0
