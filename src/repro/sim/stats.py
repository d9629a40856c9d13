"""Measurement instruments attached to simulated components.

Both instruments here are designed to hold *bounded* memory on long
runs: change-point / sample histories are opt-in (``keep_timeline``)
and, when kept, are coarsened in place once they exceed a cap rather
than growing linearly with simulated time.  Scalar summaries (means,
utilizations) are always exact regardless of the history setting.

For a unified, named view of many instruments across a system, register
them with a :class:`repro.common.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Default cap on retained history points before coarsening kicks in.
DEFAULT_MAX_POINTS = 16384


class TimeAverage:
    """Time-weighted average of a piecewise-constant signal.

    Used for queue depths, memory footprints and similar quantities whose
    mean must be weighted by how long each value was held.

    The change-point history behind :meth:`timeline` is **opt-in** via
    ``keep_timeline`` — without it, long runs would grow a list linearly
    even when nobody reads it.  When kept, the history is halved (every
    other interior point dropped) whenever it exceeds ``max_points``;
    :meth:`mean` is computed from running sums and stays exact either way.
    """

    def __init__(self, sim, initial: float = 0.0,
                 keep_timeline: bool = False,
                 max_points: int = DEFAULT_MAX_POINTS) -> None:
        self.sim = sim
        self._value = initial
        self._last_change = sim.now
        self._weighted_sum = 0.0
        self._origin = sim.now
        self._keep_timeline = keep_timeline
        self._max_points = max(4, max_points)
        self._samples: List[Tuple[int, float]] = \
            [(sim.now, initial)] if keep_timeline else []

    @property
    def value(self) -> float:
        """The signal's current value."""
        return self._value

    def set(self, value: float) -> None:
        """Step the signal to ``value`` at the current simulated time."""
        now = self.sim.now
        self._weighted_sum += self._value * (now - self._last_change)
        self._value = value
        self._last_change = now
        if self._keep_timeline:
            self._samples.append((now, value))
            if len(self._samples) > self._max_points:
                # halve the history: keep first and last, drop every
                # other interior change point
                self._samples = (self._samples[:1]
                                 + self._samples[1:-1:2]
                                 + self._samples[-1:])

    def add(self, delta: float) -> None:
        """Step the signal by ``delta`` relative to its current value."""
        self.set(self._value + delta)

    def mean(self) -> float:
        """Exact time-weighted mean since construction."""
        elapsed = self.sim.now - self._origin
        if elapsed <= 0:
            return self._value
        total = self._weighted_sum + self._value * (self.sim.now - self._last_change)
        return total / elapsed

    def timeline(self) -> List[Tuple[int, float]]:
        """(time_ns, value) change points — used for the Fig 15 timelines.

        Empty unless the instrument was built with ``keep_timeline=True``;
        possibly coarsened past ``max_points`` change points.
        """
        return list(self._samples)


class UtilizationTracker:
    """Fraction of time a component spends busy, with interval sampling.

    The :meth:`mark` history is bounded: past ``max_points`` marks the
    list is halved (marks hold *cumulative* busy time, so any subset
    still yields consistent — just coarser — intervals).  Busy-time and
    utilization totals are always exact.
    """

    def __init__(self, sim, max_points: int = DEFAULT_MAX_POINTS) -> None:
        self.sim = sim
        self._busy_depth = 0
        self._busy_since: Optional[int] = None
        self._busy_time = 0
        self._origin = sim._now
        self._max_points = max(4, max_points)
        self._marks: List[Tuple[int, int]] = []  # (time, cumulative busy ns)

    def begin(self) -> None:
        """Enter a busy section (re-entrant; depth-counted)."""
        if self._busy_depth == 0:
            self._busy_since = self.sim._now
        self._busy_depth += 1

    def end(self) -> None:
        """Leave a busy section; must pair with a prior :meth:`begin`."""
        if self._busy_depth <= 0:
            raise RuntimeError("end() without matching begin()")
        self._busy_depth -= 1
        if self._busy_depth == 0:
            self._busy_time += self.sim._now - self._busy_since
            self._busy_since = None

    def busy_ns(self) -> int:
        """Total busy time so far, including any open busy section."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.sim._now - self._busy_since
        return total

    def utilization(self) -> float:
        """Busy fraction of the time elapsed since construction."""
        elapsed = self.sim._now - self._origin
        return self.busy_ns() / elapsed if elapsed > 0 else 0.0

    def mark(self) -> None:
        """Record a sample point for interval utilization queries."""
        if len(self._marks) >= self._max_points:
            # halve: cumulative samples stay consistent when thinned
            del self._marks[::2]
        self._marks.append((self.sim._now, self.busy_ns()))

    def interval_utilization(self) -> List[Tuple[int, float]]:
        """Per-interval utilization between successive ``mark()`` calls."""
        points: List[Tuple[int, float]] = []
        prev_t, prev_b = self._origin, 0
        for t, b in self._marks:
            span = t - prev_t
            points.append((t, (b - prev_b) / span if span > 0 else 0.0))
            prev_t, prev_b = t, b
        return points
