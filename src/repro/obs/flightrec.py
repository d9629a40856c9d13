"""Flight recorder: a bounded ring of recent activity, dumped on failure.

Every telemetry-enabled :class:`~repro.sim.Simulator` carries a
:class:`FlightRecorder`: a ring of the last N processed events (time +
event type), plus hooks to capture open spans and the latest metric
sample at the moment something goes wrong.  When a ``run_process`` run
raises — a failed golden, a hypothesis shrink, an orphaned process
failure — the recorder writes a JSON post-mortem next to the run, so
the failure comes with the device's last moments attached instead of
just a traceback.

The ring is a ``collections.deque(maxlen=N)``: recording is O(1) and
memory is bounded regardless of run length.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple


class FlightRecorder:
    """Bounded ring of recent simulator activity plus a JSON dump."""

    __slots__ = ("capacity", "_events", "label", "dumped_to")

    def __init__(self, capacity: int = 256, label: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[Tuple[int, str]] = deque(maxlen=capacity)
        self.label = label
        self.dumped_to: Optional[str] = None

    def note_event(self, t_ns: int, kind: str) -> None:
        """Record one processed event; O(1), evicting the oldest."""
        self._events.append((t_ns, kind))

    def recent_events(self) -> List[Tuple[int, str]]:
        """The retained ring, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- dumping -----------------------------------------------------------

    def snapshot(self, sim=None, error: Optional[BaseException] = None,
                 metrics: Optional[Dict[str, float]] = None) -> Dict:
        """Assemble the JSON-ready post-mortem document."""
        doc: Dict = {
            "label": self.label,
            "ring_capacity": self.capacity,
            "recent_events": [[t, kind] for t, kind in self._events],
        }
        if error is not None:
            doc["error"] = {"type": type(error).__name__,
                            "message": str(error)}
        if sim is not None:
            doc["sim"] = {"now_ns": sim.now,
                          "events_processed": sim.events_processed,
                          "queue_length": sim.queue_length}
            tracer = getattr(sim, "tracer", None)
            if tracer is not None and tracer.enabled:
                doc["open_spans"] = [
                    {"kind": span.kind, "track": span.track,
                     "t_start": span.t_start,
                     "args": {k: str(v) for k, v in (span.args or {}).items()}}
                    for stack in tracer._open.values() for span in stack]
                doc["closed_spans"] = len(
                    [s for s in tracer.spans if s.t_end is not None])
        if metrics is not None:
            doc["last_metrics"] = {name: value
                                   for name, value in sorted(metrics.items())}
        return doc

    def dump(self, path: str, sim=None,
             error: Optional[BaseException] = None,
             metrics: Optional[Dict[str, float]] = None) -> str:
        """Write the post-mortem JSON to ``path``; returns the path."""
        doc = self.snapshot(sim=sim, error=error, metrics=metrics)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        self.dumped_to = path
        return path
