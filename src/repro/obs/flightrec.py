"""Flight recorder: a bounded ring of recent activity, dumped on failure.

Every telemetry-enabled :class:`~repro.sim.Simulator` carries a
:class:`FlightRecorder`: a ring of the last N processed events (time +
event type), plus hooks to capture open spans and the latest metric
sample at the moment something goes wrong.  When a ``run_process`` run
raises — a failed golden, a hypothesis shrink, an orphaned process
failure — its owner writes a JSON post-mortem next to the run with
:func:`write_post_mortem`, the one writer the sanitizer uses too, so
the failure comes with the device's last moments attached instead of
just a traceback.

The ring is a ``collections.deque(maxlen=N)``: recording is O(1) and
memory is bounded regardless of run length.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple


class FlightRecorder:
    """Bounded ring of recent simulator activity and its post-mortem."""

    __slots__ = ("capacity", "_events", "label")

    def __init__(self, capacity: int = 256, label: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: Deque[Tuple[int, str]] = deque(maxlen=capacity)
        self.label = label

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


def write_post_mortem(doc: Dict, dump_dir: Optional[str], prefix: str,
                      label: str) -> str:
    """Write ``doc`` as JSON to a free ``<dump_dir>/<prefix>-<label>.json``
    and return that path.

    The label is made file-name safe (``sim`` if nothing is left), and
    ``-2``, ``-3``, … is appended until no file of that name exists.
    ``dump_dir`` defaults to the current directory.
    """
    directory = dump_dir or "."
    base = "".join(c if c.isalnum() or c in "-_" else "-"
                   for c in label) or "sim"
    path = os.path.join(directory, f"{prefix}-{base}.json")
    suffix = 1
    while os.path.exists(path):
        suffix += 1
        path = os.path.join(directory, f"{prefix}-{base}-{suffix}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
