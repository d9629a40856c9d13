"""The live run journal: streaming NDJSON events beside a result store.

Fleet sweeps (:mod:`repro.fleet`) are deterministic and resumable, but
until a job's result lands in the content-addressed store the sweep is
a black box: a crashed worker looks identical to one that never
started.  The journal fixes that.  Each worker appends one JSON line
per lifecycle event to ``<store>/journal.ndjson``:

* ``job_started``   — worker picked the job up (wall time, pid);
* ``heartbeat``     — worker still alive (rate-limited by wall clock);
* ``epoch_sampled`` — simulated-time progress (sim ns, events, epochs);
* ``job_completed`` — result stored (wall duration, deterministic facts);
* ``job_failed``    — the error, plus any flight-recorder post-mortems.

Every line carries **both clocks**: ``wall_ts`` (host seconds, for
liveness/ETA) and, where a simulator is in flight, ``sim_ns``.  The
journal is therefore *deliberately wall-clock-tainted* — it is a side
artifact for ``python -m repro.fleet watch``, **never** part
of the byte-identical store contract: result payloads stay bit-identical
with the journal on or off, and store diffs exclude ``journal.ndjson``
by design (``docs/FLEET.md``).

Heartbeats piggyback on the telemetry epoch hook
(:func:`repro.obs.telemetry.set_epoch_listener`): while a job context is
active, every crossed epoch boundary gives the journal a chance to emit,
throttled to one ``heartbeat``/``epoch_sampled`` pair per
``heartbeat_s`` of wall time, so journaling cost is bounded no matter
how fast simulated time advances.

This module is one of simlint's *designated wall-clock modules*
(SIM110): :func:`wall_now` is the blessed accessor that display-only
code (the fleet watcher, ETA rendering) uses instead of reading
``time.time`` directly.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import telemetry as _telemetry

#: file name the fleet runner journals into, at the store root
JOURNAL_NAME = "journal.ndjson"


def wall_now() -> float:
    """Host wall clock in seconds — the blessed read for display code.

    Journal stamps, heartbeat ages and ETA math all flow through this
    single accessor; simulated logic must keep deriving timestamps from
    ``sim.now`` (simlint SIM110 enforces the split).
    """
    return time.time()


def journal_path_for(store_root: Union[str, Path]) -> Path:
    """Where the journal for a result store lives."""
    return Path(store_root) / JOURNAL_NAME


class RunJournal:
    """Append-only NDJSON event log, safe for concurrent workers.

    Each :meth:`append` is a single ``O_APPEND`` write of one line, so
    concurrent worker processes interleave whole events, never bytes.
    Readers (:meth:`events`) skip a torn trailing line defensively.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def append(self, kind: str, **fields) -> Dict:
        """Append one event line; returns the document that was written."""
        doc = dict(fields)
        doc["event"] = kind
        doc["wall_ts"] = round(wall_now(), 6)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return doc

    def events(self) -> List[Dict]:
        """Every parseable event, in append order; [] when absent."""
        if not self.path.is_file():
            return []
        out: List[Dict] = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue        # torn write from a killed worker
                if isinstance(doc, dict) and "event" in doc:
                    out.append(doc)
        return out

    def __repr__(self) -> str:
        return f"RunJournal({str(self.path)!r})"


# -- the per-job worker context ----------------------------------------------
#
# Workers execute scenarios that build their own Simulators internally,
# so the journal cannot be threaded as an argument; like tracing and
# telemetry, the active job is process-global state.

class _JobContext:
    """Process-global state while one journaled job is executing."""

    __slots__ = ("journal", "job_hash", "heartbeat_s", "started",
                 "last_beat")

    def __init__(self, journal: RunJournal, job_hash: str,
                 heartbeat_s: float) -> None:
        self.journal = journal
        self.job_hash = job_hash
        self.heartbeat_s = heartbeat_s
        self.started = wall_now()
        self.last_beat = float("-inf")


_context: Optional[_JobContext] = None


def _on_epoch(probe, t_ns: int) -> None:
    """Telemetry epoch listener: emit a throttled heartbeat pair.

    Called by :class:`~repro.obs.telemetry.TelemetryProbe` once per
    crossed epoch boundary; cheap no-op unless ``heartbeat_s`` of wall
    time has passed since the last emission.
    """
    ctx = _context
    if ctx is None:
        return
    now = wall_now()
    if now - ctx.last_beat < ctx.heartbeat_s:
        return
    ctx.last_beat = now
    sim = probe.sim
    ctx.journal.append("heartbeat", job=ctx.job_hash, pid=os.getpid(),
                       sim_ns=sim.now, events=sim.events_processed)
    ctx.journal.append("epoch_sampled", job=ctx.job_hash, sim_ns=t_ns,
                       epochs=probe.epochs_sampled,
                       events=sim.events_processed)


def begin_job(journal: RunJournal, job_hash: str,
              heartbeat_s: float = 2.0) -> None:
    """Open a job context: write ``job_started`` and arm heartbeats."""
    global _context
    _context = _JobContext(journal, job_hash, heartbeat_s)
    journal.append("job_started", job=job_hash, pid=os.getpid(), sim_ns=0)
    _telemetry.set_epoch_listener(_on_epoch)


def end_job(kind: str, **fields) -> Optional[Dict]:
    """Close the job context with a terminal event (or None if none open).

    ``kind`` is ``"job_completed"`` or ``"job_failed"``; the event gets
    the job hash and total wall duration attached automatically.
    """
    global _context
    ctx = _context
    _context = None
    _telemetry.set_epoch_listener(None)
    if ctx is None:
        return None
    return ctx.journal.append(
        kind, job=ctx.job_hash, pid=os.getpid(),
        wall_duration_s=round(wall_now() - ctx.started, 6), **fields)


def active_job() -> Optional[str]:
    """Config hash of the journaled job in flight, or None."""
    return _context.job_hash if _context is not None else None
