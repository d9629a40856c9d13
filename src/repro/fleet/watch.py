"""Live sweep watching: journal-derived job states, ETA and partials.

``sweep_status`` (:mod:`repro.fleet.runner`) can only see the store, so
it answers "done or missing".  This module folds in the run journal
(:mod:`repro.obs.journal`) that workers stream beside the store, which
splits "missing" three ways: **running** (a ``job_started`` with live
heartbeats and no terminal event), **failed** (a ``job_failed``) and
truly **pending**.  On top of that it estimates an ETA from the mean
wall duration of completed jobs, renders the one-screen status block
behind ``python -m repro.fleet watch``, and
writes *streaming partial reports*: the ordinary
:func:`repro.fleet.report.merge_results` document over whatever the
store holds right now.  Because the final ``report`` runs the exact
same merge in the exact same sorted-hash order, a partial report
regenerated once the sweep completes is byte-identical to the final
one (pinned by test and by the fleet-smoke CI job).

Everything here is display-plane: wall clocks come only from the
journal's blessed accessor (:func:`repro.obs.journal.wall_now`) and
nothing feeds back into stored results.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.fleet.report import merge_results, write_fleet_report
from repro.fleet.spec import SweepSpec
from repro.fleet.store import ResultStore
from repro.obs.journal import RunJournal, journal_path_for, wall_now


def journal_status(spec: SweepSpec, store: ResultStore,
                   now_s: Optional[float] = None) -> Dict:
    """Per-job sweep state, merging the store with the run journal.

    The store is authoritative for **done** (a stored result trumps any
    journal state — resumed sweeps rewrite history).  For the rest, the
    journal's last word per job decides: a terminal ``job_failed`` means
    **failed**, an open ``job_started`` means **running**, no mention
    means **pending**.

    The returned document is the stable ``fleet.watch/1`` schema that
    ``watch --once --json`` emits (keys sorted; pinned by
    ``tests/test_fleet_watch.py``):

    * ``schema`` — the literal ``"fleet.watch/1"``;
    * ``spec`` / ``planned`` / ``done`` — sweep name, job count, stored
      count;
    * ``journal`` — path of the NDJSON journal that was folded in;
    * ``running`` — one entry per in-flight job: ``job`` (hash),
      ``pid``, ``sim_ns`` / ``events`` from the freshest heartbeat, and
      ``beat_age_s`` (wall seconds since that heartbeat);
    * ``failed`` — one entry per failed job: ``job``, ``error``
      (exception class), ``message``, ``flightrec`` post-mortem names;
    * ``pending`` — hashes the journal has never mentioned;
    * ``missing`` — pending + failed + running (everything not stored);
    * ``eta_s`` — always present: wall-seconds estimate from completed
      jobs' mean duration, or ``None`` until at least one job has
      completed (or nothing remains).
    """
    now_s = wall_now() if now_s is None else now_s
    planned = sorted(spec.expand(), key=lambda job: job.config_hash)
    hashes = [job.config_hash for job in planned]
    hash_set = set(hashes)
    journal = RunJournal(journal_path_for(store.root))

    last: Dict[str, Dict] = {}          # job hash -> last journal event
    beats: Dict[str, Dict] = {}         # job hash -> last progress event
    durations: List[float] = []
    for event in journal.events():
        job = event.get("job")
        if job not in hash_set:
            continue
        kind = event["event"]
        if kind in ("job_started", "job_completed", "job_failed"):
            last[job] = event
            if kind == "job_completed" \
                    and isinstance(event.get("wall_duration_s"), (int, float)):
                durations.append(float(event["wall_duration_s"]))
        elif kind in ("heartbeat", "epoch_sampled"):
            beats[job] = event

    done: List[str] = []
    failed: List[Dict] = []
    running: List[Dict] = []
    pending: List[str] = []
    for job_hash in hashes:
        if store.has(job_hash):
            done.append(job_hash)
            continue
        word = last.get(job_hash)
        if word is None:
            pending.append(job_hash)
        elif word["event"] == "job_failed":
            failed.append({"job": job_hash,
                           "error": word.get("error", "?"),
                           "message": word.get("message", ""),
                           "flightrec": word.get("flightrec", [])})
        else:
            beat = beats.get(job_hash, word)
            running.append({
                "job": job_hash,
                "pid": word.get("pid"),
                "sim_ns": beat.get("sim_ns", 0),
                "events": beat.get("events", 0),
                "beat_age_s": round(max(0.0, now_s
                                        - float(beat.get("wall_ts", now_s))),
                                    3),
            })

    doc: Dict = {"schema": "fleet.watch/1",
                 "spec": spec.name, "planned": len(planned),
                 "journal": str(journal.path),
                 "done": len(done), "running": running, "failed": failed,
                 "pending": pending, "missing": pending
                 + [entry["job"] for entry in failed]
                 + [entry["job"] for entry in running],
                 "eta_s": None}
    remaining = len(pending) + len(running)
    if durations and remaining:
        mean = sum(durations) / len(durations)
        doc["eta_s"] = round(mean * remaining / max(1, len(running)), 1)
    return doc


def render_status(doc: Dict) -> str:
    """Render a journal-status document as the one-screen watch block."""
    out = [f"{doc['spec']}: {doc['done']}/{doc['planned']} done, "
           f"{len(doc['running'])} running, {len(doc['failed'])} failed, "
           f"{len(doc['pending'])} pending"
           + (f", eta ~{doc['eta_s']:.0f}s"
              if doc.get("eta_s") is not None else "")]
    for entry in doc["running"]:
        out.append(f"  RUN  {entry['job'][:12]}  pid={entry['pid']}  "
                   f"sim={entry['sim_ns']}ns  events={entry['events']}  "
                   f"beat {entry['beat_age_s']:.1f}s ago")
    for entry in doc["failed"]:
        dumps = ", ".join(entry["flightrec"]) or "-"
        out.append(f"  FAIL {entry['job'][:12]}  {entry['error']}: "
                   f"{entry['message']}  [post-mortem: {dumps}]")
    return "\n".join(out)


def write_partial_report(spec: SweepSpec, store: ResultStore,
                         path) -> Dict:
    """Write a streaming partial report over the store's current state.

    Runs the very same :func:`~repro.fleet.report.merge_results` +
    renderer as the final ``fleet report`` command, so the artifact
    converges byte-identically to the final report as results land.
    Returns the merged document.
    """
    doc = merge_results(spec, store)
    write_fleet_report(path, doc)
    return doc


def watch(spec: SweepSpec, store: ResultStore,
          emit: Callable[[str], None],
          interval_s: float = 2.0, once: bool = False,
          partial_out=None, as_json: bool = False,
          sleep: Optional[Callable[[float], None]] = None,
          max_iterations: Optional[int] = None) -> Dict:
    """Follow a sweep until it settles; returns the last status document.

    Each tick re-reads the journal and store, emits the rendered status
    block (or the JSON document with ``as_json``), and — when
    ``partial_out`` is set — rewrites the streaming partial report.
    Stops when every planned job is done or failed (or immediately
    after one tick with ``once``).  ``sleep``/``max_iterations`` exist
    for tests; the CLI passes real ``time.sleep``.
    """
    import time as _time
    sleep = _time.sleep if sleep is None else sleep
    iterations = 0
    while True:
        doc = journal_status(spec, store)
        emit(json.dumps(doc, sort_keys=True) if as_json
             else render_status(doc))
        if partial_out is not None:
            write_partial_report(spec, store, partial_out)
        iterations += 1
        settled = doc["done"] + len(doc["failed"]) >= doc["planned"]
        if once or settled \
                or (max_iterations is not None
                    and iterations >= max_iterations):
            return doc
        sleep(interval_s)
