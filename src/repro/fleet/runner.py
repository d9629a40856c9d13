"""The fleet runner: execute a sweep's jobs across worker processes.

Determinism contract (pinned by ``tests/test_fleet.py``):

* every job's RNG seed derives from its config hash
  (:func:`repro.fleet.spec.derive_seed`) — never from worker identity,
  scheduling order, pids or the clock — so a job computes the same
  result whichever worker runs it, whenever;
* results land in the content-addressed store keyed by hash, so
  completion order (which *does* vary with ``--jobs``) can never leak
  into the merged output — reports read the store in sorted-hash order;
* therefore a 1-worker and an N-worker run of the same spec produce
  byte-identical stores and byte-identical merged reports.

``resume=True`` skips any job whose hash already has a stored result,
which is also what makes a killed overnight sweep restartable: rerun
the same command and only the missing configurations execute.

Liveness sits *beside* that contract, never inside it: by default each
worker also appends lifecycle events to ``<store>/journal.ndjson``
(:mod:`repro.obs.journal`) so ``python -m repro.fleet watch`` can show
in-flight progress and a crashed worker is distinguishable from a
never-started job.  The journal is wall-clock-tainted by design and
excluded from the byte-identical store diff; the *result payloads* stay
bit-identical with journaling (and ``--profile``) on or off, which
``tests/test_fleet_watch.py`` pins.

This module is one of simlint's designated wall-clock modules (SIM110):
worker lifecycle stamps are exactly the wall-clock reads the journal
exists for.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.fleet.spec import Job, SweepSpec, derive_seed
from repro.fleet.store import ResultStore
from repro.obs import journal as _journal
from repro.obs import profiler as _profiler
from repro.obs import runtime as _runtime
from repro.obs import telemetry as _telemetry


@dataclass
class RunSummary:
    """What one ``run_sweep`` invocation planned, skipped and executed."""

    planned: int = 0
    skipped: List[str] = field(default_factory=list)
    executed: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        """JSON-ready counts plus the executed/skipped hash lists."""
        return {"planned": self.planned, "executed": sorted(self.executed),
                "skipped": sorted(self.skipped)}


def _flightrec_dumps(directory: Path) -> List[str]:
    """File names of flight-recorder post-mortems in ``directory``."""
    if not directory.is_dir():
        return []
    return sorted(p.name for p in directory.glob("flightrec-*.json"))


def run_one_job(job: Job,
                journal_path: Optional[Union[str, Path]] = None,
                heartbeat_s: float = 2.0,
                profile: bool = False,
                causal: bool = False) -> Tuple[str, Dict]:
    """Execute a single planned job; the unit of work a worker runs.

    Module-level (not a closure) so it pickles under any multiprocessing
    start method.  The scenario seed comes from the job's config hash —
    simlint's SIM109 rule guards this property for every worker entry
    point in the tree.

    With ``journal_path`` set, the job's lifecycle is appended to that
    NDJSON journal: ``job_started``, throttled ``heartbeat`` /
    ``epoch_sampled`` pairs while the simulator advances (telemetry is
    armed for the duration if it wasn't already — proven bit-identical,
    so the returned result is unchanged), then ``job_completed`` — or
    ``job_failed`` with the error and any ``flightrec-*.json``
    post-mortems the failure dumped beside the journal.  ``profile=True``
    additionally profiles ``run_scenario`` with cProfile
    (:mod:`repro.obs.profiler`) and records its per-layer self seconds in
    the ``job_completed`` event.

    ``causal=True`` arms per-request causal capture
    (:mod:`repro.obs.causal`) for the duration and embeds the causal
    summary under the result's ``"causal"`` key — the payload ``fleet
    explain`` diffs.  Capture never perturbs simulated results (spans
    live outside the event queue), so every *other* result field is
    byte-identical with it on or off; the stored document differs only
    by the added key.
    """
    from repro.fleet.scenarios import run_scenario
    seed = derive_seed(job.config_hash)
    if journal_path is None and not profile and not causal:
        return job.config_hash, run_scenario(job.params, seed)

    journal = (None if journal_path is None
               else _journal.RunJournal(journal_path))
    dump_dir = (None if journal is None else journal.path.parent)
    own_telemetry = journal is not None and not _telemetry.telemetry_enabled()
    own_causal = causal and not _runtime.causal_enabled()
    profiled = _profiler.new_profile() if profile else None
    dumps_before = [] if dump_dir is None else _flightrec_dumps(dump_dir)
    try:
        if own_telemetry:
            _telemetry.enable_telemetry(dump_dir=str(dump_dir))
        if causal:
            # (re)arm per job: clears any previous job's collectors so
            # the embedded summary covers exactly this simulation
            _runtime.enable_causal()
        if journal is not None:
            _journal.begin_job(journal, job.config_hash,
                               heartbeat_s=heartbeat_s)
        try:
            if profiled is None:
                result = run_scenario(job.params, seed)
            else:
                result = profiled.runcall(run_scenario, job.params, seed)
            if causal and isinstance(result, dict):
                result = dict(result, causal=_runtime.causal_summary())
        except BaseException as error:
            if journal is not None:
                new_dumps = [name for name
                             in _flightrec_dumps(dump_dir)  # type: ignore[arg-type]
                             if name not in dumps_before]
                if not new_dumps:
                    # failure escaped outside run_process (setup code,
                    # bad params): dump the post-mortem ourselves
                    for probe in _telemetry.probes()[-1:]:
                        path = probe.on_failure(error)
                        if path:
                            new_dumps.append(Path(path).name)
                _journal.end_job("job_failed", error=type(error).__name__,
                                 message=str(error), flightrec=new_dumps)
            raise
        if journal is not None:
            facts = {key: result[key]
                     for key in ("events_processed", "sim_time_ns")
                     if isinstance(result, dict) and key in result}
            if profiled is not None:
                doc = _profiler.attribution(profiled)
                facts["profile"] = {
                    name: round(entry["seconds"], 6)
                    for name, entry in sorted(doc["layers"].items())}
            _journal.end_job("job_completed", **facts)
        return job.config_hash, result
    finally:
        if journal is not None:
            _journal.end_job("job_failed", error="Interrupted",
                             message="worker exited without a terminal event")
        if own_causal:
            _runtime.disable_causal()
        if own_telemetry:
            _telemetry.disable_telemetry()


def run_sweep(spec: SweepSpec, store: ResultStore, jobs: int = 1,
              resume: bool = True,
              progress: Optional[Callable[[str], None]] = None,
              journal: bool = True, heartbeat_s: float = 2.0,
              profile: bool = False, causal: bool = False) -> RunSummary:
    """Run every job of ``spec`` into ``store``; returns the summary.

    ``jobs=1`` executes inline in this process (no pool), in
    sorted-hash order.  ``jobs>1`` fans out over a
    ``ProcessPoolExecutor``; completion order is nondeterministic but
    harmless (see module doc).  ``resume=False`` re-executes and
    overwrites even configurations that already have results.

    ``journal=True`` (the default) streams per-job lifecycle events into
    ``<store>/journal.ndjson`` for ``watch``;
    ``heartbeat_s`` throttles the in-flight heartbeats; ``profile=True``
    profiles each job and journals its per-layer self seconds;
    ``causal=True`` embeds each job's causal latency decomposition in
    its stored result (``fleet explain``).
    None of these can perturb simulated results (see
    :func:`run_one_job`) — a causal store differs from a plain one only
    by the deterministic ``"causal"`` payload, and stays byte-identical
    across ``--jobs`` counts.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    journal_path = (_journal.journal_path_for(store.root)
                    if journal else None)
    summary = RunSummary()
    planned = sorted(spec.expand(), key=lambda job: job.config_hash)
    summary.planned = len(planned)
    pending: List[Job] = []
    for job in planned:
        if resume and store.has(job.config_hash):
            summary.skipped.append(job.config_hash)
        else:
            pending.append(job)

    def note(message: str) -> None:
        """Forward a progress line to the caller's callback, if any."""
        if progress is not None:
            progress(message)

    note(f"{spec.name}: {summary.planned} planned, "
         f"{len(summary.skipped)} cached, {len(pending)} to run "
         f"({jobs} worker{'s' if jobs != 1 else ''})")

    if jobs == 1 or len(pending) <= 1:
        for job in pending:
            job_hash, result = run_one_job(job, journal_path=journal_path,
                                           heartbeat_s=heartbeat_s,
                                           profile=profile, causal=causal)
            store.put(job_hash, job.params, result)
            summary.executed.append(job_hash)
            note(f"done {job_hash[:12]} "
                 f"({len(summary.executed)}/{len(pending)})")
        return summary

    by_hash = {job.config_hash: job for job in pending}
    with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
        futures = {pool.submit(run_one_job, job, journal_path,
                               heartbeat_s, profile, causal): job
                   for job in pending}
        for future in as_completed(futures):
            job_hash, result = future.result()
            store.put(job_hash, by_hash[job_hash].params, result)
            summary.executed.append(job_hash)
            note(f"done {job_hash[:12]} "
                 f"({len(summary.executed)}/{len(pending)})")
    return summary
