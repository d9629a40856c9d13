"""The four fixed-work workloads of the benchmark suite.

Every workload is a closed loop with a fixed amount of work, so a run
measures how long the simulator takes to do it.  Each one is split into
``build`` (constructing the system, timed as set-up), ``prepare``
(preconditioning, also set-up) and ``drive`` (the measured phase).  The
seed reaches the program only as generated inputs: ``FioJob.seed`` for
the three full-system workloads and the delay pattern of the kernel
churn.  Modelled caches start empty, as in every repro experiment.

Why these four (working sets are stated against the caches they stress):

* ``randread_qd16`` is the paper's Fig 16 point.  The working set is the
  whole 1.5 GiB device, 3x the 512 MiB ICL, so the ICL fills after
  ~7 000 of the 8 000 reads and then evicts clean lines; no writes, no
  GC, no page cache.
* ``randwrite_gc`` random-writes a small 10 %-OP device for half its
  logical capacity: GC and ICL dirty eviction dominate (~470 GC runs).
* ``mixed_buffered`` is the only workload through the host page cache:
  a 256 MiB region against a 16 MiB cache, 70/30 reads/writes, so
  writebacks land as dirty ICL lines beside the device reads.
* ``kernel_mix`` runs the event kernel alone, bypassing every model
  layer: the no-change prediction for any SSD or host optimisation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

DEFAULT_SEED = 1234

#: pages on a 16 MiB page cache and region of the buffered workload
PAGE_CACHE_BYTES = 16 << 20
BUFFERED_REGION_BYTES = 256 << 20

#: the kernel churn's fixed process count; its size is rounds per worker
CHURN_WORKERS = 160


@dataclass
class Outcome:
    """What one measured phase produced.

    ``simulated`` holds every field the digest covers; ``counters`` are
    the model's public statistics, reported as per-layer metrics.
    """

    simulated: Dict
    requested: int
    completed: int
    counters: Dict[str, float]
    model_err: Optional[float] = None

    @property
    def digest(self) -> str:
        """sha256 over the canonical JSON of the simulated results."""
        text = json.dumps(self.simulated, sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """One fixed-work workload: how to build, prepare and drive it.

    A repeat times ``setups`` set-ups before the measured phase and
    drives the last.
    """

    name: str
    loop: str
    size: int
    setups: int
    build: Callable[[int, int], object]
    prepare: Callable[[object], None]
    drive: Callable[[object, int, int], Outcome]
    invariants: Callable[[Outcome], List[str]]


# -- model counters -------------------------------------------------------------

COUNTER_NAMES = (
    "sim.events", "hostos.pagecache.hit_rate", "hostos.pagecache.writebacks",
    "ssd.icl.hit_rate", "ssd.icl.writes_absorbed", "ssd.icl.lines_flushed",
    "ssd.ftl.waf", "ssd.ftl.gc_runs", "ssd.ftl.gc_pages_migrated",
    "ssd.flash.reads", "ssd.flash.programs", "ssd.flash.erases",
    "ssd.flash.read_retries",
)


def _system_counters(system) -> Dict[str, float]:
    """The deterministic model counters, read from public statistics."""
    cache, icl = system.pagecache, system.ssd.icl
    ftl, backend = system.ssd.ftl, system.ssd.backend
    return {
        "sim.events": system.sim.events_processed,
        "hostos.pagecache.hit_rate": cache.hit_rate(),
        "hostos.pagecache.writebacks": cache.writebacks,
        "ssd.icl.hit_rate": icl.hit_rate(),
        "ssd.icl.writes_absorbed": icl.writes_absorbed,
        "ssd.icl.lines_flushed": icl.lines_flushed,
        "ssd.ftl.waf": ftl.write_amplification(),
        "ssd.ftl.gc_runs": ftl.gc_runs,
        "ssd.ftl.gc_pages_migrated": ftl.gc_pages_migrated,
        "ssd.flash.reads": backend.reads_issued,
        "ssd.flash.programs": backend.programs_issued,
        "ssd.flash.erases": backend.erases_issued,
        "ssd.flash.read_retries": backend.read_retries,
    }


# -- the full-system workloads ----------------------------------------------------

def _intel750(_seed: int, _size: int):
    from repro.core import presets
    from repro.core.system import FullSystem
    return FullSystem(device=presets.intel750(), interface="nvme")


def _intel750_buffered(_seed: int, _size: int):
    from repro.core import presets
    from repro.core.system import FullSystem
    return FullSystem(device=presets.intel750(), interface="nvme",
                      page_cache_bytes=PAGE_CACHE_BYTES)


def _storm(_seed: int, _size: int):
    """``bench-storm``: 2 channels, 10 % over-provisioning, 128-line ICL,
    the device of ``benchmarks.perf``'s ``write_storm_gc``."""
    from repro.bench.scenarios import _storm_config
    from repro.core.system import FullSystem
    return FullSystem(device=_storm_config(), interface="nvme")


def _precondition(system) -> None:
    system.precondition()


def _fio_outcome(system, job) -> Outcome:
    result = system.run_fio(job)
    p50, p99 = result.latency.histogram.percentiles([50, 99])
    cache = system.pagecache
    simulated = {
        "events": system.sim.events_processed,
        "sim_ns": system.sim.now,
        "completed": result.total_ios,
        "latency_p50_ns": p50,
        "latency_p99_ns": p99,
        "ssd": result.ssd_stats,
        "pagecache": {"hits": cache.hits, "misses": cache.misses},
    }
    return Outcome(simulated, requested=job.total_ios,
                   completed=result.total_ios,
                   counters=_system_counters(system),
                   model_err=_model_err(job, result.bandwidth_mbps))


def _model_err(job, bandwidth_mbps: float) -> Optional[float]:
    """Fig 8's error against the digitized intel750 randread curve."""
    if job.rw != "randread":
        return None
    from repro.baselines.reference import error_rate, reference_at
    return error_rate(reference_at("intel750", "randread", job.iodepth),
                      bandwidth_mbps)


def _drive_randread(system, seed: int, size: int) -> Outcome:
    from repro.core.fio import FioJob
    return _fio_outcome(system, FioJob(rw="randread", bs=4096, iodepth=16,
                                       total_ios=size, seed=seed))


def _drive_randwrite(system, seed: int, size: int) -> Outcome:
    from repro.core.fio import FioJob
    return _fio_outcome(system, FioJob(rw="randwrite", bs=4096, iodepth=16,
                                       total_ios=size, seed=seed))


def _drive_mixed(system, seed: int, size: int) -> Outcome:
    from repro.core.fio import FioJob
    return _fio_outcome(system, FioJob(
        rw="randrw", rwmixread=70, bs=4096, iodepth=16, total_ios=size,
        direct=False, size=BUFFERED_REGION_BYTES, seed=seed))


# -- the kernel-only workload -------------------------------------------------------

class _Churn:
    """A built churn simulation: processes spawned, nothing run yet."""

    def __init__(self, sim, drained: List[int], requested: int) -> None:
        self.sim = sim
        self.drained = drained
        self.requested = requested


def _churn_build(seed: int, rounds: int) -> _Churn:
    """Spawn the churn processes; the seed picks the delay pattern."""
    from repro.sim import AllOf, AnyOf, Resource, Simulator, Store
    rng = random.Random(seed)
    stride_worker, stride_round = rng.randrange(1, 97), rng.randrange(1, 97)
    sim = Simulator()
    gate = Resource(sim, capacity=4)
    mailbox = Store(sim)
    drained = [0]

    def worker(index: int):
        for round_no in range(rounds):
            yield sim.timeout(
                (index * stride_worker + round_no * stride_round) % 97 + 1)
            yield gate.acquire()
            try:
                yield sim.timeout(11)
            finally:
                gate.release()
            mailbox.put((index, round_no))
            yield AllOf(sim, [sim.timeout(3), sim.timeout(5)])
            yield AnyOf(sim, [sim.timeout(2), sim.timeout(9)])

    def drain(total: int):
        for _ in range(total):
            yield mailbox.get()
            drained[0] += 1

    for index in range(CHURN_WORKERS):
        sim.process(worker(index))
    sim.process(drain(CHURN_WORKERS * rounds))
    return _Churn(sim, drained, CHURN_WORKERS * rounds)


def _no_prepare(_state) -> None:
    return None


def _churn_drive(churn: _Churn, _seed: int, _size: int) -> Outcome:
    sim = churn.sim
    sim.run()
    simulated = {"events": sim.events_processed, "sim_ns": sim.now,
                 "completed": churn.drained[0]}
    counters = dict.fromkeys(COUNTER_NAMES, 0)
    counters["sim.events"] = sim.events_processed
    return Outcome(simulated, requested=churn.requested,
                   completed=churn.drained[0], counters=counters)


# -- invariants ---------------------------------------------------------------------

def _all_complete(outcome: Outcome) -> List[str]:
    if outcome.completed != outcome.requested:
        return [f"{outcome.completed} of {outcome.requested} "
                "requests completed"]
    return []


def _read_only(outcome: Outcome) -> List[str]:
    problems = _all_complete(outcome)
    if outcome.counters["ssd.flash.programs"] != 0:
        problems.append("a read-only workload programmed flash")
    return problems


def _gc_active(outcome: Outcome) -> List[str]:
    problems = _all_complete(outcome)
    if outcome.counters["ssd.ftl.gc_runs"] <= 0:
        problems.append("garbage collection never ran")
    if outcome.counters["ssd.ftl.waf"] <= 1.0:
        problems.append("write amplification is not above 1")
    return problems


def _writes_back(outcome: Outcome) -> List[str]:
    problems = _all_complete(outcome)
    if outcome.counters["hostos.pagecache.writebacks"] <= 0:
        problems.append("the page cache wrote nothing back")
    return problems


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (
        Workload(
            "randread_qd16",
            "closed loop, 1 FIO job at iodepth 16, O_DIRECT; 8 000 4 KiB "
            "random reads over the whole 1.5 GiB intel750",
            size=8_000, setups=1, build=_intel750, prepare=_precondition,
            drive=_drive_randread, invariants=_read_only),
        Workload(
            "randwrite_gc",
            "closed loop, 1 FIO job at iodepth 16, O_DIRECT; 1 842 4 KiB "
            "random writes, half the logical capacity of bench-storm",
            size=1_842, setups=20, build=_storm, prepare=_precondition,
            drive=_drive_randwrite, invariants=_gc_active),
        Workload(
            "mixed_buffered",
            "closed loop, 1 FIO job at iodepth 16, buffered; 5 000 4 KiB "
            "70/30 random reads/writes over 256 MiB",
            size=5_000, setups=1, build=_intel750_buffered,
            prepare=_precondition, drive=_drive_mixed,
            invariants=_writes_back),
        Workload(
            "kernel_mix",
            "closed loop, 160 churn processes x 700 rounds, kernel only",
            size=700, setups=200, build=_churn_build, prepare=_no_prepare,
            drive=_churn_drive, invariants=_all_complete),
    )
}
