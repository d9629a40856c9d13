"""FIO-like workload engine running at "user level" on the host model.

This is how Amber evaluates: instead of replaying block traces inside
the storage simulator, real jobs execute on the simulated host — each
job's submission loop burns user CPU, every I/O walks the syscall/block
layer/driver path, completions arrive by interrupt.  The jobs keep
``iodepth`` requests outstanding, just like libaio FIO.

That submission loop is :class:`IssueStream`: FIO runs one per job
(``numjobs``) and the multi-tenant engine (:mod:`repro.core.tenants`)
one per tenant, so both initiators pay the same user-level costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.common.recorders import BandwidthRecorder, LatencyRecorder
from repro.common.units import MB, SEC
from repro.core.metrics import FioResult

#: user-space instructions per submit and per reap of the issue loop
USER_SUBMIT = InstructionMix.typical(700)
USER_REAP = InstructionMix.typical(400)

#: the access patterns a job or tenant may ask for
RW_MODES = ("read", "write", "randread", "randwrite", "randrw")


class Traffic:
    """The request stream a FIO job and a tenant share: the ``rw``
    pattern, ``bs`` bytes per request, ``iodepth``, ``total_ios`` and
    the ``rwmixread`` share of reads for ``randrw``."""

    rw: str
    bs: int
    iodepth: int
    total_ios: int
    rwmixread: int

    def check_traffic(self) -> None:
        """Reject a stream shape the issue loop cannot run."""
        if self.bs <= 0 or self.bs % 512:
            raise ValueError("block size must be a positive sector multiple")
        if self.rw not in RW_MODES:
            raise ValueError(f"unknown rw mode {self.rw!r}")
        if self.iodepth < 1:
            raise ValueError("iodepth must be >= 1")
        if self.total_ios < 0:
            raise ValueError("total_ios must be >= 0")

    @property
    def is_random(self) -> bool:
        """True for randomly-addressed modes."""
        return self.rw.startswith("rand")

    def kind_for(self, rng: random.Random) -> IOKind:
        """Draw the next request's direction."""
        if self.rw in ("read", "randread"):
            return IOKind.READ
        if self.rw in ("write", "randwrite"):
            return IOKind.WRITE
        return IOKind.READ if rng.randrange(100) < self.rwmixread \
            else IOKind.WRITE


@dataclass
class FioJob(Traffic):
    """One FIO job specification (a subset of real FIO's surface)."""

    rw: str = "randread"            # read|write|randread|randwrite|randrw
    bs: int = 4096                  # block size in bytes
    iodepth: int = 1
    numjobs: int = 1
    total_ios: int = 1000           # per job; 0 = bounded by runtime only
    runtime_ns: Optional[int] = None
    direct: bool = True             # O_DIRECT (bypass the page cache)
    rwmixread: int = 70             # % reads for randrw
    size: Optional[int] = None      # region size, bytes (None = whole device)
    seed: int = 1234
    warmup_fraction: float = 0.15   # I/Os excluded from steady-state stats

    def __post_init__(self) -> None:
        self.check_traffic()
        if self.numjobs < 1:
            raise ValueError("numjobs must be >= 1")
        if not self.total_ios and not self.runtime_ns:
            raise ValueError("a job without total_ios needs a runtime_ns")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")


@dataclass(eq=False)
class IssueStream:
    """One user-level submission loop on the simulated host.

    Each request pays the user submit mix, the syscall path
    (:meth:`FullSystem.submit_io`) and the user reap mix.  A closed-loop
    stream keeps ``iodepth`` requests outstanding; an open-loop one
    (``arrival``) issues at the arrival process's times whatever is
    queued.  The stream stops at ``total_ios`` or at ``deadline``, then
    drains.  Each completion lowers :attr:`outstanding`, goes to
    ``account(req, t_submit, nbytes)`` and then wakes the loop if it
    waits.  Each request draws from ``rng`` first its block (``zipf``
    if given, else uniform for random modes; sequential modes walk from
    ``next_block``), then its direction.
    """

    system: Any
    traffic: Traffic
    index: int                      # queue, stream and host core
    n_blocks: int
    rng: random.Random
    account: Callable[[IORequest, int, int], None]
    data_seed: int                  # pattern_data seed for writes
    deadline: Optional[int] = None
    next_block: int = 0
    direct: bool = True
    nsid: int = 0
    zipf: Any = None
    arrival: Any = None
    #: live counters (the ``tenantN.*`` gauges read them)
    issued: int = field(default=0, init=False)
    outstanding: int = field(default=0, init=False)
    _waiter: Any = field(default=None, init=False, repr=False)

    def loop(self):
        """Process generator: issue until the bound, then drain."""
        system = self.system
        sim = system.sim
        traffic = self.traffic
        rng = self.rng
        index = self.index
        sectors = traffic.bs // 512
        deadline = self.deadline
        arrival = self.arrival
        while True:
            if traffic.total_ios and self.issued >= traffic.total_ios:
                break
            if deadline is not None and sim.now >= deadline:
                break
            if arrival is not None:
                # open loop: next arrival fires no matter what is queued
                yield sim.timeout(arrival.next_gap_ns(rng, sim.now))
                if deadline is not None and sim.now >= deadline:
                    break
            elif self.outstanding >= traffic.iodepth:
                yield self._wait()
                continue
            if self.zipf is not None:
                block = self.zipf.item(rng)
            elif traffic.is_random:
                block = rng.randrange(self.n_blocks)
            else:
                block = self.next_block % self.n_blocks
                self.next_block += 1
            kind = traffic.kind_for(rng)
            slba = block * sectors
            data = None
            if system.data_emulation and kind == IOKind.WRITE:
                data = system.pattern_data(slba, sectors, self.data_seed)
            req = IORequest(kind, slba, sectors, data=data, nsid=self.nsid)
            req.queue_id = index
            yield from system.cpu.execute(USER_SUBMIT, core=index,
                                          kernel=False)
            t_submit = sim.now
            completion = yield from system.submit_io(
                req, stream_id=index, core=index, direct=self.direct)
            completion.add_callback(self._on_complete(req, t_submit))
            self.outstanding += 1
            self.issued += 1
            yield from system.cpu.execute(USER_REAP, core=index,
                                          kernel=False)

        while self.outstanding > 0:
            yield self._wait()

    def _wait(self):
        """The event the next completion fires."""
        self._waiter = self.system.sim.event()
        return self._waiter

    def _on_complete(self, req: IORequest, t_submit: int):
        """Completion callback factory; freezes the issue-time size (the
        block layer may merge other requests into this one, growing
        ``req.nsectors``)."""
        nbytes = req.nbytes

        def _cb(_event):
            """Account one completion, then wake the loop if it waits."""
            self.outstanding -= 1
            self.account(req, t_submit, nbytes)
            waiter = self._waiter
            if waiter is not None:
                self._waiter = None
                waiter.succeed()
        return _cb


class FioEngine:
    """Executes FIO jobs against a wired-up FullSystem."""

    def __init__(self, system) -> None:
        self.system = system

    def run(self, job: FioJob) -> FioResult:
        system = self.system
        sim = system.sim
        region_bytes = job.size or system.device_sectors * 512
        n_blocks = region_bytes // job.bs
        if n_blocks < 1:
            raise ValueError("I/O region smaller than one block")

        latency = LatencyRecorder()
        bandwidth = BandwidthRecorder()
        read_bw = BandwidthRecorder()
        write_bw = BandwidthRecorder()
        state = {"completed": 0, "bytes": 0}
        warmup_ios = int(job.total_ios * job.numjobs * job.warmup_fraction)

        def account(req: IORequest, t_submit: int, nbytes: int) -> None:
            """Count one completion; past the warm-up, time it and add
            it to the bandwidth recorders."""
            state["completed"] += 1
            state["bytes"] += nbytes
            if state["completed"] > warmup_ios:
                latency.record(sim.now - t_submit)
                bandwidth.record(nbytes, sim.now)
                (read_bw if req.kind.is_read else write_bw).record(
                    nbytes, sim.now)

        start_ns = sim.now
        deadline = (start_ns + job.runtime_ns) if job.runtime_ns else None
        # FIO's buffers: iodepth * bs per job, registered with the ledger
        buf_bytes = job.numjobs * job.iodepth * job.bs + 16 * MB
        system.memory.allocate("fio", buf_bytes)
        # job j walks sequential blocks from its own stripe of the region
        procs = [sim.process(IssueStream(
            system, job, j, n_blocks, random.Random(job.seed + 7919 * j),
            account, data_seed=job.seed, deadline=deadline,
            next_block=j * n_blocks // job.numjobs,
            direct=job.direct).loop()) for j in range(job.numjobs)]

        def waiter():
            for proc in procs:
                yield proc

        sim.run_process(waiter())
        system.memory.free("fio")
        elapsed = sim.now - start_ns

        # the windowed recorder needs enough samples to be meaningful;
        # short runs (big-block sweeps) fall back to a gross estimate
        steady_mbps = bandwidth.mbps()
        if latency.count < 100 and elapsed > 0:
            steady_mbps = (state["bytes"] / MB) / (elapsed / SEC)

        return FioResult(
            bandwidth_mbps=steady_mbps,
            read_bandwidth_mbps=read_bw.mbps(),
            write_bandwidth_mbps=write_bw.mbps(),
            iops=state["completed"] / (elapsed / SEC) if elapsed else 0.0,
            total_ios=state["completed"],
            total_bytes=state["bytes"],
            elapsed_ns=elapsed,
            latency=latency,
            host_kernel_utilization=system.cpu.kernel_utilization(),
            ssd_power=system.ssd.power_report(),
            ssd_instructions=system.ssd.instruction_report(),
            ssd_stats=system.ssd.stats_report(),
        )
