"""FIO-like workload engine running at "user level" on the host model.

This is how Amber evaluates: instead of replaying block traces inside
the storage simulator, real jobs execute on the simulated host — each
job's submission loop burns user CPU, every I/O walks the syscall/block
layer/driver path, completions arrive by interrupt.  The jobs keep
``iodepth`` requests outstanding, just like libaio FIO.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.common.recorders import BandwidthRecorder, LatencyRecorder
from repro.common.units import MB, SEC

_USER_SUBMIT = InstructionMix.typical(700)
_USER_REAP = InstructionMix.typical(400)
_SYSCALL_PAGE_HIT = InstructionMix.typical(1500)


@dataclass
class FioJob:
    """One FIO job specification (a subset of real FIO's surface)."""

    rw: str = "randread"            # read|write|randread|randwrite|randrw
    bs: int = 4096                  # block size in bytes
    iodepth: int = 1
    numjobs: int = 1
    total_ios: int = 1000           # per job; 0 = bounded by runtime only
    runtime_ns: Optional[int] = None
    direct: bool = True             # O_DIRECT (bypass the page cache)
    rwmixread: int = 70             # % reads for randrw/rw
    offset: int = 0                 # region start, bytes
    size: Optional[int] = None      # region size, bytes (None = whole device)
    seed: int = 1234
    warmup_fraction: float = 0.15   # I/Os excluded from steady-state stats

    def __post_init__(self) -> None:
        if self.bs % 512:
            raise ValueError("block size must be a sector multiple")
        if self.rw not in ("read", "write", "randread", "randwrite",
                           "randrw", "rw"):
            raise ValueError(f"unknown rw mode {self.rw!r}")
        if self.iodepth < 1 or self.numjobs < 1:
            raise ValueError("iodepth and numjobs must be >= 1")

    @property
    def is_random(self) -> bool:
        return self.rw.startswith("rand")

    def kind_for(self, rng: random.Random) -> IOKind:
        if self.rw in ("read", "randread"):
            return IOKind.READ
        if self.rw in ("write", "randwrite"):
            return IOKind.WRITE
        return IOKind.READ if rng.randrange(100) < self.rwmixread \
            else IOKind.WRITE


from repro.core.metrics import FioResult  # noqa: E402  (dataclass import order)


class FioEngine:
    """Executes FIO jobs against a wired-up FullSystem."""

    def __init__(self, system) -> None:
        self.system = system

    def run(self, job: FioJob) -> FioResult:
        system = self.system
        sim = system.sim
        region_bytes = job.size or (system.device_sectors * 512 - job.offset)
        sectors_per_block = job.bs // 512
        n_blocks = region_bytes // job.bs
        if n_blocks < 1:
            raise ValueError("I/O region smaller than one block")

        latency = LatencyRecorder()
        device_latency = LatencyRecorder()
        bandwidth = BandwidthRecorder()
        read_bw = BandwidthRecorder()
        write_bw = BandwidthRecorder()
        state = {"completed": 0, "bytes": 0, "staged": 0}
        # running ns sums per stage over the "staged" timed I/Os, so
        # memory stays constant however many I/Os complete
        stages = {"kernel_submit": 0, "interface": 0, "device": 0,
                  "completion": 0}
        warmup_ios = int(job.total_ios * job.numjobs * job.warmup_fraction)

        def one_job(job_index: int):
            rng = random.Random(job.seed + 7919 * job_index)
            outstanding = 0
            issued = 0
            next_seq = (job_index * n_blocks // max(1, job.numjobs))
            done_event = [None]
            deadline = (sim.now + job.runtime_ns) if job.runtime_ns else None

            def on_complete(req, t_submit):
                # capture the issue-time size: the block layer may merge
                # other requests into this one, growing req.nsectors
                nbytes = req.nbytes

                def _cb(_event):
                    nonlocal outstanding
                    outstanding -= 1
                    state["completed"] += 1
                    state["bytes"] += nbytes
                    if state["completed"] > warmup_ios:
                        latency.record(sim.now - t_submit)
                        if req.t_device >= 0 and req.t_backend_done >= 0:
                            device_latency.record(req.device_latency())
                        if (req.t_driver >= 0 and req.t_device >= 0
                                and req.t_backend_done >= 0):
                            stages["kernel_submit"] += \
                                req.t_driver - t_submit
                            stages["interface"] += \
                                req.t_device - req.t_driver
                            stages["device"] += \
                                req.t_backend_done - req.t_device
                            stages["completion"] += \
                                sim.now - req.t_backend_done
                            state["staged"] += 1
                        bandwidth.record(nbytes, sim.now)
                        (read_bw if req.kind.is_read else write_bw).record(
                            nbytes, sim.now)
                    if done_event[0] is not None:
                        event, done_event[0] = done_event[0], None
                        event.succeed()
                return _cb

            while True:
                if job.total_ios and issued >= job.total_ios:
                    break
                if deadline is not None and sim.now >= deadline:
                    break
                if outstanding >= job.iodepth:
                    done_event[0] = sim.event()
                    yield done_event[0]
                    continue
                # pick the target block
                if job.is_random:
                    block = rng.randrange(n_blocks)
                else:
                    block = next_seq % n_blocks
                    next_seq += 1
                kind = job.kind_for(rng)
                slba = (job.offset // 512) + block * sectors_per_block
                data = None
                if system.data_emulation and kind == IOKind.WRITE:
                    data = system.pattern_data(slba, sectors_per_block,
                                               job.seed)
                req = IORequest(kind, slba, sectors_per_block, data=data)
                req.queue_id = job_index
                # user-space issue loop cost
                yield from system.cpu.execute(_USER_SUBMIT,
                                              core=job_index, kernel=False)
                req.t_submit = sim.now
                completion = yield from system.submit_io(
                    req, stream_id=job_index, core=job_index,
                    direct=job.direct)
                completion.add_callback(on_complete(req, req.t_submit))
                outstanding += 1
                issued += 1
                yield from system.cpu.execute(_USER_REAP,
                                              core=job_index, kernel=False)

            while outstanding > 0:
                done_event[0] = sim.event()
                yield done_event[0]

        start_ns = sim.now
        # FIO's buffers: iodepth * bs per job, registered with the ledger
        buf_bytes = job.numjobs * job.iodepth * job.bs + 16 * MB
        system.memory.allocate("fio", buf_bytes)
        procs = [sim.process(one_job(j)) for j in range(job.numjobs)]

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
            from repro.common.units import MB as _MB
            steady_mbps = (state["bytes"] / _MB) / (elapsed / SEC)

        staged = state["staged"]
        breakdown = {name: (total / staged if staged else 0.0)
                     for name, total in stages.items()}

        result = FioResult(
            bandwidth_mbps=steady_mbps,
            stage_breakdown=breakdown,
            read_bandwidth_mbps=read_bw.mbps(),
            write_bandwidth_mbps=write_bw.mbps(),
            iops=state["completed"] / (elapsed / SEC) if elapsed else 0.0,
            total_ios=state["completed"],
            total_bytes=state["bytes"],
            elapsed_ns=elapsed,
            latency=latency,
            device_latency=device_latency,
            host_kernel_utilization=system.cpu.kernel_utilization(),
            host_memory_used=system.memory.used_bytes,
            memory_timeline=system.memory.usage_timeline(),
            ssd_power=system.ssd.power_report(),
            ssd_instructions=system.ssd.instruction_report(),
            ssd_stats=system.ssd.stats_report(),
        )
        return result
