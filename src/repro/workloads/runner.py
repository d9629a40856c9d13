"""Executes enterprise workloads at user level on a FullSystem.

Mirrors the FIO engine's closed loop, but draws requests from a
Table III generator instead of a fixed pattern.
"""

from __future__ import annotations

from repro.common.iorequest import IOKind
from repro.common.recorders import BandwidthRecorder, LatencyRecorder
from repro.common.units import SEC
from repro.core.fio import USER_SUBMIT
from repro.core.metrics import FioResult
from repro.workloads.enterprise import EnterpriseGenerator, WorkloadSpec


class EnterpriseRunner:
    def __init__(self, system, spec: WorkloadSpec, concurrency: int = 16,
                 seed: int = 11) -> None:
        self.system = system
        self.spec = spec
        self.concurrency = concurrency
        self.seed = seed

    def run(self, total_ios: int = 1500) -> FioResult:
        system = self.system
        sim = system.sim
        generator = EnterpriseGenerator(self.spec, system.device_sectors,
                                        seed=self.seed)
        latency = LatencyRecorder()
        bandwidth = BandwidthRecorder()
        read_bw = BandwidthRecorder()
        write_bw = BandwidthRecorder()
        state = {"done": 0, "issued": 0, "bytes": 0}
        warmup = total_ios // 10

        def worker(index: int):
            while state["issued"] < total_ios:
                state["issued"] += 1
                req = generator.next_request()
                if system.data_emulation and req.kind == IOKind.WRITE:
                    req.data = system.pattern_data(req.slba, req.nsectors,
                                                   self.seed)
                req.queue_id = index
                nbytes = req.nbytes   # merging may grow req.nsectors later
                yield from system.cpu.execute(USER_SUBMIT, core=index,
                                              kernel=False)
                t_submit = sim.now
                event = yield from system.submit_io(req, stream_id=index,
                                                    core=index)
                yield event
                state["done"] += 1
                state["bytes"] += nbytes
                if state["done"] > warmup:
                    latency.record(sim.now - t_submit)
                    bandwidth.record(nbytes, sim.now)
                    (read_bw if req.kind.is_read else write_bw).record(
                        nbytes, sim.now)

        start = sim.now
        procs = [sim.process(worker(i)) for i in range(self.concurrency)]

        def waiter():
            for proc in procs:
                yield proc

        sim.run_process(waiter())
        elapsed = sim.now - start
        return FioResult(
            bandwidth_mbps=bandwidth.mbps(),
            read_bandwidth_mbps=read_bw.mbps(),
            write_bandwidth_mbps=write_bw.mbps(),
            iops=state["done"] / (elapsed / SEC) if elapsed else 0.0,
            total_ios=state["done"],
            total_bytes=state["bytes"],
            elapsed_ns=elapsed,
            latency=latency,
            host_kernel_utilization=system.cpu.kernel_utilization(),
            ssd_power=system.ssd.power_report(),
            ssd_instructions=system.ssd.instruction_report(),
            ssd_stats=system.ssd.stats_report(),
        )
