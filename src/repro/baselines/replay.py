"""Closed-loop block-trace replay harness for baseline simulators.

The paper evaluates prior simulators the only way they support: by
replaying 4 KB block traces extracted from FIO at a given I/O depth.
This harness keeps ``iodepth`` requests outstanding against a model's
``service`` process and reports steady-state bandwidth and latency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.iorequest import IOKind, IORequest
from repro.common.recorders import BandwidthRecorder, LatencyRecorder
from repro.common.units import SEC
from repro.sim import Simulator


@dataclass
class ReplayResult:
    bandwidth_mbps: float
    mean_latency_us: float
    iops: float
    events_processed: int
    wall_seconds: float = 0.0


class ClosedLoopReplayer:
    def __init__(self, model, region_sectors: int = 1 << 22) -> None:
        self.model = model
        self.region_sectors = region_sectors

    def run(self, pattern: str, bs: int, iodepth: int,
            n_ios: int = 1000, seed: int = 99) -> ReplayResult:
        """``pattern``: seqread | randread | seqwrite | randwrite."""
        import time as _time
        sim = self.model.sim = Simulator()
        self.model.reset(sim)
        rng = random.Random(seed)
        sectors = bs // 512
        n_blocks = max(1, self.region_sectors // sectors)
        latency = LatencyRecorder()
        bandwidth = BandwidthRecorder()
        state = {"done": 0, "next_seq": 0}
        is_read = pattern.endswith("read")
        is_random = pattern.startswith("rand")

        def one_slot():
            while state["done"] < n_ios:
                if is_random:
                    block = rng.randrange(n_blocks)
                else:
                    block = state["next_seq"] % n_blocks
                    state["next_seq"] += 1
                req = IORequest(IOKind.READ if is_read else IOKind.WRITE,
                                block * sectors, sectors)
                start = sim.now
                yield sim.process(self.model.service(req))
                state["done"] += 1
                if state["done"] > n_ios // 10:  # warmup skip
                    latency.record(sim.now - start)
                    bandwidth.record(req.nbytes, sim.now)

        wall0 = _time.perf_counter()
        procs = [sim.process(one_slot()) for _ in range(iodepth)]

        def waiter():
            for proc in procs:
                yield proc

        sim.run_process(waiter())
        wall = _time.perf_counter() - wall0
        elapsed = sim.now
        return ReplayResult(
            bandwidth_mbps=bandwidth.mbps(),
            mean_latency_us=latency.mean_us(),
            iops=state["done"] / (elapsed / SEC) if elapsed else 0.0,
            events_processed=sim.events_processed,
            wall_seconds=wall,
        )
