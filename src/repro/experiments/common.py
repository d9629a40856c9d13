"""Shared experiment plumbing."""

from __future__ import annotations

import random
from typing import Optional

from repro.common.iorequest import IOKind
from repro.core import presets
from repro.core.fio import FioJob
from repro.core.system import FullSystem
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand
from repro.workloads.synthetic import PATTERN_RW

FULL_DEPTHS = [1, 2, 4, 8, 16, 24, 32]
QUICK_DEPTHS = [1, 4, 16, 32]

#: which interface each validated device uses
DEVICE_INTERFACES = {
    "intel750": "nvme",
    "850pro": "sata",
    "zssd": "nvme",
    "983dct": "nvme",
}


def build_system(device_name: str, interface: Optional[str] = None,
                 **kwargs) -> FullSystem:
    device = presets.by_name(device_name)
    interface = interface or DEVICE_INTERFACES[device_name]
    system = FullSystem(device=device, interface=interface, **kwargs)
    system.precondition()
    if system.sim.tracer.enabled:
        system.sim.tracer.label = f"{device_name}/{interface}"
    return system


def run_pattern(system: FullSystem, pattern: str, depth: int, bs: int = 4096,
                total_ios: int = 1000, seed: int = 21):
    job = FioJob(rw=PATTERN_RW[pattern], bs=bs, iodepth=depth,
                 total_ios=total_ios, seed=seed)
    result = system.run_fio(job)
    tracer = system.sim.tracer
    if tracer.enabled:
        # label the system's spans and metric snapshot with the workload
        base = tracer.label or system.interface
        tracer.label = f"{base} {pattern} qd{depth} bs{bs}"
    return result


def standalone_random_reads(ssd: SSD, n_ios: int, depth: int, seed: int,
                            bs: int = 4096) -> int:
    """Closed-loop random reads straight at a bare ``SSD`` (no host).

    ``depth`` slots share one ``random.Random(seed)``; each reads ``bs``
    bytes at a random aligned LBA, then issues its next read.  A slot
    checks the *completed* count before issuing, so the reads still in
    flight when ``n_ios`` complete also run: up to ``depth - 1`` extra
    reads (515 for ``n_ios=500`` at depth 16 on intel750), as
    :class:`~repro.baselines.replay.ClosedLoopReplayer` does.  Returns
    the number of reads completed.
    """
    sim = ssd.sim
    rng = random.Random(seed)
    sectors = bs // 512
    region = ssd.config.logical_sectors - sectors
    state = {"done": 0}

    def slot():
        while state["done"] < n_ios:
            slba = rng.randrange(region // sectors) * sectors
            yield ssd.submit(DeviceCommand(IOKind.READ, slba, sectors))
            state["done"] += 1

    procs = [sim.process(slot()) for _ in range(depth)]

    def waiter():
        for proc in procs:
            yield proc

    sim.run_process(waiter())
    return state["done"]
