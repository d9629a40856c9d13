"""The pinned benchmark scenarios.

Three calibrated workloads, smallest to largest:

* ``kernel_churn`` — the discrete-event kernel alone: processes trading
  timeouts, semaphores, stores and ``AllOf``/``AnyOf`` fan-ins, with no
  SSD model attached.  Measures raw events/second.
* ``randread_nvme`` — the paper's Figure 16 macro point: 4 KB random
  reads at queue depth 16 through the full system (syscall → block
  layer → NVMe driver → PCIe DMA → HIL/ICL/FTL/FIL → flash).
* ``write_storm_gc`` — a small low-overprovision device random-written
  past its capacity so garbage collection runs hot; exercises the
  allocator, GC victim selection and erase/migration paths.

Every scenario is deterministic: the same profile always produces the
same ``events`` and ``sim_ns``, which the golden tests pin.  Only
``wall_seconds`` varies run to run.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict

from repro.common.units import KB
from repro.sim import AllOf, AnyOf, Resource, Simulator, Store


@dataclass
class ScenarioResult:
    """One scenario run: wall-clock speed plus deterministic facts."""

    name: str
    profile: str
    wall_seconds: float
    events: int
    sim_ns: int
    extra: Dict[str, float]

    @property
    def events_per_sec(self) -> float:
        """Processed events per wall-clock second (headline speed)."""
        return self.events / self.wall_seconds if self.wall_seconds else 0.0

    def to_dict(self) -> Dict:
        out = asdict(self)
        out["events_per_sec"] = round(self.events_per_sec, 1)
        return out


# -- micro: kernel-only churn --------------------------------------------------

def kernel_churn(profile: str = "full") -> ScenarioResult:
    """Pure simulation-kernel stress: no SSD model, just event traffic."""
    n_workers, n_rounds = {"smoke": (16, 60), "full": (64, 400)}[profile]
    sim = Simulator()
    gate = Resource(sim, capacity=4)
    mailbox = Store(sim)

    def worker(index: int):
        for round_no in range(n_rounds):
            yield sim.timeout((index * 7 + round_no * 13) % 97 + 1)
            yield gate.acquire()
            try:
                yield sim.timeout(11)
            finally:
                gate.release()
            mailbox.put((index, round_no))
            # composite waits: a fan-in over fresh timeouts each round
            pair = [sim.timeout(3), sim.timeout(5)]
            yield AllOf(sim, pair)
            yield AnyOf(sim, [sim.timeout(2), sim.timeout(9)])

    def drain(total: int):
        for _ in range(total):
            yield mailbox.get()

    for i in range(n_workers):
        sim.process(worker(i))
    sim.process(drain(n_workers * n_rounds))

    wall0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - wall0
    return ScenarioResult("kernel_churn", profile, wall,
                          sim.events_processed, sim.now, {})


# -- macro: 4K random read over NVMe ------------------------------------------

def randread_nvme(profile: str = "full") -> ScenarioResult:
    """Figure 16's full-system point: 4K randread qd16 on intel750/NVMe."""
    from repro.core import presets
    from repro.core.fio import FioJob
    from repro.core.system import FullSystem

    n_ios = {"smoke": 300, "full": 3000}[profile]
    system = FullSystem(device=presets.intel750(), interface="nvme")
    system.precondition()
    wall0 = time.perf_counter()
    res = system.run_fio(FioJob(rw="randread", bs=4096, iodepth=16,
                                total_ios=n_ios))
    wall = time.perf_counter() - wall0
    return ScenarioResult(
        "randread_nvme", profile, wall,
        system.sim.events_processed, system.sim.now,
        {"iops": round(res.iops, 1),
         "bandwidth_mbps": round(res.bandwidth_mbps, 3),
         "n_ios": n_ios})


# -- macro: GC-heavy write storm ----------------------------------------------

def _storm_config():
    """A small 10%-OP device so a short run drives GC hard."""
    from repro.ssd.config import (
        CacheConfig,
        CoreConfig,
        DramConfig,
        FlashGeometry,
        FlashTiming,
        FTLConfig,
        SSDConfig,
    )
    return SSDConfig(
        name="bench-storm",
        geometry=FlashGeometry(
            channels=2, packages_per_channel=1, dies_per_package=1,
            planes_per_die=2, blocks_per_plane=64, pages_per_block=16,
            page_size=4 * KB),
        timing=FlashTiming(
            t_read_fast=57_000, t_read_slow=94_000,
            t_prog_fast=413_000, t_prog_slow=1_800_000,
            t_erase=3_000_000, bits_per_cell=2, channel_bus_mhz=333),
        dram=DramConfig(size=8 << 20),
        cores=CoreConfig(n_cores=3, frequency=500_000_000),
        cache=CacheConfig(fraction_of_dram=0.25),
        ftl=FTLConfig(overprovision=0.10, gc_threshold_free_blocks=1),
    )


def write_storm_gc(profile: str = "full") -> ScenarioResult:
    """Random-write a low-OP device past capacity; GC dominates."""
    from repro.core.fio import FioJob
    from repro.core.system import FullSystem

    multiplier = {"smoke": 0.25, "full": 1.5}[profile]
    system = FullSystem(device=_storm_config(), interface="nvme")
    system.precondition()
    capacity = system.device_sectors * 512
    n_ios = max(50, int(capacity * multiplier) // 4096)
    wall0 = time.perf_counter()
    res = system.run_fio(FioJob(rw="randwrite", bs=4096, iodepth=16,
                                total_ios=n_ios, warmup_fraction=0.5))
    wall = time.perf_counter() - wall0
    return ScenarioResult(
        "write_storm_gc", profile, wall,
        system.sim.events_processed, system.sim.now,
        {"iops": round(res.iops, 1),
         "gc_runs": res.ssd_stats["gc_runs"],
         "write_amplification": round(
             res.ssd_stats["write_amplification"], 6),
         "n_ios": n_ios})


#: name -> callable(profile) registry
SCENARIOS: Dict[str, Callable[[str], ScenarioResult]] = {
    "kernel_churn": kernel_churn,
    "randread_nvme": randread_nvme,
    "write_storm_gc": write_storm_gc,
}
