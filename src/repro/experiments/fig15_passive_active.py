"""Figure 15: passive (OCSSD + pblk) vs active (NVMe) storage.

Three panels:

* (a) bandwidth for 4 KB and 64 KB random/sequential reads and writes —
  the paper finds OCSSD ~30% faster for 4 KB (host-side buffering with
  better information) and NVMe ~20% faster for 64 KB (kernel buffer
  limits);
* (b) kernel CPU utilization over a write-then-read run: pblk keeps
  ~50% of four cores busy, NVMe ~10%;
* (c) host DRAM usage over the same run: pblk's buffer allocated at
  initialization, NVMe's protocol + FIO footprint.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.render import format_table
from repro.common.units import KB, MB
from repro.core import presets
from repro.core.fio import FioJob
from repro.core.system import FullSystem

SIZES = [4 * KB, 64 * KB]
PATTERNS = ["randread", "randwrite", "read", "write"]


def _system(interface: str) -> FullSystem:
    system = FullSystem(device=presets.intel750(), interface=interface)
    if interface == "nvme":
        system.precondition()
    return system


def _phase_run(system: FullSystem, n_ios: int, bs: int) -> Dict:
    """Write region then read it back, sampling utilization/memory."""
    samples: List[Tuple[int, float]] = []
    markers = {}

    def sampler():
        while True:
            system.cpu.mark_utilization()
            yield system.sim.timeout(250_000)  # 0.25 ms sampling

    system.sim.process(sampler())
    markers["start"] = system.sim.now
    write_res = system.run_fio(FioJob(rw="write", bs=bs, iodepth=16,
                                      total_ios=n_ios,
                                      size=min(n_ios * bs,
                                               system.device_sectors * 256)))
    markers["write_end"] = system.sim.now
    read_res = system.run_fio(FioJob(rw="randread", bs=bs, iodepth=16,
                                     total_ios=n_ios,
                                     size=min(n_ios * bs,
                                              system.device_sectors * 256)))
    markers["read_end"] = system.sim.now
    return {
        "write_mbps": write_res.bandwidth_mbps,
        "read_mbps": read_res.bandwidth_mbps,
        "cpu_timeline": system.cpu.kernel_utilization_timeline(),
        "memory_timeline": system.memory.usage_timeline(),
        "markers": markers,
        "kernel_utilization": system.cpu.kernel_utilization(),
        "memory_peak_mb": max((v for _t, v in
                               system.memory.usage_timeline()),
                              default=0) / MB,
    }


def run(quick: bool = True, n_ios=None, sizes=None, patterns=None) -> Dict:
    """``n_ios``/``sizes``/``patterns`` shrink the sweep for the golden
    small configs; the summary covers whichever points were run."""
    n_ios = n_ios or (300 if quick else 1200)
    sizes = sizes or SIZES
    patterns = patterns or PATTERNS
    results: Dict = {"bandwidth": {}, "phases": {},
                     "sizes": sizes, "patterns": patterns}
    for interface in ("nvme", "ocssd"):
        for bs in sizes:
            for pattern in patterns:
                system = _system(interface)
                if pattern.endswith("read"):
                    # populate the region first so reads hit real data
                    region = min(n_ios * bs, system.device_sectors * 256)
                    system.run_fio(FioJob(rw="write", bs=bs, iodepth=16,
                                          total_ios=n_ios, size=region,
                                          warmup_fraction=0.0))
                    res = system.run_fio(FioJob(rw=pattern, bs=bs,
                                                iodepth=16, total_ios=n_ios,
                                                size=region))
                else:
                    res = system.run_fio(FioJob(rw=pattern, bs=bs,
                                                iodepth=16, total_ios=n_ios))
                results["bandwidth"][(interface, bs // KB, pattern)] = \
                    res.bandwidth_mbps
        results["phases"][interface] = _phase_run(_system(interface),
                                                  n_ios, 4 * KB)
    results["summary"] = _summarize(results)
    return results


def _summarize(results: Dict) -> Dict:
    bw = results["bandwidth"]
    patterns = results.get("patterns", PATTERNS)
    small = [bw[("ocssd", 4, p)] / max(1e-9, bw[("nvme", 4, p)])
             for p in patterns if ("ocssd", 4, p) in bw]
    large = [bw[("nvme", 64, p)] / max(1e-9, bw[("ocssd", 64, p)])
             for p in patterns if ("nvme", 64, p) in bw]
    return {
        "ocssd_advantage_4k": sum(small) / len(small) if small else 0.0,
        "nvme_advantage_64k": sum(large) / len(large) if large else 0.0,
        "kernel_cpu": {i: results["phases"][i]["kernel_utilization"]
                       for i in ("nvme", "ocssd")},
        "memory_peak_mb": {i: results["phases"][i]["memory_peak_mb"]
                           for i in ("nvme", "ocssd")},
    }


def render(results: Dict) -> str:
    rows = [[interface, kb, pattern, round(v)]
            for (interface, kb, pattern), v in results["bandwidth"].items()]
    blocks = [format_table(["interface", "KiB", "pattern", "MB/s"], rows,
                           "Fig 15a: NVMe (active) vs OCSSD (passive)")]
    s = results["summary"]
    blocks.append(
        f"OCSSD/NVMe at 4K: x{s['ocssd_advantage_4k']:.2f} (paper: ~1.3); "
        f"NVMe/OCSSD at 64K: x{s['nvme_advantage_64k']:.2f} (paper: ~1.2)")
    blocks.append(
        "Fig 15b kernel CPU: "
        + ", ".join(f"{i}: {u * 100:.0f}%"
                    for i, u in s["kernel_cpu"].items())
        + " (paper: OCSSD ~50%, NVMe ~10%)")
    blocks.append(
        "Fig 15c peak host DRAM: "
        + ", ".join(f"{i}: {mb:.0f} MB"
                    for i, mb in s["memory_peak_mb"].items()))
    return "\n\n".join(blocks)
