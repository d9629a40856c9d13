"""Figure 13: handheld (UFS on mobile) vs general computing (NVMe on PC).

Three panels:

* (a) user-level bandwidth per enterprise workload — NVMe wins (paper:
  1.81x overall) but the mobile CPU cannot always feed it;
* (b) SSD power breakdown (NAND / DRAM / CPU) with the embedded CPU as
  the most power-hungry component;
* (c) firmware instruction breakdown — loads+stores dominate (~60%) and
  NVMe executes several times more instructions than UFS in the same
  period (doorbell service).
"""

from __future__ import annotations

from typing import Dict

from repro.common.render import format_table
from repro.core import presets
from repro.core.enterprise import EnterpriseRunner
from repro.core.system import FullSystem
from repro.host.platform import mobile_platform, pc_platform
from repro.workloads.enterprise import ENTERPRISE_WORKLOADS

WORKLOAD_ORDER = ["24HR", "24HRS", "CFS", "DAP", "MSNFS"]


def _build(interface: str) -> FullSystem:
    if interface == "ufs":
        system = FullSystem(device=presets.ufs_mobile(), interface="ufs",
                            platform=mobile_platform())
    else:
        system = FullSystem(device=presets.intel750(), interface="nvme",
                            platform=pc_platform())
    system.precondition()
    return system


def run(quick: bool = True, n_ios=None, concurrency=None,
        workloads=None) -> Dict:
    """``n_ios``/``concurrency``/``workloads`` shrink the sweep for the
    golden small configs; panels b/c use the last workload listed."""
    n_ios = n_ios or (400 if quick else 1500)
    concurrency = concurrency or (8 if quick else 16)
    workloads = workloads or WORKLOAD_ORDER
    representative = workloads[-1]
    results: Dict = {"workloads": workloads,
                     "bandwidth": {}, "power": {}, "instructions": {}}
    for interface in ("nvme", "ufs"):
        for name in workloads:
            system = _build(interface)
            runner = EnterpriseRunner(system, ENTERPRISE_WORKLOADS[name],
                                      concurrency=concurrency)
            res = runner.run(total_ios=n_ios)
            results["bandwidth"][(interface, name)] = {
                "read_mbps": res.read_bandwidth_mbps,
                "write_mbps": res.write_bandwidth_mbps,
                "total_mbps": res.bandwidth_mbps,
            }
            if name == representative:  # panels b/c: one representative run
                results["power"][interface] = res.ssd_power
                results["instructions"][interface] = {
                    "counts": dict(res.ssd_instructions),
                    "per_second": res.ssd_instructions["total"]
                    / max(1e-9, res.elapsed_ns / 1e9),
                }
    results["summary"] = _summarize(results)
    return results


def _summarize(results: Dict) -> Dict:
    nvme = [results["bandwidth"][("nvme", w)]["total_mbps"]
            for w in results["workloads"]]
    ufs = [results["bandwidth"][("ufs", w)]["total_mbps"]
           for w in results["workloads"]]
    instr = results["instructions"]
    ls_fraction = {}
    for interface, data in instr.items():
        counts = data["counts"]
        total = counts["total"] or 1
        ls_fraction[interface] = (counts["load"] + counts["store"]) / total
    return {
        "nvme_over_ufs": (sum(nvme) / len(nvme)) / max(1e-9,
                                                       sum(ufs) / len(ufs)),
        "instr_rate_ratio": instr["nvme"]["per_second"]
        / max(1e-9, instr["ufs"]["per_second"]),
        "load_store_fraction": ls_fraction,
    }


def render(results: Dict) -> str:
    rows = [[interface, name, round(v["read_mbps"]), round(v["write_mbps"])]
            for (interface, name), v in results["bandwidth"].items()]
    blocks = [format_table(["interface", "workload", "read MB/s",
                            "write MB/s"], rows,
                           "Fig 13a: UFS (mobile) vs NVMe (PC)")]
    power_rows = [[interface, f"{p['nand']:.2f}", f"{p['dram']:.2f}",
                   f"{p['cpu']:.2f}", f"{p['total']:.2f}"]
                  for interface, p in results["power"].items()]
    blocks.append(format_table(["interface", "NAND W", "DRAM W", "CPU W",
                                "total W"], power_rows,
                               "Fig 13b: SSD power breakdown"))
    instr_rows = []
    for interface, data in results["instructions"].items():
        counts = data["counts"]
        total = counts["total"] or 1
        instr_rows.append([
            interface, f"{counts['branch'] / total:.2f}",
            f"{counts['load'] / total:.2f}",
            f"{counts['store'] / total:.2f}",
            f"{counts['arith'] / total:.2f}",
            f"{data['per_second'] / 1e6:.1f}M/s"])
    blocks.append(format_table(
        ["interface", "branch", "load", "store", "arith", "rate"],
        instr_rows, "Fig 13c: firmware instruction breakdown"))
    s = results["summary"]
    blocks.append(
        f"NVMe/UFS bandwidth ratio: {s['nvme_over_ufs']:.2f} (paper: 1.81); "
        f"instruction rate ratio: {s['instr_rate_ratio']:.2f} (paper: 5.45)")
    return "\n\n".join(blocks)
