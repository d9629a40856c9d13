"""Figure 10: performance validation across block sizes (4 KB - 1024 KB).

Sweeps the request size at fixed depth for every device and reports
simulated bandwidth plus error ranges versus a reference extrapolated
from the 4 KB curves (large transfers converge to each device's
sequential ceiling, which the digitized curves already capture).
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.reference import REAL_DEVICES, error_rate, reference_at
from repro.common.render import format_series, format_table
from repro.common.units import KB
from repro.core import presets
from repro.core.system import FullSystem
from repro.experiments.common import DEVICE_INTERFACES, run_pattern
from repro.ssd.config import CacheConfig
from repro.workloads.synthetic import PATTERN_RW

FULL_SIZES = [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1024 * KB]
QUICK_SIZES = [4 * KB, 64 * KB, 1024 * KB]

# sequential ceilings (MB/s) for the block-size reference: the interface
# limit for big transfers, from each device's public spec class
_SEQ_CEILING = {"intel750": 2200, "850pro": 550, "zssd": 3200, "983dct": 2000}
_WRITE_CEILING = {"intel750": 950, "850pro": 520, "zssd": 2300, "983dct": 1400}


def _reference(device: str, pattern: str, bs: int) -> float:
    """Block-size reference: 4 KB anchor blending into the ceiling."""
    anchor = reference_at(device, pattern, 16)
    ceiling = (_SEQ_CEILING if pattern.endswith("read")
               else _WRITE_CEILING)[device]
    # bandwidth grows with block size, saturating near the ceiling
    blocks = bs / (4 * KB)
    grown = anchor * blocks
    return min(ceiling, grown) if grown > anchor else anchor


def run(quick: bool = True, devices=None, sizes=None, budgets=None) -> Dict:
    """``sizes``/``budgets`` shrink the sweep (golden small configs);
    ``budgets`` is an (under-64K, over-64K) byte-volume pair."""
    sizes = sizes or (QUICK_SIZES if quick else FULL_SIZES)
    devices = devices or (["intel750", "zssd"] if quick
                          else list(REAL_DEVICES))
    results: Dict = {"sizes": sizes, "devices": {}}
    for device in devices:
        per_pattern: Dict = {}
        for pattern in PATTERN_RW:
            curve = {}
            for bs in sizes:
                # small blocks: enough I/Os for steady timing; large
                # blocks: enough *volume* to exceed the write cache so
                # sustained (flash-bound) rates are measured
                if bs < 64 * KB:
                    budget = budgets[0] if budgets \
                        else ((6 << 20) if quick else (16 << 20))
                else:
                    budget = budgets[1] if budgets \
                        else ((32 << 20) if quick else (96 << 20))
                n_ios = max(24, budget // bs)
                # bound the data cache so large writes actually reach
                # flash within the run (see EXPERIMENTS.md)
                config = presets.by_name(device).with_overrides(
                    cache=CacheConfig(fraction_of_dram=0.02))
                system = FullSystem(device=config,
                                    interface=DEVICE_INTERFACES[device])
                system.precondition()
                res = run_pattern(system, pattern, depth=16, bs=bs,
                                  total_ios=n_ios)
                real = _reference(device, pattern, bs)
                curve[bs // KB] = {
                    "bandwidth_mbps": res.bandwidth_mbps,
                    "reference_mbps": real,
                    "error": error_rate(real, res.bandwidth_mbps),
                }
            per_pattern[pattern] = curve
        results["devices"][device] = per_pattern
    results["error_summary"] = _summarize(results)
    return results


def _summarize(results: Dict) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for device, per_pattern in results["devices"].items():
        errors: List[float] = [point["error"]
                               for curve in per_pattern.values()
                               for point in curve.values()]
        out[device] = {
            "min_error": min(errors),
            "mean_error": sum(errors) / len(errors),
            "max_error": max(errors),
        }
    return out


def render(results: Dict) -> str:
    blocks = []
    for device, per_pattern in results["devices"].items():
        for pattern, curve in per_pattern.items():
            series = {
                "amber": {kb: round(v["bandwidth_mbps"])
                          for kb, v in curve.items()},
                "reference": {kb: round(v["reference_mbps"])
                              for kb, v in curve.items()},
            }
            blocks.append(format_series(
                series, "KiB", f"Fig 10 {device} {pattern} MB/s"))
    rows = [[device, f"{s['min_error'] * 100:.0f}%",
             f"{s['mean_error'] * 100:.0f}%", f"{s['max_error'] * 100:.0f}%"]
            for device, s in results["error_summary"].items()]
    blocks.append(format_table(["device", "min err", "mean err", "max err"],
                               rows, "Block-size sweep error summary"))
    return "\n\n".join(blocks)
