"""Figures 3 & 4: real device vs existing SSD simulators, I/O depth 1-32.

Replays 4 KB FIO block traces through the four baseline simulator models
(their only supported evaluation mode) and contrasts bandwidth/latency
curves with the digitized real-device (Intel 750) reference.  The trend
classes — linear (MQSim/SSDSim), constant (SSD-Extension/FlashSim),
sublinear-saturating (real device) — are the reproduction target.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.models import (
    FlashSimModel,
    MQSimModel,
    SSDExtensionModel,
    SSDSimModel,
)
from repro.baselines.reference import reference_at
from repro.baselines.replay import ClosedLoopReplayer
from repro.common.render import format_series
from repro.core import presets
from repro.experiments.common import FULL_DEPTHS, QUICK_DEPTHS
from repro.workloads.synthetic import PATTERN_RW

SIMULATORS = {
    "mqsim": MQSimModel,
    "ssdsim": SSDSimModel,
    "ssd-extension": SSDExtensionModel,
    "flashsim": FlashSimModel,
}


def run(quick: bool = True) -> Dict:
    depths = QUICK_DEPTHS if quick else FULL_DEPTHS
    n_ios = 400 if quick else 1500
    config = presets.intel750()
    results: Dict = {"depths": depths, "patterns": {}}
    for pattern in PATTERN_RW:
        per_sim: Dict[str, Dict[int, Dict[str, float]]] = {}
        for sim_name, model_cls in SIMULATORS.items():
            replayer = ClosedLoopReplayer(model_cls(config))
            per_sim[sim_name] = {}
            for depth in depths:
                res = replayer.run(pattern, bs=4096, iodepth=depth,
                                   n_ios=n_ios)
                per_sim[sim_name][depth] = {
                    "bandwidth_mbps": res.bandwidth_mbps,
                    "latency_us": res.mean_latency_us,
                }
        per_sim["real-device"] = {
            depth: {
                "bandwidth_mbps": reference_at("intel750", pattern, depth),
                "latency_us": reference_at("intel750", pattern, depth,
                                           "latency"),
            } for depth in depths}
        results["patterns"][pattern] = per_sim
    results["trend_classes"] = _classify(results)
    return results


def _classify(results: Dict) -> Dict[str, str]:
    """Label each simulator's bandwidth trend on random reads.

    * constant   — flat from depth 1 (or flat past the first step);
    * saturating — grew substantially, then went flat in the tail;
    * linear     — still climbing at the deepest point.
    """
    out = {}
    data = results["patterns"]["randread"]
    depths = results["depths"]
    for sim, curve in data.items():
        first = curve[depths[0]]["bandwidth_mbps"]
        last = curve[depths[-1]]["bandwidth_mbps"]
        mid = curve[depths[len(depths) // 2]]["bandwidth_mbps"]
        flat_tail = mid > 0 and last <= 1.15 * mid
        if flat_tail and (first <= 0 or last <= 2.0 * first
                          or mid <= 1.05 * curve[depths[1]]["bandwidth_mbps"]):
            out[sim] = "constant"
        elif flat_tail:
            out[sim] = "saturating"
        else:
            out[sim] = "linear"
    return out


def render(results: Dict) -> str:
    blocks = []
    for pattern, per_sim in results["patterns"].items():
        bw = {sim: {d: round(v["bandwidth_mbps"]) for d, v in curve.items()}
              for sim, curve in per_sim.items()}
        lat = {sim: {d: round(v["latency_us"], 1) for d, v in curve.items()}
               for sim, curve in per_sim.items()}
        blocks.append(format_series(bw, "depth",
                                    f"Fig 3 ({pattern}) bandwidth MB/s"))
        blocks.append(format_series(lat, "depth",
                                    f"Fig 4 ({pattern}) latency us"))
    blocks.append(f"trend classes (randread): {results['trend_classes']}")
    return "\n\n".join(blocks)
