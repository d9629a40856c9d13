"""Result containers for full-system runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.recorders import LatencyRecorder


@dataclass
class FioResult:
    """What one FIO invocation reports back."""

    bandwidth_mbps: float = 0.0
    read_bandwidth_mbps: float = 0.0
    write_bandwidth_mbps: float = 0.0
    iops: float = 0.0
    total_ios: int = 0
    total_bytes: int = 0
    elapsed_ns: int = 0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    # host-side observations
    host_kernel_utilization: float = 0.0
    # device-side observations
    ssd_power: Dict[str, float] = field(default_factory=dict)
    ssd_instructions: Dict[str, float] = field(default_factory=dict)
    ssd_stats: Dict[str, float] = field(default_factory=dict)


@dataclass
class TenantResult:
    """Steady-state observations for one tenant of a shared device."""

    name: str = ""
    nsid: int = 0
    issued: int = 0
    completed: int = 0
    total_bytes: int = 0
    bandwidth_mbps: float = 0.0
    iops: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)

    def summary(self) -> Dict[str, float]:
        """Per-tenant scalar summary (report/JSON-friendly)."""
        return {
            "nsid": self.nsid,
            "completed": self.completed,
            "bandwidth_mbps": round(self.bandwidth_mbps, 1),
            "iops": round(self.iops, 0),
            "mean_latency_us": round(self.latency.mean_us(), 1),
            "p50_latency_us": round(self.latency.percentile(50) / 1000.0, 1),
            "p99_latency_us": round(self.latency.percentile(99) / 1000.0, 1),
        }


@dataclass
class MultiTenantResult:
    """What one multi-tenant run reports: per-tenant plus device-wide.

    ``latency`` is the exact merge of every tenant's recorder
    (:meth:`LatencyRecorder.merge`), so device-wide percentiles come
    from the same buckets as per-tenant ones.
    """

    tenants: List[TenantResult] = field(default_factory=list)
    elapsed_ns: int = 0
    total_ios: int = 0
    total_bytes: int = 0
    bandwidth_mbps: float = 0.0
    iops: float = 0.0
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    fairness: float = 0.0           # Jain's index over tenant throughputs
    arbitration: str = ""
    grants: Dict[int, int] = field(default_factory=dict)
    ssd_stats: Dict[str, float] = field(default_factory=dict)

    def tenant(self, index: int) -> TenantResult:
        """The ``index``-th tenant's result (0-based, creation order)."""
        return self.tenants[index]
