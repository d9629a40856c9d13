"""Workload generation: FIO-style synthetic patterns and the Table III
enterprise workloads (24HR, 24HRS, CFS, MSNFS, DAP).  The user-level
runner that replays them is :class:`repro.core.enterprise.EnterpriseRunner`."""

from repro.workloads.enterprise import ENTERPRISE_WORKLOADS, WorkloadSpec

__all__ = [
    "WorkloadSpec",
    "ENTERPRISE_WORKLOADS",
]
