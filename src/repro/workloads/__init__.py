"""Workload generation: FIO-style synthetic patterns and the Table III
enterprise workloads (24HR, 24HRS, CFS, MSNFS, DAP)."""

from repro.workloads.enterprise import ENTERPRISE_WORKLOADS, WorkloadSpec
from repro.workloads.runner import EnterpriseRunner

__all__ = [
    "WorkloadSpec",
    "ENTERPRISE_WORKLOADS",
    "EnterpriseRunner",
]
