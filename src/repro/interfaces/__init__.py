"""Storage interfaces: SATA, UFS (h-type) and NVMe, OCSSD (s-type).

Each interface provides a host-side adapter (controller or driver) that
the block layer dispatches into, and a device-side controller that
parses commands, drives the SSD model and emulates all data transfers
through the DMA engine.  SATA and UFS share one pair
(:mod:`repro.interfaces.htype`), told apart by a protocol record.
"""

from repro.interfaces.base import HostAdapter

__all__ = ["HostAdapter"]
