"""Host system crossbar (gem5's "system bar" that Amber modifies).

All DMA traffic between I/O devices and system memory crosses this bus;
CPU instruction traffic is folded into the CPU timing model.  The bus is
a bandwidth-shared resource with a small per-transaction arbitration
latency.
"""

from __future__ import annotations

from repro.common.units import PerSize, transfer_ns
from repro.sim import Resource


class SystemBus:
    def __init__(self, sim, bandwidth: float, arbitration_ns: int = 20,
                 name: str = "sysbus") -> None:
        self.sim = sim
        self.bandwidth = bandwidth
        self.arbitration_ns = arbitration_ns
        self._lanes = Resource(sim, 1, name=name)
        self._transfer_ns = PerSize(
            lambda nbytes: arbitration_ns + transfer_ns(nbytes, bandwidth))
        self.bytes_moved = 0
        self.transactions = 0

    def transfer(self, nbytes: int):
        """Process generator: move ``nbytes`` across the crossbar."""
        if nbytes <= 0:
            return
        yield self._lanes.hold(self._transfer_ns[nbytes])
        self.bytes_moved += nbytes
        self.transactions += 1

    def utilization(self) -> float:
        return self._lanes.utilization()
