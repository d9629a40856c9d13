"""Physical links between host and storage: PCIe, SATA PHY, UFS M-PHY.

Each link models raw lane bandwidth, encoding/packet efficiency, a
propagation latency, and (for PCIe) MMIO register access costs used by
doorbell writes.  Links serialize transfers per direction.
"""

from __future__ import annotations

from repro.common.units import GB, MB, PerSize, transfer_ns
from repro.sim import Resource


class _Link:
    """Shared base: a full-duplex serial link."""

    def __init__(self, sim, bandwidth: float, efficiency: float,
                 latency_ns: int, name: str) -> None:
        self.sim = sim
        self.raw_bandwidth = bandwidth
        self.efficiency = efficiency
        self.latency_ns = latency_ns
        self.name = name
        self._tx = Resource(sim, 1, name=f"{name}-tx")  # host -> device
        self._rx = Resource(sim, 1, name=f"{name}-rx")  # device -> host
        # a transfer occupies its lane for the serialization time only;
        # the propagation latency overlaps with other in-flight packets
        self._serialize_ns = PerSize(
            lambda nbytes: transfer_ns(nbytes, bandwidth * efficiency))
        self.bytes_tx = 0
        self.bytes_rx = 0

    @property
    def effective_bandwidth(self) -> float:
        return self.raw_bandwidth * self.efficiency

    def send(self, nbytes: int):
        """Process: host-to-device transfer."""
        if nbytes > 0:
            lane = self._tx
            timer = lane.hold(self._serialize_ns[nbytes])
            try:
                yield timer
            finally:
                lane.release(timer)
            yield self.sim.timeout(self.latency_ns)
        self.bytes_tx += nbytes

    def receive(self, nbytes: int):
        """Process: device-to-host transfer."""
        if nbytes > 0:
            lane = self._rx
            timer = lane.hold(self._serialize_ns[nbytes])
            try:
                yield timer
            finally:
                lane.release(timer)
            yield self.sim.timeout(self.latency_ns)
        self.bytes_rx += nbytes

    def utilization(self) -> float:
        return max(self._tx.utilization(), self._rx.utilization())


class PcieLink(_Link):
    """PCIe: MCH-attached, used by NVMe and OCSSD (s-type storage)."""

    _GEN_GBPS_PER_LANE = {1: 0.25 * GB, 2: 0.5 * GB, 3: 0.985 * GB, 4: 1.97 * GB}

    def __init__(self, sim, gen: int = 3, lanes: int = 4,
                 mmio_write_ns: int = 250) -> None:
        if gen not in self._GEN_GBPS_PER_LANE:
            raise ValueError(f"unsupported PCIe generation {gen}")
        bandwidth = self._GEN_GBPS_PER_LANE[gen] * lanes
        # TLP header overhead on top of line coding (already in per-lane rate)
        super().__init__(sim, bandwidth, efficiency=0.85, latency_ns=500,
                         name=f"pcie-g{gen}x{lanes}")
        self.gen = gen
        self.lanes = lanes
        self.mmio_write_ns = mmio_write_ns

    def mmio_write(self):
        """Process: posted register write (e.g. a doorbell ring)."""
        yield self.sim.timeout(self.mmio_write_ns)


class SataLink(_Link):
    """SATA 3.0 PHY: ICH-attached, 6 Gb/s with 8b/10b coding.

    Unlike PCIe, the SATA link is effectively half-duplex at the FIS
    level: one frame at a time in either direction, so tx and rx share a
    single lane — a real contributor to the h-type single-I/O-path
    bottleneck the paper discusses.
    """

    def __init__(self, sim) -> None:
        super().__init__(sim, bandwidth=600 * MB, efficiency=0.93,
                         latency_ns=700, name="sata3")
        self._rx = self._tx  # half duplex: one shared lane


class UfsLink(_Link):
    """UFS 2.1 M-PHY: two HS-G3 lanes, ~1166 MB/s raw."""

    def __init__(self, sim, lanes: int = 2) -> None:
        super().__init__(sim, bandwidth=583 * MB * lanes, efficiency=0.9,
                         latency_ns=600, name=f"ufs-mphy-x{lanes}")
