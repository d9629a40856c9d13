"""Host system memory: timing for DMA/page traffic plus a usage ledger.

The ledger tracks who holds how much system memory (FIO buffers, NVMe
protocol structures, pblk caches...) over time — the source of the
Fig 15c DRAM-usage timelines.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.units import PerSize, transfer_ns
from repro.sim import Resource, TimeAverage


class HostMemory:
    def __init__(self, sim, size: int, bandwidth: float,
                 access_latency: int = 60) -> None:
        """``bandwidth`` in bytes/s aggregate; ``access_latency`` ns per op."""
        self.sim = sim
        self.size = size
        self.bandwidth = bandwidth
        self.access_latency = access_latency
        self._bus = Resource(sim, 1, name="host-dram")
        self._access_ns = PerSize(
            lambda nbytes: access_latency + transfer_ns(nbytes, bandwidth))
        # the usage ledger feeds the Fig 15c timelines, so it keeps its
        # (capped) change-point history
        self._usage = TimeAverage(sim, 0.0, keep_timeline=True)
        self._holders: Dict[str, int] = {}
        self.bytes_moved = 0

    # -- timing ---------------------------------------------------------------

    def access(self, nbytes: int, write: bool = False):
        """Process generator: one memory transaction of ``nbytes``."""
        del write  # symmetric timing; kept for call-site clarity
        if nbytes <= 0:
            return
        yield self._bus.hold(self._access_ns[nbytes])
        self.bytes_moved += nbytes

    # -- footprint ledger --------------------------------------------------------

    def allocate(self, tag: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("cannot allocate negative bytes")
        used = self._usage.value
        if used + nbytes > self.size:
            raise MemoryError(
                f"host memory exhausted: {used + nbytes} > {self.size}")
        self._holders[tag] = self._holders.get(tag, 0) + nbytes
        self._usage.add(nbytes)

    def free(self, tag: str, nbytes: int = None) -> None:
        held = self._holders.get(tag, 0)
        release = held if nbytes is None else min(nbytes, held)
        if release == 0:
            return
        self._holders[tag] = held - release
        if self._holders[tag] == 0:
            del self._holders[tag]
        self._usage.add(-release)

    @property
    def used_bytes(self) -> int:
        return int(self._usage.value)

    def usage_of(self, tag: str) -> int:
        return self._holders.get(tag, 0)

    def usage_timeline(self) -> List[Tuple[int, float]]:
        return self._usage.timeline()

    def utilization(self) -> float:
        return self._bus.utilization()

    def register_metrics(self, registry, prefix: str = "host.mem") -> None:
        """Expose the footprint and bus instruments under ``prefix``."""
        scope = registry.scoped(prefix)
        scope.register("used_bytes", lambda: float(self._usage.value))
        scope.register("used_bytes.mean", self._usage.mean)
        scope.register("bus.util", self._bus.utilization)
        scope.register("bytes_moved", lambda: float(self.bytes_moved))
