"""The DMA engine Amber adds to gem5 (Section III-B, "data transfer
emulation").

Host drivers/controllers never move payloads themselves: they build a
*pointer list* (PRDT for SATA/UFS, PRP or SGL for NVMe) whose entries
name system-memory pages.  The DMA engine walks the list and moves each
page between host DRAM and the device across the system bus and the
physical link.

The walk's granularity depends on the host CPU model, exactly as the
paper describes: under a functional (atomic) CPU the whole request is
aggregated into one transfer task; under timing CPUs every pointer-list
entry is a separate timed bus/link/memory transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.host.bus import SystemBus
from repro.host.cpu import HostCpu
from repro.host.memory import HostMemory


@dataclass
class PointerList:
    """A scatter list of (host_address, length) system-memory segments."""

    entries: List[Tuple[int, int]] = field(default_factory=list)

    @classmethod
    def for_buffer(cls, base_address: int, nbytes: int,
                   page_size: int = 4096) -> "PointerList":
        """Build page-granular entries covering a virtually-contiguous buffer."""
        entries = []
        offset = 0
        while offset < nbytes:
            take = min(page_size - (base_address + offset) % page_size,
                       nbytes - offset)
            entries.append((base_address + offset, take))
            offset += take
        return cls(entries)

    @property
    def total_bytes(self) -> int:
        return sum(length for _addr, length in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class DmaEngine:
    def __init__(self, sim, cpu: HostCpu, memory: HostMemory,
                 bus: SystemBus, link) -> None:
        self.sim = sim
        self.cpu = cpu
        self.memory = memory
        self.bus = bus
        self.link = link
        self.transfers = 0
        self.bytes_to_device = 0
        self.bytes_to_host = 0

    def _segments(self, pointers: PointerList):
        if self.cpu.model.is_functional:
            # functional CPU: aggregate the whole request into one task
            return [(pointers.entries[0][0] if pointers.entries else 0,
                     pointers.total_bytes)]
        return pointers.entries

    def to_device(self, pointers: PointerList, track: int = 0):
        """Process: pull host pages and push them down the link."""
        tracer = self.sim.tracer
        if tracer.enabled:
            with tracer.span("dma.to_device", track,
                             bytes=pointers.total_bytes):
                for _address, length in self._segments(pointers):
                    yield from self.memory.access(length)
                    yield from self.bus.transfer(length)
                    yield from self.link.send(length)
        else:
            for _address, length in self._segments(pointers):
                yield from self.memory.access(length)
                yield from self.bus.transfer(length)
                yield from self.link.send(length)
        self.transfers += 1
        self.bytes_to_device += pointers.total_bytes

    def to_host(self, pointers: PointerList, track: int = 0):
        """Process: pull data up the link and scatter it into host pages."""
        tracer = self.sim.tracer
        if tracer.enabled:
            with tracer.span("dma.to_host", track,
                             bytes=pointers.total_bytes):
                for _address, length in self._segments(pointers):
                    yield from self.link.receive(length)
                    yield from self.bus.transfer(length)
                    yield from self.memory.access(length, write=True)
        else:
            for _address, length in self._segments(pointers):
                yield from self.link.receive(length)
                yield from self.bus.transfer(length)
                yield from self.memory.access(length, write=True)
        self.transfers += 1
        self.bytes_to_host += pointers.total_bytes

    def control_to_device(self, nbytes: int):
        """Process: small control structure fetch (SQE, FIS, UTRD...)."""
        yield from self.memory.access(nbytes)
        yield from self.bus.transfer(nbytes)
        yield from self.link.send(nbytes)

    def control_to_host(self, nbytes: int):
        """Process: completion/interrupt structure write (CQE, MSI vector)."""
        yield from self.link.receive(nbytes)
        yield from self.bus.transfer(nbytes)
        yield from self.memory.access(nbytes, write=True)
