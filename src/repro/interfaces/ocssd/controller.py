"""Device-side OCSSD controller.

Reuses the NVMe transport shape (SQE fetch over PCIe, CQE + MSI-X on
completion) but executes *vector* commands addressed by physical page:
the SSD's ICL and FTL are out of the datapath — the device is passive,
only the HIL/controller and the storage complex run (Section IV-B).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.instructions import InstructionMix
from repro.host.dma import DmaEngine, PointerList
from repro.interfaces.ocssd.geometry import (
    ChunkDescriptor,
    ChunkState,
    OcssdGeometry,
)
from repro.ssd.device import SSD

_SQE_BYTES = 64
_CQE_BYTES = 16
_MSI_BYTES = 16
_HOST_PAGE = 4096


class OcssdController:
    def __init__(self, sim, ssd: SSD, dma: DmaEngine,
                 spec_version: str = "2.0") -> None:
        self.sim = sim
        self.ssd = ssd
        self.dma = dma
        self.geometry = OcssdGeometry.from_config(ssd.config, spec_version)
        self._parse_mix = InstructionMix.typical(
            ssd.config.costs.doorbell_service + 300)
        self.vector_reads = 0
        self.vector_writes = 0
        self.vector_erases = 0
        self._offline_chunks = set()

    # -- identify / report ------------------------------------------------------

    def identify(self) -> OcssdGeometry:
        return self.geometry

    def report_chunks(self, pu: int) -> List[ChunkDescriptor]:
        """OCSSD 2.0 chunk report for one parallel unit."""
        geom = self.ssd.config.geometry
        out = []
        for chunk in range(geom.blocks_per_plane):
            block = self.ssd.array.block(pu, chunk)
            if (pu, chunk) in self._offline_chunks:
                state = ChunkState.OFFLINE
            elif block.next_page == 0:
                state = ChunkState.FREE
            elif block.next_page >= geom.pages_per_block:
                state = ChunkState.CLOSED
            else:
                state = ChunkState.OPEN
            out.append(ChunkDescriptor(pu=pu, chunk=chunk, state=state,
                                       write_pointer=block.next_page,
                                       erase_count=block.erase_count))
        return out

    # -- transport helpers --------------------------------------------------------

    def _command_overhead(self):
        yield from self.dma.control_to_device(_SQE_BYTES)
        yield from self.ssd.cores.execute("hil", self._parse_mix)

    def _completion_overhead(self):
        yield from self.dma.control_to_host(_CQE_BYTES)
        yield from self.dma.control_to_host(_MSI_BYTES)

    # -- vector commands (called by pblk / liblightnvm) ----------------------------

    def vector_read(self, ppns: Sequence[int],
                    transfer_bytes: Optional[int] = None, track: int = 0):
        """Process: read the given physical pages; returns list of payloads.

        ``track`` is the trace track of the host request the read serves
        (its ``req_id``), where its flash and DMA spans land; ``0``
        marks background work.  Writes and erases come only from pblk's
        flush and GC, so they stay on track 0.
        """
        yield from self._command_overhead()
        page_size = self.ssd.config.geometry.page_size
        per_page = transfer_bytes or page_size
        reads = [self.sim.process(self.ssd.fil.read(ppn, per_page,
                                                    track=track))
                 for ppn in ppns]
        for proc in reads:
            yield proc
        pointers = PointerList.for_buffer(0x2_0000_0000,
                                          per_page * len(ppns), _HOST_PAGE)
        yield from self.dma.to_host(pointers, track=track)
        yield from self._completion_overhead()
        self.vector_reads += len(ppns)
        return [self.ssd.content.read(ppn) for ppn in ppns]

    def vector_write(self, ppns: Sequence[int],
                     data: Optional[List[Optional[bytes]]] = None):
        """Process: program the given pages (must respect chunk order)."""
        yield from self._command_overhead()
        page_size = self.ssd.config.geometry.page_size
        pointers = PointerList.for_buffer(0x2_4000_0000,
                                          page_size * len(ppns), _HOST_PAGE)
        yield from self.dma.to_device(pointers)
        now = self.sim.now
        for i, ppn in enumerate(ppns):
            self.ssd.array.program_ppn(ppn, now)
            self.ssd.content.write(ppn, data[i] if data else None)
        yield from self.ssd.fil.program_group(list(ppns))
        yield from self._completion_overhead()
        self.vector_writes += len(ppns)

    def vector_erase(self, pu: int, chunk: int):
        """Process: erase (reset) one chunk.

        Returns True on success; False marks the chunk OFFLINE (a worn-
        out block the host FTL must stop using — OCSSD 2.0 semantics).
        """
        yield from self._command_overhead()
        ok = yield from self.ssd.fil.erase(pu, chunk)
        if ok:
            self.ssd.content.erase_block(
                self.ssd.array.mapper, pu, chunk,
                self.ssd.config.geometry.pages_per_block)
            self.ssd.array.erase_block(pu, chunk)
        else:
            self._offline_chunks.add((pu, chunk))
        yield from self._completion_overhead()
        self.vector_erases += 1
        return ok

    def invalidate(self, ppn: int) -> None:
        """Host-side FTL marks a page stale (metadata only, no I/O)."""
        self.ssd.array.invalidate_ppn(ppn)
