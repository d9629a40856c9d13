"""pblk: the host-side FTL for Open-Channel SSDs (lightNVM).

Everything an SSD's firmware normally does — translation, write
buffering, striping, garbage collection, wear management — runs here as
*kernel code on host cores*.  That is the essence of the passive storage
architecture: Fig 15b's 50% kernel CPU utilization and Fig 15c's pblk
buffer allocation both come out of this module.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.host.cpu import HostCpu
from repro.host.memory import HostMemory
from repro.host.pcie import PcieLink
from repro.interfaces.base import HostAdapter
from repro.interfaces.ocssd.controller import OcssdController
from repro.sim.tracer import NULL_SPAN_CONTEXT
from repro.ssd.firmware.ftl.mapping import UNMAPPED, unmapped_table

# pblk kernel-path instruction budgets: the host pays what device
# firmware would otherwise pay, plus buffer management.
_MIX_WRITE_ENTRY = InstructionMix.typical(3400)   # buffer insert + l2p prep
_MIX_FLUSH_PAGE = InstructionMix.typical(2800)    # alloc + map + vector build
_MIX_READ_LOOKUP = InstructionMix.typical(2600)   # l2p walk + vector build
_MIX_GC_PAGE = InstructionMix.typical(3000)

# pblk's kernel allocation at initialization, and the share of it the
# write-buffer ring may use
_BUFFER_BYTES = 64 * 1024 * 1024
_RING_BYTES = 16 * 1024 * 1024
# share of each PU's chunks reserved as over-provisioning
_OP_RESERVE = 0.15
# a PU with this many free chunks or fewer collects before a flush batch
_GC_THRESHOLD_CHUNKS = 2


class _PuState:
    __slots__ = ("free", "active", "next_page", "valid")

    def __init__(self, chunks: int, pages_per_chunk: int) -> None:
        self.free: Deque[int] = deque(range(chunks))
        self.active: Optional[int] = None
        self.next_page = 0
        self.valid = [0] * chunks


class PblkDriver(HostAdapter):
    max_outstanding = 4096

    def __init__(self, sim, cpu: HostCpu, memory: HostMemory,
                 link: PcieLink, controller: OcssdController,
                 data_emulation: bool = False) -> None:
        self.sim = sim
        self.cpu = cpu
        self.memory = memory
        self.link = link
        self.controller = controller
        self.data_emulation = data_emulation
        geometry = controller.geometry
        self.page_size = geometry.page_size
        self.sectors_per_page = self.page_size // 512
        self.num_pu = geometry.num_pu
        self.pages_per_chunk = geometry.pages_per_chunk
        # pblk reserves whole chunks per PU; at least two, so GC always
        # has an erased chunk to migrate into while another drains
        reserve_chunks = max(2, int(geometry.chunks_per_pu * _OP_RESERVE))
        if reserve_chunks >= geometry.chunks_per_pu:
            raise ValueError("device too small for pblk's chunk reserve")
        self.gc_threshold_chunks = min(_GC_THRESHOLD_CHUNKS,
                                       reserve_chunks - 1)

        usable = (geometry.total_pages
                  - self.num_pu * reserve_chunks * geometry.pages_per_chunk)
        self.logical_pages = usable
        self.l2p = unmapped_table(usable)
        self.p2l = unmapped_table(geometry.total_pages)
        self._pus = [_PuState(geometry.chunks_per_pu, geometry.pages_per_chunk)
                     for _ in range(self.num_pu)]
        self._pu_cursor = 0
        self._gc_busy = [False] * self.num_pu

        # pblk allocates its kernel memory once at initialization
        # (Fig 15c's visible step), but the *usable* write-buffer ring is
        # a fraction of it — kernel drivers draw from physical memory and
        # cannot grow like user space, the very limit that costs OCSSD
        # its large-I/O advantage (Section V-E)
        self.buffer_capacity_pages = max(
            8, min(_RING_BYTES, _BUFFER_BYTES) // self.page_size)
        self._buffer: "OrderedDict[int, Optional[bytearray]]" = OrderedDict()
        self._buffer_waiters: Deque = deque()
        self._flush_running = False
        self._force_drain = False
        self._flush_failure: Optional[BaseException] = None
        memory.allocate("pblk", _BUFFER_BYTES)

        self.writes_buffered = 0
        self.pages_flushed = 0
        self.gc_pages_migrated = 0
        self.gc_chunks_reclaimed = 0
        self.chunks_retired = 0

    # -- geometry helpers ---------------------------------------------------------

    @property
    def logical_sectors(self) -> int:
        return self.logical_pages * self.sectors_per_page

    def _ppn(self, pu: int, chunk: int, page: int) -> int:
        return (pu * self.controller.geometry.chunks_per_pu + chunk) \
            * self.pages_per_chunk + page

    def _decompose(self, ppn: int):
        chunk_global, page = divmod(ppn, self.pages_per_chunk)
        pu, chunk = divmod(chunk_global, self.controller.geometry.chunks_per_pu)
        return pu, chunk, page

    # -- HostAdapter entry point ----------------------------------------------------

    def submit(self, req: IORequest):
        event = self.sim.event()
        if req.kind == IOKind.FLUSH:
            self.sim.process(self._flush_then(event))
        elif req.kind == IOKind.TRIM:
            self.sim.process(self._trim(req, event))
        elif req.kind.is_write:
            self.sim.process(self._write(req, event))
        else:
            self.sim.process(self._read(req, event))
        return event

    # -- write path -------------------------------------------------------------------

    def _write(self, req: IORequest, event):
        tracer = self.sim.tracer
        with (tracer.span("ocssd.pblk.write", req.req_id,
                          nsectors=req.nsectors)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            req.t_device = self.sim.now
            spp = self.sectors_per_page
            end = req.slba + req.nsectors
            for lpn in range(req.slba // spp, -(-end // spp)):
                if lpn >= self.logical_pages:
                    raise ValueError(f"lpn {lpn} beyond pblk capacity")
                yield from self.cpu.execute(_MIX_WRITE_ENTRY, kernel=True)
                # the sectors [lo, hi) of this page the write covers
                lo = max(req.slba - lpn * spp, 0)
                hi = min(end - lpn * spp, spp)
                base = yield from self._buffer_slot(lpn, hi - lo < spp,
                                                    req.req_id)
                payload = None
                if self.data_emulation and req.data is not None:
                    # a fresh buffer: a flush may hold the old one
                    payload = bytearray(base or bytes(self.page_size))
                    off = (lpn * spp + lo - req.slba) * 512
                    chunk = req.data[off:off + (hi - lo) * 512]
                    payload[lo * 512:lo * 512 + len(chunk)] = chunk
                self._buffer[lpn] = payload
                self._buffer.move_to_end(lpn)
                self.writes_buffered += 1
                yield from self.memory.access(self.page_size, write=True)
            if len(self._buffer) >= self.buffer_capacity_pages // 2:
                self._start_flush()
            req.t_backend_done = self.sim.now
        event.succeed(None)

    def _buffer_slot(self, lpn: int, partial: bool, track: int):
        """Wait until the buffer has room for ``lpn``; for a page the
        write covers only partly, return the page's current bytes.

        Those come from the buffer if the page is there, else from one
        vector read of its mapped flash page on the write's ``track``
        (charged with data emulation off too, as the ICL charges its
        read-modify-write fetches), else ``None``: an unmapped page
        reads zeros.  The checks repeat after every wait, so the bytes
        are current when the caller inserts the page, with no yield in
        between.
        """
        fetched_ppn, fetched = UNMAPPED, None
        while True:
            while len(self._buffer) >= self.buffer_capacity_pages:
                self._start_flush()
                waiter = self.sim.event()
                self._buffer_waiters.append(waiter)
                yield waiter
            if not partial:
                return None
            if lpn in self._buffer:
                return self._buffer[lpn]
            ppn = self.l2p[lpn]
            if ppn == fetched_ppn:
                return fetched
            (fetched,) = yield from self.controller.vector_read(
                [ppn], track=track)
            fetched_ppn = ppn

    def _start_flush(self) -> None:
        if self._flush_failure is not None:
            raise RuntimeError(
                "pblk flush daemon previously failed") from self._flush_failure
        if not self._flush_running:
            self._flush_running = True
            self.sim.process(self._flush_daemon())

    def _flush_daemon(self):
        try:
            while (len(self._buffer) > self.buffer_capacity_pages // 4
                   or self._buffer_waiters
                   or (self._force_drain and self._buffer)):
                batch: List[int] = []
                seen = set()
                while self._buffer and len(batch) < 2 * self.num_pu:
                    lpn, _payload = next(iter(self._buffer.items()))
                    if lpn in seen:
                        break   # wrapped around a small buffer
                    seen.add(lpn)
                    batch.append(lpn)
                    self._buffer.move_to_end(lpn)
                if not batch:
                    break
                yield from self._flush_batch(batch)
        except BaseException as exc:
            # remember why we died so waiters don't respawn us forever
            self._flush_failure = exc
            raise
        finally:
            self._flush_running = False

    def _flush_batch(self, lpns: List[int]):
        """Stripe a batch of buffered pages across parallel units.

        GC for every target PU runs *before* any allocation: flash
        programs must land in allocation order per chunk, so a GC that
        allocated-and-programmed mid-batch would violate the device's
        in-order write rule for pages the batch already reserved.
        """
        targets = []
        for _ in lpns:
            targets.append(self._next_pu())
        for pu in sorted(set(targets)):
            yield from self._gc_if_needed(pu)

        by_pu: Dict[int, List[int]] = {}
        placements: Dict[int, int] = {}
        snapshots: Dict[int, Optional[bytearray]] = {}
        for lpn, pu in zip(lpns, targets):
            yield from self.cpu.execute(_MIX_FLUSH_PAGE, kernel=True)
            snapshots[lpn] = self._buffer.get(lpn)
            ppn = self._allocate(pu)
            placements[lpn] = ppn
            by_pu.setdefault(pu, []).append(lpn)

        writes = []
        for pu, pu_lpns in by_pu.items():
            ppns = [placements[lpn] for lpn in pu_lpns]
            data = None
            if self.data_emulation:
                data = [bytes(snapshots[lpn] or bytes(self.page_size))
                        for lpn in pu_lpns]
            writes.append(self.sim.process(
                self.controller.vector_write(ppns, data)))
        for proc in writes:
            yield proc

        for lpn, ppn in placements.items():
            self.pages_flushed += 1
            if lpn not in self._buffer:
                # a TRIM deallocated the page mid-flush: it stays unbound
                self.controller.invalidate(ppn)
                continue
            old = self.l2p[lpn]
            self.l2p[lpn] = ppn
            self.p2l[ppn] = lpn
            pu, chunk, _page = self._decompose(ppn)
            self._pus[pu].valid[chunk] += 1
            if old != UNMAPPED:
                self._invalidate(old)
            # a write that re-dirtied the page mid-flush keeps its entry
            if self._buffer.get(lpn) is snapshots[lpn]:
                self._buffer.pop(lpn, None)
            self._wake_buffer_waiters()

    def _wake_buffer_waiters(self) -> None:
        while self._buffer_waiters and \
                len(self._buffer) < self.buffer_capacity_pages:
            self._buffer_waiters.popleft().succeed()

    def _invalidate(self, ppn: int) -> None:
        pu, chunk, _page = self._decompose(ppn)
        self._pus[pu].valid[chunk] -= 1
        self.p2l[ppn] = UNMAPPED
        self.controller.invalidate(ppn)

    def _next_pu(self) -> int:
        self._pu_cursor = (self._pu_cursor + 1) % self.num_pu
        return self._pu_cursor

    def _allocate(self, pu: int) -> int:
        state = self._pus[pu]
        if state.active is None:
            if not state.free:
                raise RuntimeError(f"pblk: PU {pu} has no free chunks")
            state.active = state.free.popleft()
            state.next_page = 0
        ppn = self._ppn(pu, state.active, state.next_page)
        state.next_page += 1
        if state.next_page >= self.pages_per_chunk:
            state.active = None
        return ppn

    # -- read path -----------------------------------------------------------------------

    def _read(self, req: IORequest, event):
        tracer = self.sim.tracer
        with (tracer.span("ocssd.pblk.read", req.req_id,
                          nsectors=req.nsectors)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            req.t_device = self.sim.now
            first_lpn = req.slba // self.sectors_per_page
            n_pages = max(1, -(-(req.slba % self.sectors_per_page
                                 + req.nsectors)
                               // self.sectors_per_page))
            chunks: List[Optional[bytes]] = [None] * n_pages
            flash: List[tuple] = []    # (index, ppn) needing a media read
            for i in range(n_pages):
                lpn = first_lpn + i
                yield from self.cpu.execute(_MIX_READ_LOOKUP, kernel=True)
                if lpn in self._buffer:
                    yield from self.memory.access(self.page_size)
                    buffered = self._buffer[lpn]
                    chunks[i] = (bytes(buffered) if buffered is not None
                                 else bytes(self.page_size))
                    continue
                ppn = self.l2p[lpn] if lpn < self.logical_pages \
                    else UNMAPPED
                if ppn == UNMAPPED:
                    chunks[i] = bytes(self.page_size)
                else:
                    flash.append((i, ppn))
            if flash:
                # one vector read covers every missing page (single command)
                payloads = yield from self.controller.vector_read(
                    [ppn for _i, ppn in flash], track=req.req_id)
                for (i, _ppn), payload in zip(flash, payloads):
                    chunks[i] = payload or bytes(self.page_size)
            req.t_backend_done = self.sim.now
        if self.data_emulation:
            whole = b"".join(chunks)
            start = (req.slba % self.sectors_per_page) * 512
            event.succeed(whole[start:start + req.nbytes])
        else:
            event.succeed(None)

    # -- trim ---------------------------------------------------------------------------

    def _trim(self, req: IORequest, event):
        """Deallocate every page the range covers whole: drop it from the
        write buffer, unbind it and invalidate its flash page.  A page the
        range covers only in part keeps its bytes, since deallocation is
        advisory.  No vector read and no data phase; a flush batch still
        programming one of these pages leaves it unbound."""
        tracer = self.sim.tracer
        with (tracer.span("ocssd.pblk.trim", req.req_id,
                          nsectors=req.nsectors)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            req.t_device = self.sim.now
            spp = self.sectors_per_page
            end = req.slba + req.nsectors
            last = -(-end // spp) - 1   # the last page the range touches
            if last >= self.logical_pages:
                raise ValueError(f"lpn {last} beyond pblk capacity")
            for lpn in range(-(-req.slba // spp), end // spp):
                yield from self.cpu.execute(_MIX_READ_LOOKUP, kernel=True)
                self._buffer.pop(lpn, None)
                ppn = self.l2p[lpn]
                if ppn != UNMAPPED:
                    self.l2p[lpn] = UNMAPPED
                    self._invalidate(ppn)
            self._wake_buffer_waiters()
            req.t_backend_done = self.sim.now
        event.succeed(None)

    # -- flush / GC -----------------------------------------------------------------------

    def _flush_then(self, event):
        self._force_drain = True
        try:
            while self._buffer:
                self._start_flush()
                yield self.sim.timeout(50_000)
        finally:
            self._force_drain = False
        event.succeed(None)

    def _gc_if_needed(self, pu: int):
        state = self._pus[pu]
        if len(state.free) > self.gc_threshold_chunks or self._gc_busy[pu]:
            return
        self._gc_busy[pu] = True
        try:
            victim = self._pick_victim(pu)
            if victim is None:
                return
            yield from self._collect(pu, victim)
        finally:
            self._gc_busy[pu] = False

    def _pick_victim(self, pu: int) -> Optional[int]:
        state = self._pus[pu]
        candidates = [c for c in range(len(state.valid))
                      if c != state.active and state.valid[c] >= 0
                      and self._chunk_written(pu, c)
                      and state.valid[c] < self.pages_per_chunk]
        if not candidates:
            return None
        return min(candidates, key=lambda c: state.valid[c])

    def _chunk_written(self, pu: int, chunk: int) -> bool:
        state = self._pus[pu]
        return chunk not in state.free and chunk != state.active

    def _collect(self, pu: int, victim: int):
        base = self._ppn(pu, victim, 0)
        live = [(self.p2l[base + page], base + page)
                for page in range(self.pages_per_chunk)
                if self.p2l[base + page] != UNMAPPED]
        for lpn, old_ppn in live:
            yield from self.cpu.execute(_MIX_GC_PAGE, kernel=True)
            payloads = yield from self.controller.vector_read([old_ppn])
            new_pu = self._next_pu()
            if not self._pus[new_pu].free and \
                    self._pus[new_pu].active is None:
                new_pu = pu
            new_ppn = self._allocate(new_pu)
            yield from self.controller.vector_write(
                [new_ppn], [payloads[0]] if self.data_emulation else None)
            if self.p2l[old_ppn] != lpn:
                # trimmed while it migrated: the copy stays unbound
                self.controller.invalidate(new_ppn)
                continue
            self.l2p[lpn] = new_ppn
            self.p2l[new_ppn] = lpn
            npu, nchunk, _ = self._decompose(new_ppn)
            self._pus[npu].valid[nchunk] += 1
            self._invalidate(old_ppn)
            self.gc_pages_migrated += 1
        ok = yield from self.controller.vector_erase(pu, victim)
        self._pus[pu].valid[victim] = 0
        if ok:
            self._pus[pu].free.append(victim)
            self.gc_chunks_reclaimed += 1
        else:
            # chunk went OFFLINE: drop it from the pool for good
            self._pus[pu].valid[victim] = self.pages_per_chunk
            self.chunks_retired += 1
