"""Host page cache: buffered I/O and its writeback.

A 4 KB-page LRU cache over the block layer, and the one owner of
buffered I/O, as Linux's filemap layer is.  :meth:`PageCache.serve`
serves a buffered read hit at host-DRAM speed or absorbs a buffered
write; once a quarter of the cache is dirty, a writeback process writes
dirty pages back in batches until an eighth is.  A page is *under
writeback* from the moment it is cleaned for its write until that
write completes (Linux's ``PG_writeback``).  A request that reaches the
block layer past the cache first calls :meth:`PageCache.write_and_wait`
(see :meth:`repro.core.system.FullSystem.submit_io`), which writes back
the dirty pages of its range, or every dirty page for a FLUSH, and
waits for their writebacks in flight.  The cache's footprint registers
with the host-memory ledger, feeding the Fig 15c DRAM-usage timelines.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from repro.common.iorequest import IOKind, IORequest
from repro.host.memory import HostMemory

PAGE = 4096
_SECTORS_PER_PAGE = PAGE // 512


class _CachedPage:
    __slots__ = ("dirty", "data")

    def __init__(self) -> None:
        self.dirty = False
        self.data: Optional[bytearray] = None


class PageCache:
    def __init__(self, sim, memory: HostMemory, blocklayer,
                 capacity_bytes: int, data_emulation: bool = False) -> None:
        self.sim = sim
        self.memory = memory
        #: the :class:`~repro.hostos.blocklayer.BlockLayer` that written-back
        #: pages go to
        self.blocklayer = blocklayer
        self.capacity_pages = max(8, capacity_bytes // PAGE)
        self.data_emulation = data_emulation
        self._pages: "OrderedDict[int, _CachedPage]" = OrderedDict()
        #: the dirty pages' indices, kept in _pages' LRU order
        self.dirty: "OrderedDict[int, None]" = OrderedDict()
        #: pages under writeback: each page cleaned for a write -> that
        #: write's completion event, pending until the device has the
        #: page.  Marks outlive eviction; the writeback process forgets
        #: its own once the write completes, and :meth:`write_and_wait`
        #: forgets the completed ones it finds.
        self.writing: Dict[int, Any] = {}
        #: True while the writeback process runs
        self.writeback_running = False
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- bookkeeping ------------------------------------------------------------

    def _page_range(self, slba: int, nsectors: int) -> range:
        first = slba // _SECTORS_PER_PAGE
        last = (slba + nsectors - 1) // _SECTORS_PER_PAGE
        return range(first, last + 1)

    def _touch(self, index: int) -> _CachedPage:
        """The page at ``index``, made most recently used (or allocated)."""
        page = self._pages.get(index)
        if page is not None:
            self._pages.move_to_end(index)
            if page.dirty:
                self.dirty.move_to_end(index)
            return page
        page = _CachedPage()
        self._pages[index] = page
        self.memory.allocate("pagecache", PAGE)
        return page

    def evict_candidates(self) -> List[Tuple[int, _CachedPage]]:
        """Pages to evict (LRU order) once over capacity; dirty ones first
        need writeback by the caller."""
        excess = len(self._pages) - self.capacity_pages
        if excess <= 0:
            return []
        return list(islice(self._pages.items(), excess))

    def drop(self, index: int) -> None:
        if self._pages.pop(index, None) is not None:
            self.dirty.pop(index, None)
            self.memory.free("pagecache", PAGE)

    # -- lookup/update ----------------------------------------------------------

    def lookup_read(self, slba: int, nsectors: int) -> bool:
        """True if the whole range is cached (a buffered-read hit)."""
        covered = all(idx in self._pages and
                      (not self.data_emulation
                       or self._pages[idx].data is not None)
                      for idx in self._page_range(slba, nsectors))
        if covered:
            self.hits += 1
            for idx in self._page_range(slba, nsectors):
                self._touch(idx)
        else:
            self.misses += 1
        return covered

    def read_data(self, slba: int, nsectors: int) -> Optional[bytes]:
        if not self.data_emulation:
            return None
        chunks = []
        for sector in range(slba, slba + nsectors):
            idx, within = divmod(sector, _SECTORS_PER_PAGE)
            page = self._pages[idx]
            data = page.data or bytearray(PAGE)
            chunks.append(bytes(data[within * 512:(within + 1) * 512]))
        return b"".join(chunks)

    def resident_data(self, slba: int,
                      nsectors: int) -> Optional[Dict[int, bytes]]:
        """The bytes of the range's cached pages, taken when a read that
        missed is issued (data emulation only; None otherwise)."""
        if not self.data_emulation:
            return None
        resident = {}
        for idx in self._page_range(slba, nsectors):
            page = self._pages.get(idx)
            if page is not None and page.data is not None:
                resident[idx] = bytes(page.data)
        return resident

    def install_read(self, slba: int, nsectors: int, data: Optional[bytes],
                     resident: Optional[Dict[int, bytes]] = None
                     ) -> Optional[bytes]:
        """Populate cache pages after a device read; returns the payload
        the reader should get.

        Only whole pages covered by the read are installed.  The device
        bytes can be older than the cache's: writeback may have cleaned,
        or even dropped, a page while the read was in flight.  So for both
        the cached pages and the payload, the cached bytes of a page that
        is dirty, or was cached when the read was issued and still is,
        win; then the bytes it held at issue (``resident``, from
        :meth:`resident_data`); then the device's.
        """
        newer = {}
        if self.data_emulation:
            resident = resident or {}
            for idx in self._page_range(slba, nsectors):
                page = self._pages.get(idx)
                if page is not None and page.data is not None and (
                        page.dirty or idx in resident):
                    newer[idx] = page.data
                elif idx in resident:
                    newer[idx] = resident[idx]
        for idx in self._page_range(slba, nsectors):
            page_first_sector = idx * _SECTORS_PER_PAGE
            if page_first_sector < slba or \
                    page_first_sector + _SECTORS_PER_PAGE > slba + nsectors:
                continue
            page = self._touch(idx)
            if self.data_emulation and not page.dirty:
                off = (page_first_sector - slba) * 512
                if idx in newer:
                    page.data = bytearray(newer[idx])
                else:
                    page.data = bytearray(data[off:off + PAGE]) if data \
                        else bytearray(PAGE)
        if not newer:
            return data
        merged = bytearray(data or bytes(nsectors * 512))
        for idx, source in newer.items():
            first = max(slba, idx * _SECTORS_PER_PAGE)
            end = min(slba + nsectors, (idx + 1) * _SECTORS_PER_PAGE)
            within = (first - idx * _SECTORS_PER_PAGE) * 512
            merged[(first - slba) * 512:(end - slba) * 512] = \
                source[within:within + (end - first) * 512]
        return bytes(merged)

    def write(self, slba: int, nsectors: int, data: Optional[bytes]) -> bool:
        """Buffered write into the cache.

        Returns True if fully absorbed; False when the range is not
        page-aligned (the caller must read-modify or fall back to direct).
        """
        if slba % _SECTORS_PER_PAGE or nsectors % _SECTORS_PER_PAGE:
            return False
        for i, idx in enumerate(self._page_range(slba, nsectors)):
            page = self._touch(idx)
            if not page.dirty:
                page.dirty = True
                self.dirty[idx] = None   # _touch made it the newest page
            if self.data_emulation:
                off = i * PAGE
                page.data = bytearray(
                    data[off:off + PAGE] if data else bytes(PAGE))
        return True

    def overwrite(self, slba: int, nsectors: int,
                  data: Optional[bytes]) -> None:
        """Copy a device write that bypasses the cache (or a TRIM's
        zeros, ``data`` None) into the range's resident pages.

        Called as the request is submitted, under data emulation only.
        Hits, misses, LRU order and dirty state are left alone: a dirty
        page stays dirty and its next writeback carries the new bytes.
        """
        for idx in self._page_range(slba, nsectors):
            page = self._pages.get(idx)
            if page is None or page.data is None:
                continue
            first = max(slba, idx * _SECTORS_PER_PAGE)
            end = min(slba + nsectors, (idx + 1) * _SECTORS_PER_PAGE)
            within = (first - idx * _SECTORS_PER_PAGE) * 512
            off, size = (first - slba) * 512, (end - first) * 512
            page.data[within:within + size] = \
                data[off:off + size] if data else bytes(size)

    def dirty_count(self) -> int:
        return len(self.dirty)

    def dirty_pages(self, limit: Optional[int] = None) -> List[int]:
        """Dirty page indices, least recently used first; at most
        ``limit`` of them when given."""
        return list(islice(self.dirty, limit))

    # -- buffered I/O and writeback ---------------------------------------------

    def serve(self, req: IORequest, stream_id: int):
        """Process generator: serve a buffered I/O from host DRAM.

        A read of a cached range is a hit; an aligned write is absorbed,
        and starts writeback on ``stream_id`` once a quarter of the cache
        is dirty.  Returns the request's completion event, already
        succeeded, or None when the request must go to the device.
        """
        if req.kind.is_read and self.lookup_read(req.slba, req.nsectors):
            yield from self.memory.access(req.nbytes)
            done = self.sim.event()
            done.succeed(self.read_data(req.slba, req.nsectors))
            return done
        if req.kind.is_write and self.write(req.slba, req.nsectors, req.data):
            yield from self.memory.access(req.nbytes, write=True)
            done = self.sim.event()
            done.succeed(None)
            if not self.writeback_running and \
                    len(self.dirty) >= self.capacity_pages // 4:
                self.writeback_running = True
                self.sim.process(self._writeback_loop(stream_id))
            return done
        return None

    def write_and_wait(self, req: IORequest, stream_id: int,
                       core: Optional[int]):
        """Process generator: write back the dirty pages of ``req``'s
        range in page order, then wait until no writeback of the range
        is in flight: Linux's ``filemap_write_and_wait_range`` before a
        direct I/O.  A FLUSH covers every page, as ``fsync`` does."""
        flush = req.kind is IOKind.FLUSH
        pages = self._page_range(req.slba, req.nsectors)
        dirty = self.dirty
        yield from self._write_back(
            sorted(dirty) if flush else [idx for idx in pages if idx in dirty],
            stream_id, core)
        # a writeback that starts while this one waits is waited for too
        writing = self.writing
        while True:
            pending = []
            for idx in sorted(writing) if flush else pages:
                done = writing.get(idx)
                if done is None:
                    continue
                if done.processed:
                    del writing[idx]
                else:
                    pending.append(done)
            if not pending:
                return
            for done in pending:
                yield done

    def _writeback_loop(self, stream_id: int):
        """Process: write dirty pages back, least recently used first, in
        batches of 16 until at most an eighth of the cache is dirty; after
        each batch, drop the clean pages over capacity."""
        writing = self.writing
        try:
            while len(self.dirty) > self.capacity_pages // 8:
                batch = yield from self._write_back(self.dirty_pages(16),
                                                    stream_id, None)
                for idx, done in batch:
                    yield done
                    # the write completed: forget its mark, unless a
                    # later writeback of the page replaced it
                    if writing.get(idx) is done:
                        del writing[idx]
                for idx, page in self.evict_candidates():
                    if not page.dirty:
                        self.drop(idx)
        finally:
            self.writeback_running = False

    def _write_back(self, indices: List[int], stream_id: int,
                    core: Optional[int]):
        """Process generator: clean and submit each page of ``indices``
        that is still dirty when its turn comes; returns ``(index,
        done)`` per page submitted, ``done`` being its write's
        completion event.

        A page's dirty bit is cleared before its submit yields, as
        Linux's ``clear_page_dirty_for_io`` does: a write landing during
        the submit re-dirties it for a later pass.  A page another
        writer cleaned meanwhile is skipped, as when that call returns
        false, so a page is written back once each time it is dirtied.
        The page is under writeback until ``done`` is processed.
        """
        pages, dirty, writing = self._pages, self.dirty, self.writing
        submit = self.blocklayer.submit
        submitted = []
        for idx in indices:
            if idx not in dirty:
                continue
            page = pages[idx]
            payload = bytes(page.data) if self.data_emulation else None
            done = self.sim.event()
            page.dirty = False
            del dirty[idx]
            self.writebacks += 1
            writing[idx] = done
            yield from submit(IORequest(IOKind.WRITE, idx * _SECTORS_PER_PAGE,
                                        _SECTORS_PER_PAGE, data=payload),
                              stream_id=stream_id, core=core, done=done)
            submitted.append((idx, done))
        return submitted

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
