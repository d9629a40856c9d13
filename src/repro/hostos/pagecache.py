"""Host page cache for buffered I/O.

A 4 KB-page LRU cache over the block device.  Buffered reads hit here at
host-DRAM speed; buffered writes dirty pages that a writeback process
flushes.  Its footprint registers with the host-memory ledger, feeding
the Fig 15c DRAM-usage timelines.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.host.memory import HostMemory

PAGE = 4096
_SECTORS_PER_PAGE = PAGE // 512


class _CachedPage:
    __slots__ = ("dirty", "data")

    def __init__(self) -> None:
        self.dirty = False
        self.data: Optional[bytearray] = None


class PageCache:
    def __init__(self, sim, memory: HostMemory, capacity_bytes: int,
                 data_emulation: bool = False,
                 ledger_tag: str = "pagecache") -> None:
        self.sim = sim
        self.memory = memory
        self.capacity_pages = max(8, capacity_bytes // PAGE)
        self.data_emulation = data_emulation
        self.ledger_tag = ledger_tag
        self._pages: "OrderedDict[int, _CachedPage]" = OrderedDict()
        # the dirty pages' indices, kept in _pages' LRU order
        self._dirty: "OrderedDict[int, None]" = OrderedDict()
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
                self._dirty.move_to_end(index)
            return page
        page = _CachedPage()
        self._pages[index] = page
        self.memory.allocate(self.ledger_tag, PAGE)
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
            self._dirty.pop(index, None)
            self.memory.free(self.ledger_tag, PAGE)

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
                self._dirty[idx] = None   # _touch made it the newest page
            if self.data_emulation:
                off = i * PAGE
                page.data = bytearray(
                    data[off:off + PAGE] if data else bytes(PAGE))
        return True

    def dirty_count(self) -> int:
        return len(self._dirty)

    def dirty_pages(self, limit: Optional[int] = None) -> List[int]:
        """Dirty page indices, least recently used first; at most
        ``limit`` of them when given."""
        return list(islice(self._dirty, limit))

    def clean(self, index: int) -> None:
        page = self._pages.get(index)
        if page is not None:
            page.dirty = False
            self._dirty.pop(index, None)
            self.writebacks += 1

    def page_payload(self, index: int) -> Optional[bytes]:
        page = self._pages[index]
        return bytes(page.data) if page.data is not None else None

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
