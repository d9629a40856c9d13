"""Address translation tables: page-level, block-level and hybrid mapping.

All mappings share one interface (``lookup``, ``bind``, ``unbind``) over
logical page numbers; the FTL composes them with allocation and GC.  The
reverse map supports GC migration and integrity checks.

The page and block tables are ``array("i")`` tables of 4-byte entries.
Each holds indices into the other, so while every table is shorter than
``2**31`` entries, 4 bytes hold every entry; a longer one is rejected.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Optional

from repro.ssd.config import SSDConfig

UNMAPPED = -1

#: entries :meth:`PageMapping.unbind_below` compares at once (64 KiB)
_UNBIND_CHUNK = 16384
#: entries :func:`counting_table` appends at once: one 2-byte counter
_COUNT_CHUNK = 2 ** 16


def _check_length(n: int) -> None:
    if not 0 <= n < 2 ** 31:
        raise ValueError(f"a mapping table of {n} entries does not fit "
                         "4-byte page numbers (it needs fewer than 2**31)")


def unmapped_table(n: int) -> array:
    """A table of ``n`` UNMAPPED entries."""
    _check_length(n)
    return array("i", (UNMAPPED,)) * n


def counting_table(n: int) -> array:
    """The table 0, 1, ..., n - 1, built with no per-entry Python work.

    It is appended ``2**16`` entries at a time from one little-endian
    chunk: the low two bytes of a chunk's entries count 0 to 65 535 and
    are written once; the high two hold the chunk's number, so each
    chunk rewrites them with two strided ``bytearray`` assignments.
    """
    _check_length(n)
    raw = bytearray(4 * _COUNT_CHUNK)
    raw[0::4] = bytes(range(256)) * 256
    raw[1::4] = b"".join(bytes((byte,)) * 256 for byte in range(256))
    table = array("i")
    for chunk in range(-(-n // _COUNT_CHUNK)):
        raw[2::4] = bytes((chunk & 255,)) * _COUNT_CHUNK
        raw[3::4] = bytes((chunk >> 8,)) * _COUNT_CHUNK
        entries = min(_COUNT_CHUNK, n - chunk * _COUNT_CHUNK)
        table.frombytes(memoryview(raw)[:4 * entries])
    if sys.byteorder == "big":
        table.byteswap()
    return table


class PageMapping:
    """Pure page-level map: any LPN can live on any physical page.

    Implements the paper's default (super-page-basis page mapping): full
    superpage writes stripe across units; the *partial-update hashmap*
    (Section IV-C) is modeled as an auxiliary map the FTL consults when a
    page was selectively remapped outside its home superpage stripe.
    """

    kind = "page"

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.l2p = unmapped_table(config.logical_pages)
        self.p2l = unmapped_table(config.geometry.total_physical_pages)
        # LPNs remapped individually by the partial-update optimisation.
        self.partial_hashmap: Dict[int, int] = {}

    @property
    def mapped_count(self) -> int:
        return len(self.l2p) - self.l2p.count(UNMAPPED)

    def lookup(self, lpn: int) -> int:
        return self.l2p[lpn]

    def reverse(self, ppn: int) -> int:
        return self.p2l[ppn]

    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        """Map ``lpn`` to ``ppn``; returns the displaced old PPN (or None)."""
        old = self.l2p[lpn]
        self.l2p[lpn] = ppn
        self.p2l[ppn] = lpn
        if old != UNMAPPED:
            self.p2l[old] = UNMAPPED
            return old
        return None

    def unbind_below(self, limit: int) -> List[int]:
        """Unbind every LPN below ``limit`` as :meth:`bind` would displace
        it; returns the displaced PPNs (for the caller to invalidate).

        The prefix is compared a chunk at a time against a blank chunk,
        so a blank prefix costs neither per-entry Python work nor a
        prefix-sized copy."""
        blank = unmapped_table(_UNBIND_CHUNK)
        displaced: List[int] = []
        for start in range(0, limit, _UNBIND_CHUNK):
            where = slice(start, min(start + _UNBIND_CHUNK, limit))
            part = self.l2p[where]
            if part != blank[:len(part)]:
                displaced += [ppn for ppn in part if ppn != UNMAPPED]
                self.l2p[where] = blank[:len(part)]
        for ppn in displaced:
            self.p2l[ppn] = UNMAPPED
        return displaced

    def bind_run(self, lpns: range, first_ppn: int, counting: array) -> None:
        """Map a strided run of unbound LPNs onto the PPNs from
        ``first_ppn`` on, as :meth:`bind` would one pair at a time.
        ``counting`` is a :func:`counting_table` covering both ranges."""
        where = slice(lpns.start, lpns.stop, lpns.step)
        end = first_ppn + len(lpns)
        self.l2p[where] = counting[first_ppn:end]
        self.p2l[first_ppn:end] = counting[where]

    def unbind(self, lpn: int) -> Optional[int]:
        old = self.l2p[lpn]
        if old == UNMAPPED:
            return None
        self.l2p[lpn] = UNMAPPED
        self.p2l[old] = UNMAPPED
        self.partial_hashmap.pop(lpn, None)
        return old

    def mark_partial(self, lpn: int, ppn: int) -> None:
        self.partial_hashmap[lpn] = ppn

    def is_partial(self, lpn: int) -> bool:
        return lpn in self.partial_hashmap


class BlockMapping:
    """Block-level map: a logical block maps to one physical block.

    The page offset within the block is fixed, so an overwrite of any
    page forces migration of the whole logical block — the classic
    small-write penalty this scheme trades for a tiny mapping table.
    The FTL treats a migration requirement as the return value of
    :meth:`plan_write`.
    """

    kind = "block"

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        pages = config.geometry.pages_per_block
        self.pages_per_block = pages
        n_lblocks = -(-config.logical_pages // pages)
        self.l2p_block = unmapped_table(n_lblocks)
        # ppn-level reverse map kept for integrity checks
        self.p2l = unmapped_table(config.geometry.total_physical_pages)

    def lookup(self, lpn: int) -> int:
        lbn, off = divmod(lpn, self.pages_per_block)
        base = self.l2p_block[lbn]
        if base == UNMAPPED:
            return UNMAPPED
        return base + off

    def block_base(self, lbn: int) -> int:
        return self.l2p_block[lbn]

    def bind_block(self, lbn: int, first_ppn: int) -> Optional[int]:
        old = self.l2p_block[lbn]
        self.l2p_block[lbn] = first_ppn
        for off in range(self.pages_per_block):
            self.p2l[first_ppn + off] = lbn * self.pages_per_block + off
        return old if old != UNMAPPED else None

    def reverse(self, ppn: int) -> int:
        return self.p2l[ppn]


class HybridMapping:
    """Block map plus page-mapped log blocks (BAST-style hybrid).

    Sequential data lives in block-mapped *data blocks*; overwrites land
    in a bounded set of page-mapped *log* entries.  When the log fills,
    the FTL must merge (modeled as migrations).  Captures the behaviour
    class without modeling a specific commercial variant.
    """

    kind = "hybrid"

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.block_map = BlockMapping(config)
        self.log_map: Dict[int, int] = {}     # lpn -> ppn (newest wins)
        self._log_p2l: Dict[int, int] = {}    # ppn -> lpn for GC migration
        self.log_capacity = (config.ftl.hybrid_log_blocks
                             * config.geometry.pages_per_block)

    def lookup(self, lpn: int) -> int:
        if lpn in self.log_map:
            return self.log_map[lpn]
        return self.block_map.lookup(lpn)

    def reverse(self, ppn: int) -> int:
        if ppn in self._log_p2l:
            return self._log_p2l[ppn]
        return self.block_map.reverse(ppn)

    def log_full(self) -> bool:
        return len(self.log_map) >= self.log_capacity

    def bind_log(self, lpn: int, ppn: int) -> Optional[int]:
        old = self.log_map.get(lpn)
        self.log_map[lpn] = ppn
        if old is not None:
            self._log_p2l.pop(old, None)
        self._log_p2l[ppn] = lpn
        return old

    # GC migration entry point (same signature as PageMapping.bind)
    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        return self.bind_log(lpn, ppn)

    def drain_log(self) -> Dict[int, int]:
        """Take the whole log for merging; returns the drained entries."""
        drained, self.log_map = self.log_map, {}
        self._log_p2l.clear()
        return drained


def make_mapping(config: SSDConfig):
    """Factory keyed on ``config.ftl.mapping``."""
    table = {"page": PageMapping, "block": BlockMapping, "hybrid": HybridMapping}
    try:
        return table[config.ftl.mapping](config)
    except KeyError:
        raise ValueError(f"unknown mapping {config.ftl.mapping!r}") from None
