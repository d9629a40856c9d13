"""Flash cell-array state: page lifecycle, in-order programming, wear.

The array enforces the physical constraints the paper describes:
erase-before-write (a page can only be programmed when FREE), per-page
reads/writes vs per-block erases, and strictly in-order page programming
within a block (MLC/TLC interference rule).
"""

from __future__ import annotations

import enum
from typing import Iterator, List

from repro.ssd.config import FlashGeometry
from repro.ssd.storage.address import AddressMapper


class PageState(enum.IntEnum):
    FREE = 0
    VALID = 1
    INVALID = 2


class BlockState:
    """State of one physical block within a parallel unit."""

    __slots__ = ("index", "next_page", "valid_count", "erase_count",
                 "_valid_bits", "_programmed_bits", "last_write_time")

    def __init__(self, index: int) -> None:
        self.index = index
        self.next_page = 0          # in-order write pointer
        self.valid_count = 0
        self.erase_count = 0
        self._valid_bits = 0        # bit i set => page i VALID
        self._programmed_bits = 0   # bit i set => page i programmed
        self.last_write_time = 0    # for cost-benefit GC "age"

    def page_state(self, page: int) -> PageState:
        if not self._programmed_bits >> page & 1:
            return PageState.FREE
        if self._valid_bits >> page & 1:
            return PageState.VALID
        return PageState.INVALID

    def program(self, page: int, now: int) -> None:
        self.program_run(page, 1, now)

    def program_run(self, first: int, count: int, now: int) -> None:
        """Program ``count`` pages from ``first`` on, in page order."""
        if first != self.next_page:
            raise RuntimeError(
                f"out-of-order program: block {self.index} expects page "
                f"{self.next_page}, got {first}")
        run = ((1 << count) - 1) << first
        self._programmed_bits |= run
        self._valid_bits |= run
        self.next_page += count
        self.valid_count += count
        self.last_write_time = now

    def invalidate(self, page: int) -> None:
        if not self._programmed_bits >> page & 1:
            raise RuntimeError(f"invalidate of FREE page {page}")
        if not self._valid_bits >> page & 1:
            raise RuntimeError(f"double invalidate of page {page}")
        self._valid_bits &= ~(1 << page)
        self.valid_count -= 1

    def erase(self) -> None:
        self.next_page = 0
        self.valid_count = 0
        self._valid_bits = 0
        self._programmed_bits = 0
        self.erase_count += 1

    def valid_pages(self) -> Iterator[int]:
        bits = self._valid_bits
        page = 0
        while bits:
            if bits & 1:
                yield page
            bits >>= 1
            page += 1

    @property
    def is_full(self) -> bool:
        return self.next_page >= 0 and self._programmed_bits != 0

    def is_fully_programmed(self, pages_per_block: int) -> bool:
        return self.next_page >= pages_per_block


class FlashArray:
    """All block states, organised per parallel unit (die-plane)."""

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self.mapper = AddressMapper(geometry)
        self._blocks: List[List[BlockState]] = [
            [BlockState(b) for b in range(geometry.blocks_per_plane)]
            for _ in range(geometry.parallel_units)
        ]
        self.total_programs = 0
        self.total_erases = 0

    def block(self, unit: int, block: int) -> BlockState:
        return self._blocks[unit][block]

    def blocks_of_unit(self, unit: int) -> List[BlockState]:
        return self._blocks[unit]

    def page_state(self, ppn: int) -> PageState:
        unit = self.mapper.unit_of_ppn(ppn)
        block = self.mapper.block_of_ppn(ppn)
        page = self.mapper.page_of_ppn(ppn)
        return self._blocks[unit][block].page_state(page)

    def program_ppn(self, ppn: int, now: int) -> None:
        self.program_run(ppn, 1, now)

    def program_run(self, ppn: int, count: int, now: int) -> None:
        """Program ``count`` consecutive pages of one block from ``ppn``."""
        unit = self.mapper.unit_of_ppn(ppn)
        block = self.mapper.block_of_ppn(ppn)
        page = self.mapper.page_of_ppn(ppn)
        self._blocks[unit][block].program_run(page, count, now)
        self.total_programs += count

    def invalidate_ppn(self, ppn: int) -> None:
        unit = self.mapper.unit_of_ppn(ppn)
        block = self.mapper.block_of_ppn(ppn)
        page = self.mapper.page_of_ppn(ppn)
        self._blocks[unit][block].invalidate(page)

    def erase_block(self, unit: int, block: int) -> None:
        state = self._blocks[unit][block]
        if state.valid_count != 0:
            raise RuntimeError(
                f"erasing block {block} of unit {unit} with "
                f"{state.valid_count} valid pages would lose data")
        state.erase()
        self.total_erases += 1

    def erase_counts(self) -> List[int]:
        return [blk.erase_count for unit in self._blocks for blk in unit]

    def wear_spread(self) -> int:
        counts = self.erase_counts()
        return max(counts) - min(counts) if counts else 0

    def valid_page_total(self) -> int:
        return sum(blk.valid_count for unit in self._blocks for blk in unit)
