"""Physical page allocation: write pointers, free pools, superpage striping.

Each parallel unit (die-plane) owns an *active block* with an in-order
write pointer and a pool of erased blocks.  Superpages stripe one page
slot per unit across a configurable channel/way span, so a full-line
flush programs all spanned units in parallel — the multi-channel,
multi-way parallelism of Figure 2.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.ssd.config import SSDConfig
from repro.ssd.storage.array import FlashArray


class OutOfBlocksError(RuntimeError):
    """A unit has no erased block to allocate from (GC must run first)."""


class _UnitState:
    __slots__ = ("free", "active", "filled", "retired")

    def __init__(self, blocks: int) -> None:
        self.free: Deque[int] = deque(range(blocks))
        self.active: Optional[int] = None
        # insertion-ordered set of fully-programmed blocks: O(1) add and
        # remove, FIFO iteration (same order the old list gave)
        self.filled: Dict[int, None] = {}
        self.retired: List[int] = []


class PageAllocator:
    """Write-pointer allocation over all parallel units."""

    def __init__(self, config: SSDConfig, array: FlashArray) -> None:
        self.config = config
        self.array = array
        geom = config.geometry
        self._units = [_UnitState(geom.blocks_per_plane)
                       for _ in range(geom.parallel_units)]
        self._span_channels = config.superpage_channels or geom.channels
        self._span_ways = config.superpage_ways
        self._slots = self._span_channels * self._span_ways * geom.planes_per_die
        if geom.channels % self._span_channels:
            raise ValueError("superpage channel span must divide channel count")
        if geom.ways_per_channel % self._span_ways:
            raise ValueError("superpage way span must divide way count")
        n_cgroups = geom.channels // self._span_channels
        n_wgroups = geom.ways_per_channel // self._span_ways
        self._banded = config.fil.placement == "banded"
        # the band width's denominator
        self._logical_lines = max(1, config.logical_capacity
                                  // config.superpage_size)
        # slot->unit tuple of each (channel, way) group, in the order
        # lines reach them: under rotate line l uses group l % groups,
        # channel groups first; under banded band b uses group b,
        # channel-major, so adjacent bands share a channel and a tenant
        # holding a contiguous run of bands owns whole channels (bus
        # isolation), not just whole dies
        if self._banded:
            order = [(band // n_wgroups, band % n_wgroups)
                     for band in range(n_cgroups * n_wgroups)]
        else:
            order = [(index % n_cgroups, index // n_cgroups)
                     for index in range(n_cgroups * n_wgroups)]
        self._group_units = [self._slot_units(cgroup, wgroup)
                             for cgroup, wgroup in order]

    # -- superpage geometry -------------------------------------------------

    @property
    def slots_per_line(self) -> int:
        return self._slots

    def line_units(self, line_id: int) -> Tuple[int, ...]:
        """Parallel units backing each page slot of a logical line.

        With ``fil.placement == "rotate"`` (default), consecutive lines
        rotate across way groups (and channel groups if the span is
        partial) so streams pipeline over all resources.  With
        ``"banded"``, the logical line space is cut into one contiguous
        band per (channel, way) group instead: a namespace confined to
        one band touches only its own dies, and since GC works per
        parallel unit, its garbage collection cannot disturb other
        bands (die-level tenant isolation; see docs/MULTITENANT.md).
        """
        groups = self._group_units
        if self._banded:
            return groups[min(len(groups) - 1,
                              line_id * len(groups) // self._logical_lines)]
        return groups[line_id % len(groups)]

    def line_groups(self, n_lines: int) -> List[Tuple[Tuple[int, ...], range]]:
        """Every (channel, way) group's slot->unit tuple with the lines
        below ``n_lines`` it backs: each ``len(groups)``-th line under
        ``rotate``, one contiguous band under ``banded``.

        A unit sits in one group at one slot, so it holds one page of
        each of its group's lines; the groups partition the lines.
        """
        groups = self._group_units
        if not self._banded:
            return [(units, range(index, n_lines, len(groups)))
                    for index, units in enumerate(groups)]
        # band b holds the lines with
        # line * len(groups) // _logical_lines == b (the last band also
        # the rest): they start at this ceiling
        starts = [-(-band * self._logical_lines // len(groups))
                  for band in range(len(groups))] + [n_lines]
        return [(units, range(min(starts[band], n_lines),
                              min(starts[band + 1], n_lines)))
                for band, units in enumerate(groups)]

    def _slot_units(self, cgroup: int, wgroup: int) -> Tuple[int, ...]:
        """The unit behind each slot of a line placed on this group."""
        geom = self.config.geometry
        planes = geom.planes_per_die
        ways = geom.ways_per_channel
        order = self.config.fil.parallelism_order
        units: List[int] = []
        for slot in range(self._slots):
            if order == "way_first":
                w_in = slot // (self._span_channels * planes)
                rest = slot % (self._span_channels * planes)
                ch_in = rest // planes
            else:  # channel_first
                ch_in = slot // (self._span_ways * planes)
                rest = slot % (self._span_ways * planes)
                w_in = rest // planes
            plane = rest % planes
            channel = cgroup * self._span_channels + ch_in
            way = wgroup * self._span_ways + w_in
            units.append((channel * ways + way) * planes + plane)
        return tuple(units)

    # -- allocation -----------------------------------------------------------

    def free_blocks(self, unit: int) -> int:
        state = self._units[unit]
        return len(state.free) + (1 if state.active is None else 0)

    def needs_gc(self, unit: int) -> bool:
        return len(self._units[unit].free) <= self.config.ftl.gc_threshold_free_blocks

    def can_allocate(self, unit: int) -> bool:
        state = self._units[unit]
        if state.active is not None:
            return True
        return bool(state.free)

    def free_pages(self, unit: int) -> int:
        """Pages the unit can still program: the rest of its active
        block plus every free block."""
        state = self._units[unit]
        pages = self.config.geometry.pages_per_block
        room = len(state.free) * pages
        if state.active is not None:
            room += pages - self.array.block(unit, state.active).next_page
        return room

    def allocate(self, unit: int, now: int) -> int:
        """Claim the next in-order page of the unit's active block.

        Updates the array state immediately (the physical write pointer
        advanced); the caller charges flash timing separately.
        """
        return self.allocate_run(unit, 1, now)[0]

    def allocate_run(self, unit: int, count: int,
                     now: int) -> Tuple[int, int]:
        """Claim up to ``count`` next in-order pages of the unit's active
        block, as many ``allocate`` calls would; returns the first PPN
        and how many were claimed (fewer when the block fills first).
        """
        pages = self.config.geometry.pages_per_block
        state = self._units[unit]
        if state.active is None:
            if not state.free:
                raise OutOfBlocksError(f"unit {unit} has no free blocks")
            state.active = state.free.popleft()
        block = self.array.block(unit, state.active)
        first = block.next_page
        count = min(count, pages - first)
        ppn = self.array.mapper.ppn_from_unit(unit, state.active, first)
        self.array.program_run(ppn, count, now)
        if block.is_fully_programmed(pages):
            state.filled[state.active] = None
            state.active = None
        return ppn, count

    # -- GC support -------------------------------------------------------------

    def filled_blocks(self, unit: int) -> List[int]:
        return list(self._units[unit].filled)

    def reclaim(self, unit: int, block: int) -> None:
        """Return an erased block to the unit's free pool."""
        state = self._units[unit]
        state.filled.pop(block, None)
        state.free.append(block)

    def retire_block(self, unit: int, block: int) -> None:
        """Bad-block management: take a failed block out of service."""
        state = self._units[unit]
        state.filled.pop(block, None)
        if block in state.free:
            state.free.remove(block)
        if state.active == block:
            state.active = None
        state.retired.append(block)

    def retired_blocks(self, unit: int) -> List[int]:
        return list(self._units[unit].retired)

    def total_retired(self) -> int:
        return sum(len(state.retired) for state in self._units)

    def gc_candidates(self, unit: int) -> List[int]:
        """Blocks eligible as GC victims: fully programmed, not active."""
        pages = self.config.geometry.pages_per_block
        return [b for b in self._units[unit].filled
                if self.array.block(unit, b).valid_count < pages]
