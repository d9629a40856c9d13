"""Physical flash addressing.

A physical page is identified either structurally (channel, way, plane,
block, page) or by a flat physical page number (PPN).  The *parallel
unit* — one plane of one die — is the grain of program/read parallelism
and the grain at which the FTL keeps write pointers.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.ssd.config import FlashGeometry


class PPA(NamedTuple):
    """Structured physical page address."""

    channel: int
    way: int          # package*dies_per_package + die within the channel
    plane: int
    block: int
    page: int


class AddressMapper:
    """Converts between PPNs, PPAs and parallel-unit indices."""

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        self._pages_per_unit = geometry.pages_per_plane
        self._units_per_channel = (geometry.planes_per_die
                                   * geometry.ways_per_channel)

    @property
    def pages_per_unit(self) -> int:
        return self._pages_per_unit

    def unit_index(self, channel: int, way: int, plane: int) -> int:
        geom = self.geometry
        if not (0 <= channel < geom.channels):
            raise ValueError(f"channel {channel} out of range")
        if not (0 <= way < geom.ways_per_channel):
            raise ValueError(f"way {way} out of range")
        if not (0 <= plane < geom.planes_per_die):
            raise ValueError(f"plane {plane} out of range")
        return (channel * geom.ways_per_channel + way) * geom.planes_per_die + plane

    def unit_to_cwp(self, unit: int):
        geom = self.geometry
        plane = unit % geom.planes_per_die
        die = unit // geom.planes_per_die
        way = die % geom.ways_per_channel
        channel = die // geom.ways_per_channel
        return channel, way, plane

    def die_of_unit(self, unit: int) -> int:
        return unit // self.geometry.planes_per_die

    def channel_of_unit(self, unit: int) -> int:
        return unit // self._units_per_channel

    def ppn(self, ppa: PPA) -> int:
        geom = self.geometry
        unit = self.unit_index(ppa.channel, ppa.way, ppa.plane)
        if not (0 <= ppa.block < geom.blocks_per_plane):
            raise ValueError(f"block {ppa.block} out of range")
        if not (0 <= ppa.page < geom.pages_per_block):
            raise ValueError(f"page {ppa.page} out of range")
        return (unit * self._pages_per_unit
                + ppa.block * geom.pages_per_block + ppa.page)

    def ppn_from_unit(self, unit: int, block: int, page: int) -> int:
        geom = self.geometry
        return unit * self._pages_per_unit + block * geom.pages_per_block + page

    def ppa(self, ppn: int) -> PPA:
        geom = self.geometry
        if not (0 <= ppn < geom.total_physical_pages):
            raise ValueError(f"ppn {ppn} out of range")
        unit, offset = divmod(ppn, self._pages_per_unit)
        block, page = divmod(offset, geom.pages_per_block)
        channel, way, plane = self.unit_to_cwp(unit)
        return PPA(channel, way, plane, block, page)

    def unit_of_ppn(self, ppn: int) -> int:
        return ppn // self._pages_per_unit

    def block_of_ppn(self, ppn: int) -> int:
        return (ppn % self._pages_per_unit) // self.geometry.pages_per_block

    def page_of_ppn(self, ppn: int) -> int:
        return ppn % self.geometry.pages_per_block
