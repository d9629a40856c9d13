"""The block-by-block preconditioning fill against the per-page loop.

``SSD.precondition_sequential`` fills each parallel unit's share of the
lines as strided runs, a block at a time.  The per-page loop it
replaced (one ``allocate`` + ``bind`` + ``invalidate_ppn`` per page, in
line order, with the unit placement recomputed per line) lives on here
as the reference: the two must leave identical device state across
presets, placements, parallelism orders, superpage spans and refills.
"""

from array import array

import pytest

from repro.bench.scenarios import _storm_config
from repro.core import presets
from repro.sim import Simulator
from repro.ssd.config import FILConfig, FlashGeometry
from repro.ssd.device import SSD
from repro.ssd.firmware.ftl import mapping as ftl_mapping
from repro.ssd.firmware.ftl.allocator import OutOfBlocksError
from repro.ssd.storage.array import BlockState

from tests.conftest import tiny_ssd_config


def _with_fil(config, superpage_channels=0, superpage_ways=1, **fil):
    return config.with_overrides(fil=FILConfig(**fil),
                                 superpage_channels=superpage_channels,
                                 superpage_ways=superpage_ways)


CONFIGS = {
    "tiny": tiny_ssd_config,
    "tiny-banded-way_first": lambda: _with_fil(
        tiny_ssd_config(), placement="banded", parallelism_order="way_first"),
    "intel750": presets.intel750,
    "850pro-banded": lambda: _with_fil(presets.samsung850pro(),
                                       placement="banded"),
    # a partial channel span with two ways: 2x2 line groups
    "ufs-2ch2way-way_first": lambda: _with_fil(
        presets.ufs_mobile(), superpage_channels=2, superpage_ways=2,
        parallelism_order="way_first"),
    "ufs-2ch2way-banded": lambda: _with_fil(
        presets.ufs_mobile(), superpage_channels=2, superpage_ways=2,
        placement="banded"),
    "bench-storm": _storm_config,
}

#: successive fill fractions; 0.3 then 0.5 rebinds the first 30 %,
#: which invalidates the pages the first fill placed
PLANS = {"full": (1.0,), "half": (0.5,), "refill": (0.3, 0.5)}

#: every config under every plan, but a banded refill: its first fill
#: puts each early band's whole share on that band's units, and the
#: second needs it again, more than their over-provisioning holds
CASES = [(name, plan) for name in CONFIGS for plan in PLANS
         if not (plan == "refill" and "banded" in name)]


def _formula_line_units(config, line_id):
    """The units of a line's slots, computed from scratch for one line."""
    geom = config.geometry
    planes, ways = geom.planes_per_die, geom.ways_per_channel
    span_c = config.superpage_channels or geom.channels
    span_w = config.superpage_ways
    n_cgroups, n_wgroups = geom.channels // span_c, ways // span_w
    if config.fil.placement == "banded":
        n_groups = n_cgroups * n_wgroups
        n_lines = config.logical_capacity // config.superpage_size
        band = min(n_groups - 1, line_id * n_groups // max(1, n_lines))
        cgroup, wgroup = band // n_wgroups, band % n_wgroups
    else:
        cgroup = line_id % n_cgroups
        wgroup = (line_id // n_cgroups) % n_wgroups
    units = []
    for slot in range(span_c * span_w * planes):
        if config.fil.parallelism_order == "way_first":
            w_in, rest = divmod(slot, span_c * planes)
            ch_in = rest // planes
        else:
            ch_in, rest = divmod(slot, span_w * planes)
            w_in = rest // planes
        channel = cgroup * span_c + ch_in
        way = wgroup * span_w + w_in
        units.append((channel * ways + way) * planes + rest % planes)
    return units


def _per_page_fill(ssd, fraction):
    """The reference: program and bind one page at a time, line by line."""
    ftl = ssd.ftl
    slots = ftl.allocator.slots_per_line
    n_lines = int(ssd.config.logical_pages * fraction) // slots
    placed = 0
    for line_id in range(n_lines):
        units = _formula_line_units(ssd.config, line_id)
        for slot in range(slots):
            lpn = ftl.line_lpn(line_id, slot)
            ppn = ftl.allocator.allocate(units[slot], ssd.sim.now)
            old = ftl.mapping.bind(lpn, ppn)
            if old is not None:
                ssd.array.invalidate_ppn(old)
            placed += 1
    return placed


def _state(ssd):
    """Everything a fill may change: both maps, every block's fields,
    every unit's pools and the program counter."""
    mapping, allocator = ssd.ftl.mapping, ssd.ftl.allocator
    return {
        "l2p": mapping.l2p[:],
        "p2l": mapping.p2l[:],
        "blocks": [tuple(getattr(block, field)
                         for field in BlockState.__slots__)
                   for unit in range(ssd.config.geometry.parallel_units)
                   for block in ssd.array.blocks_of_unit(unit)],
        "pools": [(list(unit.free), unit.active, list(unit.filled),
                   list(unit.retired)) for unit in allocator._units],
        "total_programs": ssd.array.total_programs,
    }


def _assert_same_state(got, want):
    assert got["l2p"] == want["l2p"]
    assert got["p2l"] == want["p2l"]
    assert got["blocks"] == want["blocks"]
    assert got["pools"] == want["pools"]
    assert got["total_programs"] == want["total_programs"]


@pytest.mark.parametrize("name,plan", CASES)
def test_block_fill_matches_per_page_fill(name, plan):
    bulk = SSD(Simulator(), CONFIGS[name]())
    reference = SSD(Simulator(), CONFIGS[name]())
    for fraction in PLANS[plan]:
        placed = bulk.precondition_sequential(fraction)
        assert placed == _per_page_fill(reference, fraction)
    _assert_same_state(_state(bulk), _state(reference))
    assert bulk.ftl.mapping.mapped_count == placed


@pytest.mark.parametrize("name", CONFIGS)
def test_line_units_match_the_formula(name):
    config = CONFIGS[name]()
    allocator = SSD(Simulator(), config).ftl.allocator
    n_lines = config.logical_pages // allocator.slots_per_line
    for line_id in range(n_lines):
        assert list(allocator.line_units(line_id)) == \
            _formula_line_units(config, line_id)


@pytest.mark.parametrize("name,plan", [("bench-storm", "full"),
                                       ("intel750", "full"),
                                       ("850pro-banded", "refill")])
def test_overfull_fill_changes_nothing(name, plan):
    """Repeating a full fill, or a banded refill, needs more pages than
    some unit has left: the fill must raise before programming or
    rebinding anything."""
    ssd = SSD(Simulator(), CONFIGS[name]())
    first, again = PLANS[plan][0], PLANS[plan][-1]
    ssd.precondition_sequential(first)
    before = _state(ssd)
    with pytest.raises(OutOfBlocksError):
        ssd.precondition_sequential(again)
    _assert_same_state(_state(ssd), before)


# -- the 4-byte tables ----------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 65_535, 65_536, 65_537,
                               491_520])
def test_counting_table_counts(n):
    assert ftl_mapping.counting_table(n) == array("i", range(n))


def test_tables_of_2_31_entries_are_rejected_unallocated(monkeypatch):
    """Page numbers must fit 4 bytes: a table of 2**31 entries raises
    before any buffer for it is built."""
    def refuse(*_args):
        raise AssertionError("a table buffer was allocated")
    monkeypatch.setattr(ftl_mapping, "array", refuse)
    monkeypatch.setattr(ftl_mapping, "bytearray", refuse, raising=False)
    for build in (ftl_mapping.unmapped_table, ftl_mapping.counting_table):
        with pytest.raises(ValueError, match="4-byte"):
            build(2 ** 31)
    # 2**32 physical pages, three quarters of them logical
    huge = tiny_ssd_config(geometry=FlashGeometry(
        channels=16, packages_per_channel=4, dies_per_package=4,
        planes_per_die=4, blocks_per_plane=4096, pages_per_block=1024))
    assert huge.logical_pages >= 2 ** 31
    with pytest.raises(ValueError, match="4-byte"):
        ftl_mapping.PageMapping(huge)


def test_intel750_tables_take_4_bytes_per_entry():
    tables = SSD(Simulator(), presets.intel750()).ftl.mapping
    assert (len(tables.l2p), len(tables.p2l)) == (393_216, 491_520)
    assert tables.l2p.itemsize == tables.p2l.itemsize == 4
