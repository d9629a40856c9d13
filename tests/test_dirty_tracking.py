"""Incremental dirty tracking in the ICL and the host page cache.

The ICL keeps a dirty-slot count per line and a count of resident dirty
lines; the page cache keeps an index of its dirty pages in LRU order.
Under concurrent direct and buffered traffic, for every replacement
policy and associativity, each must equal a recount at every drain.
"""

import random

import pytest

from repro.common.iorequest import IOKind, IORequest
from repro.core.system import FullSystem
from repro.sim import AllOf
from repro.ssd.config import CacheConfig

from tests.conftest import tiny_ssd_config

ROUNDS = 12
OPS_PER_ROUND = 16
HOT_PAGES = 6


def assert_dirty_state_matches_recount(system):
    icl = system.ssd.icl
    dirty_lines = 0
    for line in icl._lines.values():
        dirty_slots = sum(state.dirty for state in line.slots.values())
        assert line.n_dirty == dirty_slots, f"line {line.line_id}"
        dirty_lines += dirty_slots > 0
    assert icl.dirty_line_count() == dirty_lines
    cache = system.pagecache
    recount = [i for i, p in cache._pages.items() if p.dirty]
    assert list(cache.dirty) == recount
    assert cache.dirty_count() == len(recount)


@pytest.mark.parametrize("associativity", ["full", "set", "direct"])
@pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
def test_dirty_counts_match_a_recount(replacement, associativity):
    config = tiny_ssd_config(cache=CacheConfig(
        replacement=replacement, associativity=associativity, n_sets=4,
        ways=2))
    system = FullSystem(device=config, interface="nvme",
                        page_cache_bytes=8 * 4096)
    sim = system.sim
    rng = random.Random(2024)
    pages = system.device_sectors // 8 // 2   # half the device, 4 KiB pages

    def flush():
        event = yield from system.submit_io(IORequest(IOKind.FLUSH, 0, 0))
        yield event

    def random_op():
        # half the ops hit a few hot pages, so rewrites, read hits and
        # trims meet dirty data; the rest spread out to force evictions
        hot = rng.random() < 0.5
        slba = rng.randrange(HOT_PAGES if hot else pages - 1) * 8
        nsectors = rng.choice((8, 16))
        roll = rng.random()
        if roll < 0.35:
            yield from system.write(slba, nsectors)
        elif roll < 0.5:
            yield from system.read(slba, nsectors)
        elif roll < 0.65:
            yield from system.write(slba, nsectors, direct=False)
        elif roll < 0.8:
            yield from system.read(slba, nsectors, direct=False)
        elif roll < 0.9:
            yield from system.trim(slba, nsectors)
        else:
            yield from flush()

    def scenario():
        for _ in range(ROUNDS):
            yield AllOf(sim, [sim.process(random_op())
                              for _ in range(OPS_PER_ROUND)])
            assert_dirty_state_matches_recount(system)

    system.run_process(scenario())
    sim.run()   # let writeback and the flush daemon finish
    assert_dirty_state_matches_recount(system)
    assert system.ssd.icl.lines_flushed > 0
