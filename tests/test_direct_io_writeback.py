"""Direct I/O orders after the page cache's writes of its range.

Before a direct read, a direct write or a TRIM reaches the block layer,
the dirty pages of its range are written back and every writeback of
its range in flight completes (Linux's ``filemap_write_and_wait_range``;
a page is under writeback from the moment it is cleaned until its write
completes).  Without that, the per-stream elevator queues let a direct
write overtake an older writeback of its page, whose stale bytes then
reach the device last, and a direct read of a dirty page reads the
device's older bytes.

The race program: on the tiny config with data emulation and an 8-page
page cache, stream 1 direct-writes page 5 and then, ``gap`` ns after
that returns, page 0 with ``v2``; stream 0 starts ``start`` ns in and
buffered-writes page 0 with ``v1``, then page 1, which kicks writeback.
Once writeback is idle, a direct read of page 0 must return the write
issued last: ``v2`` when ``v1`` returned before ``v2`` was issued.
Writes that overlap in time may land in either order, but the device
and the page cache must then agree.

Tier-1 runs the named points.  ``REPRO_WRITEBACK_GRID=full`` (CI's
analysis job) adds the grid of stream 0's start from 0 to 19 us and
stream 1's gap from 0 to 59 us, in 5 us steps, on each configuration.
"""

import os

import pytest

from repro.common.iorequest import IOKind, IORequest
from repro.core.system import FullSystem

from tests.conftest import tiny_ssd_config

V1 = FullSystem.pattern_data(0, 8, seed=1)
V2 = FullSystem.pattern_data(0, 8, seed=2)

#: (interface, kernel, start ns, gap ns, the write issued last): without
#: the wait, stream 1's ``v2`` overtakes the older writeback of ``v1`` on
#: nvme/4.4 and sata/4.4; on nvme/4.14 stream 0 issues ``v1`` while
#: ``v2`` is in flight, and ``v1`` lands last on the device and in the
#: page cache alike
NAMED_POINTS = [("nvme", "4.4", 0, 0, "v2"), ("sata", "4.4", 0, 0, "v2"),
                ("nvme", "4.14", 13_000, 0, "overlap")]
CONFIGS = [("nvme", "4.4"), ("sata", "4.4"), ("nvme", "4.14")]
GRID = [(interface, kernel, start * 1000, gap * 1000, None)
        for interface, kernel in CONFIGS
        for start in range(0, 20, 5) for gap in range(0, 60, 5)]
POINTS = NAMED_POINTS + (
    GRID if os.environ.get("REPRO_WRITEBACK_GRID") == "full" else [])


def _system(interface="nvme", kernel="4.14"):
    return FullSystem(tiny_ssd_config(), interface=interface, kernel=kernel,
                      data_emulation=True, page_cache_bytes=8 * 4096)


def _io(system, kind, page, data, stream, direct, times=None, name=None):
    """Submit one page's I/O on ``stream`` and wait for it; records its
    issue and return instants under ``name``."""
    sim = system.sim
    req = IORequest(kind, page * 8, 8, data=data)
    req.t_submit = issued = sim.now
    event = yield from system.submit_io(req, stream_id=stream, direct=direct)
    value = yield event
    if name is not None:
        times[name] = (issued, sim.now)
    return value


def _idle_writeback(system):
    while system._writeback_running:
        yield system.sim.timeout(100_000)


def _race(interface, kernel, start, gap):
    """Run the race program; returns which write was issued last
    (``v1``, ``v2`` or ``overlap``), the device's page 0 and the page
    cache's (``None`` when not resident)."""
    system = _system(interface, kernel)
    sim = system.sim
    times = {}

    def stream0():
        if start:
            yield sim.timeout(start)
        yield from _io(system, IOKind.WRITE, 0, V1, 0, False, times, "v1")
        yield from _io(system, IOKind.WRITE, 1, None, 0, False)

    def stream1():
        yield from _io(system, IOKind.WRITE, 5, None, 1, True)
        if gap:
            yield sim.timeout(gap)
        yield from _io(system, IOKind.WRITE, 0, V2, 1, True, times, "v2")

    def main():
        first, second = sim.process(stream0()), sim.process(stream1())
        yield first
        yield second
        yield from _idle_writeback(system)
        return (yield from _io(system, IOKind.READ, 0, None, 0, True))

    device = system.run_process(main())
    page = system.pagecache._pages.get(0)
    cached = None if page is None else bytes(page.data)
    (issued1, returned1), (issued2, returned2) = times["v1"], times["v2"]
    last = ("v2" if returned1 <= issued2 else
            "v1" if returned2 <= issued1 else "overlap")
    return last, device, cached


def _lost(last, device, cached):
    """True when the write issued last is not what the device holds, or
    the page cache holds other bytes than the device."""
    expected = {"v1": V1, "v2": V2}.get(last, device)
    return device != expected or cached not in (None, device)


@pytest.mark.parametrize("interface,kernel,start,gap,issued_last", POINTS)
def test_direct_write_is_not_lost_to_an_older_writeback(
        interface, kernel, start, gap, issued_last):
    last, device, cached = _race(interface, kernel, start, gap)
    assert not _lost(last, device, cached), (last, device[:8], cached)
    if issued_last is not None:
        assert last == issued_last


@pytest.mark.parametrize("interface", ["nvme", "sata"])
def test_direct_read_of_a_dirty_page_reads_the_buffered_write(interface):
    """A direct read first writes the dirty page back, so it reads the
    buffered bytes; the page stays cached, clean."""
    system = _system(interface)
    data = FullSystem.pattern_data(0, 8, seed=7)

    def scenario():
        yield from _io(system, IOKind.WRITE, 0, data, 0, False)
        assert system.pagecache.dirty_pages() == [0]
        return (yield from _io(system, IOKind.READ, 0, None, 0, True))

    assert system.run_process(scenario()) == data
    cache = system.pagecache
    assert cache.dirty_pages() == [] and cache.writebacks == 1
    assert cache.read_data(0, 8) == data


def test_direct_write_waits_for_a_writeback_in_flight():
    """Writeback cleans page 0 and submits ``v1``; a direct write of
    ``v2`` issued meanwhile waits for that write to complete, so ``v2``
    reaches the device last; the completed writeback leaves no mark."""
    system = _system()
    sim = system.sim
    cache = system.pagecache
    seen = {}

    def scenario():
        yield from _io(system, IOKind.WRITE, 0, V1, 0, False)
        yield from _io(system, IOKind.WRITE, 1, None, 0, False)
        assert system._writeback_running
        yield sim.timeout(0)    # writeback has cleaned page 0
        seen["marked"] = list(cache.writing)
        yield from _io(system, IOKind.WRITE, 0, V2, 1, True)
        yield from _idle_writeback(system)
        return (yield from _io(system, IOKind.READ, 0, None, 0, True))

    assert system.run_process(scenario()) == V2
    assert seen["marked"] == [0]
    assert cache.writing == {}


def test_trim_writes_back_a_dirty_page_first():
    """A TRIM of a dirty page writes the page back before it reaches the
    device; the device and the cached page then both read zeros."""
    system = _system()

    def scenario():
        yield from _io(system, IOKind.WRITE, 0, V1, 0, False)
        yield from _io(system, IOKind.TRIM, 0, None, 0, True)
        return (yield from _io(system, IOKind.READ, 0, None, 0, True))

    assert system.run_process(scenario()) == bytes(4096)
    assert system.pagecache.writebacks == 1
    assert system.pagecache.read_data(0, 8) == bytes(4096)
