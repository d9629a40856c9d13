"""Direct I/O and FLUSH order after the page cache's writes.

Before a direct read, a direct write or a TRIM reaches the block layer,
the dirty pages of its range are written back and every writeback of
its range in flight completes (Linux's ``filemap_write_and_wait_range``;
a page is under writeback from the moment it is cleaned until its write
completes).  Without that, the per-stream elevator queues let a direct
write overtake an older writeback of its page, whose stale bytes then
reach the device last, and a direct read of a dirty page reads the
device's older bytes.  A FLUSH writes back every dirty page and waits
for every writeback in flight first, as ``fsync`` does.

The race program: on the tiny config with data emulation and an 8-page
page cache, stream 1 direct-writes page 5 and then, ``gap`` ns after
that returns, page 0 with ``v2``; stream 0 starts ``start`` ns in and
buffered-writes page 0 with ``v1``, then page 1, which kicks writeback.
Once writeback is idle, a direct read of page 0 must return the write
issued last: ``v2`` when ``v1`` returned before ``v2`` was issued.
Writes that overlap in time may land in either order, but the device
and the page cache must then agree.

The duplicate program, on the same system: stream 0 buffered-writes
pages ``0..n-1`` one after another, and stream 1 direct-writes ``m``
pages from page ``first`` at ``at`` ns, which writes back the dirty
pages of its range while the writeback process may hold some of them
in its batch.  Each page is dirtied once, so each must be written back
at most once.

Tier-1 runs the named points.  ``REPRO_WRITEBACK_GRID=full`` (CI's
analysis job) adds the race grid, stream 0's start from 0 to 19 us and
stream 1's gap from 0 to 59 us in 5 us steps on each configuration,
and the duplicate scan, ``n`` of 4, 8, 12 or 20, ``m`` of 2, 4 or 8,
``first`` from 0 to 11 and ``at`` from 0 to 115 us in 5 us steps.
"""

import os
from collections import Counter

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
FULL = os.environ.get("REPRO_WRITEBACK_GRID") == "full"
POINTS = NAMED_POINTS + (GRID if FULL else [])


def _system(interface="nvme", kernel="4.14"):
    return FullSystem(tiny_ssd_config(), interface=interface, kernel=kernel,
                      data_emulation=True, page_cache_bytes=8 * 4096)


def _io(system, kind, page, data, stream, direct, times=None, name=None):
    """Submit one page's I/O on ``stream`` and wait for it; records its
    issue and return instants under ``name``."""
    sim = system.sim
    req = IORequest(kind, page * 8, 8, data=data)
    issued = sim.now
    event = yield from system.submit_io(req, stream_id=stream, direct=direct)
    value = yield event
    if name is not None:
        times[name] = (issued, sim.now)
    return value


def _idle_writeback(system):
    while system.pagecache.writeback_running:
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
        assert system.pagecache.writeback_running
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


@pytest.mark.parametrize("interface", ["nvme", "sata", "ufs", "ocssd"])
def test_flush_writes_the_page_cache_back_first(interface):
    """A FLUSH after a buffered write has the dirty page written back,
    and its write completed, before the FLUSH reaches the device."""
    system = _system(interface)
    cache = system.pagecache

    def scenario():
        yield from _io(system, IOKind.WRITE, 0, V1, 0, False)
        event = yield from system.submit_io(IORequest(IOKind.FLUSH, 0, 0))
        yield event

    system.run_process(scenario())
    assert cache.dirty_pages() == [] and cache.writebacks == 1
    assert cache.writing == {}


def _writebacks_per_page(n, m, first, at):
    """Run the duplicate program; returns how often each page was
    submitted for writeback, and the cache's writeback count."""
    system = _system()
    sim = system.sim
    counts = Counter()
    submit = system.blocklayer.submit

    def counting_submit(req, *args, **kwargs):
        # a writeback is one page; stream 1's direct write is longer
        if req.nsectors == 8:
            counts[req.slba // 8] += 1
        return submit(req, *args, **kwargs)

    system.blocklayer.submit = counting_submit

    def stream0():
        for page in range(n):
            yield from _io(system, IOKind.WRITE, page, None, 0, False)

    def stream1():
        if at:
            yield sim.timeout(at)
        req = IORequest(IOKind.WRITE, first * 8, m * 8)
        event = yield from system.submit_io(req, stream_id=1)
        yield event

    def main():
        writer, direct = sim.process(stream0()), sim.process(stream1())
        yield writer
        yield direct
        yield from _idle_writeback(system)

    system.run_process(main())
    return counts, system.pagecache.writebacks


def test_a_page_is_written_back_once_each_time_it_is_dirtied():
    """Pages 0-3 are dirtied once each; stream 1's direct write of pages
    0-1 at 1 us and the writeback process both list page 1 for writeback,
    and the second to reach it must skip the page the first cleaned."""
    counts, writebacks = _writebacks_per_page(4, 2, 0, 1_000)
    assert counts == {0: 1, 1: 1, 2: 1, 3: 1}
    assert writebacks == 4


@pytest.mark.skipif(not FULL, reason="REPRO_WRITEBACK_GRID=full only")
@pytest.mark.parametrize("n", [4, 8, 12, 20])
@pytest.mark.parametrize("m", [2, 4, 8])
def test_no_page_is_written_back_twice_on_the_scan(n, m):
    twice = [(first, at, page)
             for first in range(12) for at in range(0, 120_000, 5_000)
             for page, count in _writebacks_per_page(n, m, first, at)[0]
             .items() if count > 1]
    assert twice == []
