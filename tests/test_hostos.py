"""Unit tests for the OS storage stack: schedulers, block layer, page cache."""

import pytest

from repro.common.iorequest import IOKind, IORequest
from repro.common.units import GB, MB
from repro.host.cpu import CpuModel, HostCpu
from repro.host.memory import HostMemory
from repro.hostos.iosched import (
    BfqScheduler,
    CfqScheduler,
    NoopScheduler,
    make_scheduler,
)
from repro.hostos.kernel import kernel_4_4, kernel_4_14, kernel_by_version
from repro.hostos.blocklayer import BlockLayer
from repro.hostos.pagecache import PageCache
from repro.sim import Simulator


def req(kind=IOKind.READ, slba=0, n=8):
    return IORequest(kind, slba, n)


class TestKernelProfiles:
    def test_versions_resolve(self):
        assert kernel_by_version("4.4").scheduler == "cfq"
        assert kernel_by_version("4.14").scheduler == "bfq"

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            kernel_by_version("5.0")

    def test_44_heavier_than_414(self):
        old, new = kernel_4_4(), kernel_4_14()
        assert old.submit_path_instr > new.submit_path_instr
        assert old.dispatch_quantum < new.dispatch_quantum
        assert not old.merge and new.merge


class TestSchedulers:
    def test_factory(self):
        assert isinstance(make_scheduler("noop"), NoopScheduler)
        assert isinstance(make_scheduler("cfq"), CfqScheduler)
        assert isinstance(make_scheduler("bfq"), BfqScheduler)
        with pytest.raises(ValueError):
            make_scheduler("deadline")

    def test_noop_is_fifo(self):
        sched = NoopScheduler()
        for slba in (30, 10, 20):
            sched.add(req(slba=slba))
        assert [sched.next().slba for _ in range(3)] == [30, 10, 20]

    def test_cfq_serves_slices_per_stream(self):
        sched = CfqScheduler(quantum=2, slice_idle_ns=0)
        for i in range(4):
            sched.add(req(slba=i * 8), stream_id=0)
            sched.add(req(slba=1000 + i * 8), stream_id=1)
        order = [sched.next(0).slba for _ in range(8)]
        # two from one stream, then two from the other, alternating
        assert order[0] < 1000 and order[1] < 1000
        assert order[2] >= 1000 and order[3] >= 1000

    def test_cfq_idles_after_stream_drains(self):
        sched = CfqScheduler(quantum=4, slice_idle_ns=1000)
        sched.add(req(slba=0), stream_id=0)
        sched.add(req(slba=100), stream_id=1)
        assert sched.next(now=0) is not None     # stream 0 drains
        assert sched.next(now=10) is None        # idling, stream 1 waits
        assert sched.idle_until == 1000
        assert sched.next(now=2000) is not None  # idle expired

    def test_cfq_idle_cancelled_by_new_request(self):
        sched = CfqScheduler(quantum=4, slice_idle_ns=10_000)
        sched.add(req(slba=0), stream_id=0)
        assert sched.next(now=0).slba == 0
        sched.add(req(slba=8), stream_id=0)       # the anticipated request
        got = sched.next(now=100)
        assert got is not None and got.slba == 8

    def test_cfq_sorts_within_stream(self):
        sched = CfqScheduler(quantum=10, slice_idle_ns=0)
        for slba in (80, 16, 48):
            sched.add(req(slba=slba), stream_id=0)
        order = [sched.next(0).slba for _ in range(3)]
        assert order == [16, 48, 80]

    def test_bfq_budget_rotates_streams(self):
        sched = BfqScheduler(budget_sectors=16)
        for i in range(3):
            sched.add(req(slba=i * 8, n=8), stream_id=0)
            sched.add(req(slba=1000 + i * 8, n=8), stream_id=1)
        order = [sched.next().slba for _ in range(6)]
        # 16-sector budget = two 8-sector requests before switching
        assert order[0] < 1000 and order[1] < 1000 and order[2] >= 1000

    def test_len_counts_all_streams(self):
        sched = BfqScheduler()
        sched.add(req(), stream_id=0)
        sched.add(req(slba=50), stream_id=1)
        assert len(sched) == 2


class _StubAdapter:
    """Device stand-in completing requests after a fixed delay."""

    max_outstanding = 32

    def __init__(self, sim, delay=10_000):
        self.sim = sim
        self.delay = delay
        self.submitted = []

    def submit(self, request):
        self.submitted.append(request)
        event = self.sim.event()
        self.sim.schedule(self.delay, event.succeed, None)
        return event


class TestBlockLayer:
    def _layer(self, sim, profile=None):
        cpu = HostCpu(sim, 4, 4_000_000_000, model=CpuModel.O3)
        adapter = _StubAdapter(sim)
        layer = BlockLayer(sim, cpu, profile or kernel_4_14(), adapter)
        return layer, adapter

    def test_submit_completes(self):
        sim = Simulator()
        layer, adapter = self._layer(sim)

        def scenario():
            event = yield from layer.submit(req())
            yield event

        sim.run_process(scenario())
        assert len(adapter.submitted) == 1
        assert layer.requests_dispatched == 1

    def test_merge_adjacent_sequential(self):
        sim = Simulator()
        cpu = HostCpu(sim, 4, 4_000_000_000, model=CpuModel.O3)
        adapter = _StubAdapter(sim, delay=5_000_000)
        adapter.max_outstanding = 1   # dispatch stalls behind one filler
        layer = BlockLayer(sim, cpu, kernel_4_14(), adapter)

        def scenario():
            filler = yield from layer.submit(req(slba=10_000))
            e1 = yield from layer.submit(req(slba=0, n=8))
            e2 = yield from layer.submit(req(slba=8, n=8))  # back-merges
            yield filler
            yield e1
            yield e2

        sim.run_process(scenario())
        assert layer.requests_merged == 1
        merged = [r for r in adapter.submitted if r.slba == 0]
        assert merged and merged[0].nsectors == 16

    def test_no_merge_for_nonadjacent(self):
        sim = Simulator()
        layer, adapter = self._layer(sim)

        def scenario():
            e1 = yield from layer.submit(req(slba=0, n=8))
            e2 = yield from layer.submit(req(slba=100, n=8))
            yield e1
            yield e2

        sim.run_process(scenario())
        assert layer.requests_merged == 0
        assert len(adapter.submitted) == 2

    def test_kernel_44_does_not_merge(self):
        sim = Simulator()
        layer, adapter = self._layer(sim, kernel_4_4())

        def scenario():
            e1 = yield from layer.submit(req(slba=0, n=8))
            e2 = yield from layer.submit(req(slba=8, n=8))
            yield e1
            yield e2

        sim.run_process(scenario())
        assert layer.requests_merged == 0

    def test_inflight_respects_limit(self):
        sim = Simulator()
        cpu = HostCpu(sim, 4, 4_000_000_000, model=CpuModel.O3)
        adapter = _StubAdapter(sim, delay=1_000_000)
        layer = BlockLayer(sim, cpu, kernel_4_14(), adapter)
        peak = {"value": 0}

        def scenario():
            events = []
            for i in range(64):
                event = yield from layer.submit(req(slba=i * 1000, n=8))
                events.append(event)
                peak["value"] = max(peak["value"], layer.inflight)
            for event in events:
                yield event

        sim.run_process(scenario())
        assert peak["value"] <= layer.inflight_limit


class TestPageCache:
    def _cache(self, sim, data=True):
        mem = HostMemory(sim, 1 * GB, bandwidth=10 * GB)
        return PageCache(sim, mem, 1 * MB, data_emulation=data), mem

    def test_miss_then_hit(self):
        sim = Simulator()
        cache, _mem = self._cache(sim)
        assert not cache.lookup_read(0, 8)
        cache.install_read(0, 8, b"x" * 4096)
        assert cache.lookup_read(0, 8)
        assert cache.read_data(0, 8) == b"x" * 4096

    def test_read_keeps_bytes_of_a_page_dropped_in_flight(self):
        """Page 0 is dirty when a read of pages 0-1 misses; writeback
        then cleans and drops it before the device bytes, older than the
        write-back, arrive.  The bytes page 0 held at issue win."""
        sim = Simulator()
        cache, _mem = self._cache(sim)
        new, stale = b"n" * 4096, b"s" * 4096
        cache.write(0, 8, new)
        resident = cache.resident_data(0, 16)
        cache.clean(0, sim.event())
        cache.drop(0)
        got = cache.install_read(0, 16, stale + stale, resident)
        assert got == new + stale
        assert cache.read_data(0, 16) == new + stale

    def test_resident_data_needs_data_emulation(self):
        sim = Simulator()
        cache, _mem = self._cache(sim, data=False)
        cache.write(0, 8, None)
        assert cache.resident_data(0, 8) is None

    def test_partial_page_read_not_installed(self):
        sim = Simulator()
        cache, _mem = self._cache(sim)
        cache.install_read(2, 4, b"y" * 2048)   # not page-aligned coverage
        assert not cache.lookup_read(2, 4)

    def test_write_absorbs_aligned_only(self):
        sim = Simulator()
        cache, _mem = self._cache(sim)
        assert cache.write(0, 8, b"z" * 4096)
        assert not cache.write(3, 4, b"w" * 2048)
        assert cache.dirty_pages() == [0]

    def test_ledger_reflects_cached_pages(self):
        sim = Simulator()
        cache, mem = self._cache(sim)
        cache.write(0, 16, None)
        assert mem.usage_of("pagecache") == 2 * 4096
        cache.drop(0)
        assert mem.usage_of("pagecache") == 4096
        assert cache.dirty_pages() == [1] and cache.dirty_count() == 1

    def test_eviction_candidates_when_over_capacity(self):
        sim = Simulator()
        mem = HostMemory(sim, 1 * GB, bandwidth=10 * GB)
        cache = PageCache(sim, mem, 8 * 4096, data_emulation=False)
        for i in range(12):
            cache.write(i * 8, 8, None)
        assert len(cache.evict_candidates()) == 4
