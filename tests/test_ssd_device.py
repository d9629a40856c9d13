"""Integration tests for the assembled SSD (HIL -> ICL -> FTL -> flash)."""

import random

import pytest

from repro.sim import AllOf
from repro.ssd.config import CacheConfig
from repro.ssd.device import SSD

from tests.conftest import tiny_ssd_config


def make_ssd(sim, data_emulation=True, **overrides):
    return SSD(sim, tiny_ssd_config(**overrides), data_emulation=data_emulation)


def payload(tag: int, nbytes: int) -> bytes:
    rng = random.Random(tag)
    return bytes(rng.getrandbits(8) for _ in range(nbytes))


class TestReadWrite:
    def test_write_then_read_back(self, sim):
        ssd = make_ssd(sim)
        data = payload(1, 8 * 512)

        def scenario():
            yield from ssd.write(0, 8, data)
            got = yield from ssd.read(0, 8)
            return got

        assert sim.run_process(scenario()) == data

    def test_unwritten_reads_as_zero(self, sim):
        ssd = make_ssd(sim)

        def scenario():
            got = yield from ssd.read(100, 4)
            return got

        assert sim.run_process(scenario()) == bytes(4 * 512)

    def test_overwrite_returns_newest(self, sim):
        ssd = make_ssd(sim)
        first, second = payload(1, 4 * 512), payload(2, 4 * 512)

        def scenario():
            yield from ssd.write(10, 4, first)
            yield from ssd.write(10, 4, second)
            got = yield from ssd.read(10, 4)
            return got

        assert sim.run_process(scenario()) == second

    def test_partial_sector_overwrite_merges(self, sim):
        ssd = make_ssd(sim)
        base = payload(3, 8 * 512)
        patch = payload(4, 2 * 512)

        def scenario():
            yield from ssd.write(0, 8, base)
            yield from ssd.write(2, 2, patch)  # overwrite sectors 2..3
            got = yield from ssd.read(0, 8)
            return got

        expected = base[:2 * 512] + patch + base[4 * 512:]
        assert sim.run_process(scenario()) == expected

    def test_large_write_spans_lines(self, sim):
        ssd = make_ssd(sim)
        sectors = ssd.config.superpage_size // 512 * 3  # three lines
        data = payload(5, sectors * 512)

        def scenario():
            yield from ssd.write(0, sectors, data)
            got = yield from ssd.read(0, sectors)
            return got

        assert sim.run_process(scenario()) == data

    def test_unaligned_write_crossing_line_boundary(self, sim):
        ssd = make_ssd(sim)
        line_sectors = ssd.config.superpage_size // 512
        start = line_sectors - 3
        data = payload(6, 6 * 512)

        def scenario():
            yield from ssd.write(start, 6, data)
            got = yield from ssd.read(start, 6)
            return got

        assert sim.run_process(scenario()) == data

    def test_out_of_range_rejected(self, sim):
        ssd = make_ssd(sim)
        beyond = ssd.config.logical_sectors

        def scenario():
            yield from ssd.read(beyond - 1, 2)

        with pytest.raises(ValueError, match="capacity"):
            sim.run_process(scenario())

    def test_flush_persists_dirty_lines(self, sim):
        ssd = make_ssd(sim)
        data = payload(7, 4 * 512)

        def scenario():
            yield from ssd.write(0, 4, data)
            yield from ssd.flush()

        sim.run_process(scenario())
        assert ssd.icl.dirty_line_count() == 0
        assert ssd.backend.programs_issued > 0

    def test_concurrent_requests_complete(self, sim):
        ssd = make_ssd(sim)
        datas = {i: payload(10 + i, 4 * 512) for i in range(8)}

        def scenario():
            writes = [sim.process(ssd.write(i * 4, 4, datas[i]))
                      for i in range(8)]
            yield AllOf(sim, writes)
            reads = [sim.process(ssd.read(i * 4, 4)) for i in range(8)]
            results = yield AllOf(sim, reads)
            return results

        results = sim.run_process(scenario())
        for i, got in enumerate(results):
            assert got == datas[i], f"mismatch at request {i}"


class TestCacheBehaviour:
    def test_cached_read_is_faster_than_miss(self, sim):
        ssd = make_ssd(sim, data_emulation=False)

        def scenario():
            t0 = sim.now
            yield from ssd.read(0, 8)
            cold = sim.now - t0
            t0 = sim.now
            yield from ssd.read(0, 8)
            warm = sim.now - t0
            return cold, warm

        cold, warm = sim.run_process(scenario())
        assert warm < cold
        assert ssd.icl.read_hits >= 1

    def test_write_absorbed_by_cache_is_fast(self, sim):
        ssd = make_ssd(sim, data_emulation=False)

        def scenario():
            t0 = sim.now
            yield from ssd.write(0, 4)
            return sim.now - t0

        elapsed = sim.run_process(scenario())
        # cache-absorbed write never waits for tPROG (200 us in tiny config)
        assert elapsed < ssd.config.timing.t_prog_fast

    def test_readahead_prefetches_sequential_stream(self, sim):
        ssd = make_ssd(sim, data_emulation=False)
        line_sectors = ssd.config.superpage_size // 512

        def scenario():
            for line in range(6):
                yield from ssd.read(line * line_sectors, line_sectors)
            # allow prefetches in flight to land
            yield sim.timeout(10_000_000)

        sim.run_process(scenario())
        assert ssd.icl.readaheads > 0
        assert ssd.icl.read_hits > 0

    def test_no_readahead_when_disabled(self, sim):
        ssd = make_ssd(sim, data_emulation=False,
                       cache=CacheConfig(readahead=False))
        line_sectors = ssd.config.superpage_size // 512

        def scenario():
            for line in range(6):
                yield from ssd.read(line * line_sectors, line_sectors)

        sim.run_process(scenario())
        assert ssd.icl.readaheads == 0


class TestGarbageCollection:
    def test_sustained_random_writes_trigger_gc(self, sim):
        ssd = make_ssd(sim, data_emulation=False)
        rng = random.Random(42)
        sectors = ssd.config.logical_sectors
        sectors_per_page = ssd.config.geometry.page_size // 512

        def scenario():
            # write ~2x the logical space in page-sized random writes
            n = 2 * sectors // sectors_per_page
            for _ in range(n):
                page = rng.randrange(sectors // sectors_per_page)
                yield from ssd.write(page * sectors_per_page, sectors_per_page)
            yield from ssd.flush()

        sim.run_process(scenario())
        assert ssd.ftl.gc_runs > 0
        assert ssd.ftl.write_amplification() >= 1.0

    def test_gc_preserves_data_integrity(self, sim):
        ssd = make_ssd(sim, data_emulation=True)
        rng = random.Random(43)
        pages = ssd.config.logical_pages
        spp = ssd.config.geometry.page_size // 512
        expected = {}

        def scenario():
            for round_no in range(3):
                for _ in range(pages):
                    page = rng.randrange(pages)
                    data = payload(round_no * pages + page, spp * 512)
                    expected[page] = data
                    yield from ssd.write(page * spp, spp, data)
            yield from ssd.flush()
            for page in sorted(expected):
                got = yield from ssd.read(page * spp, spp)
                assert got == expected[page], f"corruption at page {page}"

        sim.run_process(scenario())
        assert ssd.ftl.gc_runs > 0

    def test_wear_leveling_bounds_erase_spread(self, sim):
        ssd = make_ssd(sim, data_emulation=False)
        rng = random.Random(44)
        pages = ssd.config.logical_pages
        spp = ssd.config.geometry.page_size // 512

        def scenario():
            # skewed workload: 60% of writes to 10% of space, plus enough
            # cold traffic to keep the flash churning
            hot = max(1, pages // 10)
            for _ in range(6 * pages):
                if rng.random() < 0.6:
                    page = rng.randrange(hot)
                else:
                    page = rng.randrange(pages)
                yield from ssd.write(page * spp, spp)
                yield from ssd.flush()

        sim.run_process(scenario())
        # erase wear must stay within a small band of the configured delta
        spread = ssd.array.wear_spread()
        max_erases = max(ssd.array.erase_counts())
        assert max_erases > 0
        assert spread <= max(8, max_erases), \
            f"wear spread {spread} looks unbounded"


class TestReports:
    def test_power_report_populated_after_io(self, sim):
        ssd = make_ssd(sim, data_emulation=False)

        def scenario():
            for i in range(10):
                yield from ssd.write(i * 8, 8)
            yield from ssd.flush()
            for i in range(10):
                yield from ssd.read(i * 8, 8)

        sim.run_process(scenario())
        power = ssd.power_report()
        assert power["cpu"] > 0
        assert power["dram"] > 0
        assert power["nand"] > 0
        assert power["total"] == pytest.approx(
            power["cpu"] + power["dram"] + power["nand"])

    def test_instruction_report_mix(self, sim):
        ssd = make_ssd(sim, data_emulation=False)

        def scenario():
            for i in range(5):
                yield from ssd.write(i * 8, 8)

        sim.run_process(scenario())
        instr = ssd.instruction_report()
        assert instr["total"] > 0
        # firmware is load/store heavy (Fig 13c: ~60%)
        ls_fraction = (instr["load"] + instr["store"]) / instr["total"]
        assert 0.4 < ls_fraction < 0.8

    def test_stats_report_keys(self, sim):
        ssd = make_ssd(sim, data_emulation=False)

        def scenario():
            yield from ssd.write(0, 8)
            yield from ssd.flush()

        sim.run_process(scenario())
        stats = ssd.stats_report()
        assert stats["commands_completed"] == 2
        assert stats["flash_programs"] > 0


class TestWrrPriorities:
    def _burst_latency(self, arbitration):
        """Mean latency of a high-priority stream behind a low-prio burst."""
        from repro.sim import Simulator as Sim
        from repro.ssd.config import HILConfig
        from repro.ssd.firmware.requests import DeviceCommand
        from repro.common.iorequest import IOKind
        from repro.common.recorders import LatencyRecorder

        sim = Sim()
        ssd = make_ssd(sim, data_emulation=False,
                       hil=HILConfig(arbitration=arbitration,
                                     wrr_weights=(16, 2, 1)))
        recorder = LatencyRecorder()

        def scenario():
            # enqueue a deep burst of low-priority work first
            backlog = []
            for i in range(60):
                cmd = DeviceCommand(IOKind.READ, (i % 50) * 8, 8,
                                    queue_id=2 + i % 3, priority=2)
                backlog.append(ssd.submit(cmd))
            # then a latency-sensitive high-priority stream
            for i in range(10):
                cmd = DeviceCommand(IOKind.READ, i * 8, 8,
                                    queue_id=1, priority=0)
                start = sim.now
                yield ssd.submit(cmd)
                recorder.record(sim.now - start)
            for event in backlog:
                yield event

        sim.run_process(scenario())
        return recorder.mean()

    def test_wrr_shields_high_priority_from_backlog(self):
        wrr = self._burst_latency("wrr")
        rr = self._burst_latency("rr")
        assert wrr < rr
