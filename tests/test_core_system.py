"""Full-system tests: FIO engine, syscall layer, buffered I/O, presets."""

import pytest

from repro.core import presets
from repro.core.fio import FioJob
from repro.core.system import FullSystem

from tests.conftest import tiny_ssd_config


class TestFioJobValidation:
    def test_rejects_bad_block_size(self):
        for bs in (1000, 0):
            with pytest.raises(ValueError):
                FioJob(bs=bs)

    def test_rejects_unknown_mode(self):
        for rw in ("readwrite", "rw"):
            with pytest.raises(ValueError):
                FioJob(rw=rw)

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            FioJob(iodepth=0)

    def test_rejects_a_job_with_no_bound(self):
        """``total_ios=0`` means "until the runtime": without one the
        job would issue requests forever."""
        for runtime_ns in (None, 0):
            with pytest.raises(ValueError, match="runtime_ns"):
                FioJob(total_ios=0, runtime_ns=runtime_ns)
        assert FioJob(total_ios=0, runtime_ns=1_000).total_ios == 0

    def test_rejects_negative_total_ios(self):
        with pytest.raises(ValueError, match="total_ios"):
            FioJob(total_ios=-1, runtime_ns=1_000)

    def test_rejects_warmup_outside_unit_interval(self):
        """A warm-up of the whole run or more would measure nothing."""
        for fraction in (-0.1, 1.0, 2.0):
            with pytest.raises(ValueError, match="warmup_fraction"):
                FioJob(warmup_fraction=fraction)
        assert FioJob(warmup_fraction=0.0).warmup_fraction == 0.0

    def test_fio_and_tenant_accept_the_same_modes(self):
        from repro.core.tenants import TenantSpec
        for rw in ("read", "write", "randread", "randwrite", "randrw"):
            assert FioJob(rw=rw).rw == TenantSpec(rw=rw).rw == rw
        for spec in (FioJob, TenantSpec):
            with pytest.raises(ValueError, match="rw mode"):
                spec(rw="rw")

    def test_mix_mode_draws_both_kinds(self):
        import random
        job = FioJob(rw="randrw", rwmixread=50)
        rng = random.Random(1)
        kinds = {job.kind_for(rng) for _ in range(50)}
        assert len(kinds) == 2


class TestFioEngine:
    def test_runs_requested_io_count(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        result = system.run_fio(FioJob(rw="randread", bs=2048, iodepth=4,
                                       total_ios=120))
        assert result.total_ios == 120
        assert result.total_bytes == 120 * 2048
        assert result.bandwidth_mbps > 0
        assert result.latency.count > 0

    def test_numjobs_spreads_streams(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        result = system.run_fio(FioJob(rw="randread", bs=2048, iodepth=2,
                                       numjobs=3, total_ios=60))
        assert result.total_ios == 180

    def test_numjobs_stripe_sequential_starts(self):
        """Job ``j`` of ``numjobs`` starts its sequential run at block
        ``j * n_blocks // numjobs``."""
        system = FullSystem(device=tiny_ssd_config(), interface="nvme",
                            data_emulation=True)
        result = system.run_fio(FioJob(rw="write", bs=2048, numjobs=2,
                                       total_ios=1))
        assert result.total_ios == 2
        n_blocks = system.device_sectors * 512 // 2048
        assert n_blocks // 2 == 192

        def block_holds_pattern(block):
            slba = block * 4
            data = yield from system.read(slba, 4)
            return data == FullSystem.pattern_data(slba, 4, 1234)

        for block, written in ((0, True), (192, True), (1, False),
                               (193, False)):
            assert system.run_process(block_holds_pattern(block)) \
                is written, block

    def test_runtime_bound_stops_early(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        result = system.run_fio(FioJob(rw="randread", bs=2048, iodepth=2,
                                       total_ios=0, runtime_ns=3_000_000))
        assert 0 < result.total_ios
        assert result.elapsed_ns >= 3_000_000

    def test_deeper_queue_increases_bandwidth(self, tiny_config):
        bws = {}
        for depth in (1, 8):
            system = FullSystem(device=tiny_config, interface="nvme")
            system.precondition()
            bws[depth] = system.run_fio(
                FioJob(rw="randread", bs=2048, iodepth=depth,
                       total_ios=200)).bandwidth_mbps
        assert bws[8] > bws[1]

    def test_region_bounds_respected(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        # region of one block only: every I/O hits the same LBA
        result = system.run_fio(FioJob(rw="randread", bs=2048, iodepth=2,
                                       total_ios=50, size=2048))
        assert result.total_ios == 50

    def test_io_region_too_small_rejected(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        with pytest.raises(ValueError, match="region"):
            system.run_fio(FioJob(bs=65536, size=4096))

    def test_memory_ledger_freed_after_run(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        system.run_fio(FioJob(rw="randread", bs=2048, iodepth=2,
                              total_ios=50))
        assert system.memory.usage_of("fio") == 0


class TestBufferedIo:
    def test_buffered_read_hits_page_cache(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme",
                            data_emulation=True)

        def scenario():
            data = FullSystem.pattern_data(0, 8)
            yield from system.write(0, 8, data)
            first = yield from system.read(0, 8, direct=False)   # miss+install
            again = yield from system.read(0, 8, direct=False)   # hit
            assert first == data and again == data

        system.run_process(scenario())
        assert system.pagecache.hits >= 1

    def test_buffered_write_absorbed(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")

        def scenario():
            yield from system.write(0, 8, direct=False)

        system.run_process(scenario())
        assert system.pagecache.dirty_pages() == [0]

    def test_direct_io_bypasses_page_cache(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")

        def scenario():
            yield from system.write(0, 8, direct=True)
            yield from system.read(0, 8, direct=True)

        system.run_process(scenario())
        assert system.pagecache.hits == 0
        assert len(system.pagecache.dirty_pages()) == 0

    @pytest.mark.parametrize("rewrite_delay_ns", [200, 350, 500])
    def test_write_racing_writeback_submit_is_kept(self, rewrite_delay_ns):
        """Page 1's write kicks writeback of pages 0 and 1; a rewrite of
        page 0 submitted alongside it lands while page 0's writeback
        submit is in flight, and must not be marked clean with it."""
        system = FullSystem(tiny_ssd_config(), data_emulation=True,
                            page_cache_bytes=8 * 4096)
        sim = system.sim
        first = FullSystem.pattern_data(0, 8, seed=1)
        rewrite = FullSystem.pattern_data(0, 8, seed=2)

        def rewrite_page0():
            yield sim.timeout(rewrite_delay_ns)
            yield from system.write(0, 8, rewrite, direct=False)

        def scenario():
            yield from system.write(0, 8, first, direct=False)
            racer = sim.process(rewrite_page0())
            yield from system.write(8, 8, direct=False)
            yield racer
            # push page 0 out of the cache, so the read comes from the device
            for page in range(2, 40):
                yield from system.write(page * 8, 8, direct=False)
            while system.pagecache.writeback_running:
                yield sim.timeout(100_000)
            assert 0 not in system.pagecache._pages
            got = yield from system.read(0, 8, direct=False)
            return got

        assert system.run_process(scenario()) == rewrite


    def test_read_miss_keeps_a_dirty_page(self):
        """A buffered read of pages 0-1 misses on uncached page 1; page 0
        holds a buffered write newer than the device's copy.  The reader
        must get the cached bytes, and the cache must keep them, so
        writeback puts them on the device."""
        system = FullSystem(tiny_ssd_config(), data_emulation=True,
                            page_cache_bytes=8 * 4096)
        sim = system.sim
        old, new = b"\x11" * 4096, b"\xab" * 4096

        def scenario():
            yield from system.write(0, 8, old)
            yield from system.write(0, 8, new, direct=False)
            got = yield from system.read(0, 16, direct=False)
            assert system.pagecache.misses == 1
            # a second dirty page kicks writeback of both
            yield from system.write(16, 8, direct=False)
            while system.pagecache.writeback_running:
                yield sim.timeout(100_000)
            on_device = yield from system.read(0, 8)
            return got, on_device

        got, on_device = system.run_process(scenario())
        assert got[:4096] == new
        assert got[4096:] == bytes(4096)
        assert on_device == new

    def test_read_miss_keeps_a_page_cleaned_in_flight(self):
        """As above, but writeback cleans page 0 while the read is in
        flight: a buffered write from another process, 1 us into the
        read, kicks it.  The device bytes the read fetched predate the
        writeback, so the reader must still get page 0's cached bytes,
        and the cache must keep them."""
        system = FullSystem(tiny_ssd_config(), data_emulation=True,
                            page_cache_bytes=8 * 4096)
        sim = system.sim
        cache = system.pagecache
        old, new = b"\x11" * 4096, b"\xab" * 4096

        def other_writer():
            yield sim.timeout(1_000)
            yield from system.write(16, 8, direct=False)

        def scenario():
            yield from system.write(0, 8, old)
            yield from system.write(0, 8, new, direct=False)
            sim.process(other_writer())
            got = yield from system.read(0, 16, direct=False)
            assert cache.misses == 1
            assert cache.writebacks >= 1 and 0 not in cache.dirty_pages()
            again = yield from system.read(0, 8, direct=False)
            assert cache.hits == 1
            while system.pagecache.writeback_running:
                yield sim.timeout(100_000)
            on_device = yield from system.read(0, 8)
            return got, again, on_device

        got, again, on_device = system.run_process(scenario())
        assert got[:4096] == new
        assert got[4096:] == bytes(4096)
        assert again == new
        assert on_device == new

    def test_read_miss_keeps_a_page_rewritten_in_flight(self):
        """The other process first rewrites page 0 (``first`` -> ``last``)
        and then kicks writeback, all while the read is in flight: the
        cache must end up holding ``last``, as the device does, not the
        bytes page 0 held when the read was issued."""
        system = FullSystem(tiny_ssd_config(), data_emulation=True,
                            page_cache_bytes=8 * 4096)
        sim = system.sim
        first, last = b"\xaa" * 4096, b"\xbb" * 4096

        def other_writer():
            yield sim.timeout(1_000)
            yield from system.write(0, 8, last, direct=False)
            yield from system.write(16, 8, direct=False)

        def scenario():
            yield from system.write(0, 8, b"\x11" * 4096)
            yield from system.write(0, 8, first, direct=False)
            sim.process(other_writer())
            got = yield from system.read(0, 16, direct=False)
            assert 0 not in system.pagecache.dirty_pages()
            while system.pagecache.writeback_running:
                yield sim.timeout(100_000)
            again = yield from system.read(0, 8, direct=False)
            on_device = yield from system.read(0, 8)
            return got, again, on_device

        got, again, on_device = system.run_process(scenario())
        assert got[:4096] == last
        assert again == on_device == last


class TestCacheBypassingWrites:
    """A write or TRIM that reaches the device past the page cache must
    not leave a resident page's old bytes to be read (or written back)."""

    @staticmethod
    def _system():
        return FullSystem(tiny_ssd_config(), data_emulation=True,
                          page_cache_bytes=8 * 4096)

    @staticmethod
    def _cache_page0(system):
        """Direct-write 0x11 to page 0, then cache it with a buffered read
        that misses."""
        yield from system.write(0, 8, b"\x11" * 4096)
        cached = yield from system.read(0, 8, direct=False)
        assert cached == b"\x11" * 4096
        assert system.pagecache.misses == 1

    def test_direct_write_updates_a_cached_page(self):
        system = self._system()

        def scenario():
            yield from self._cache_page0(system)
            yield from system.write(0, 8, b"\xab" * 4096)
            got = yield from system.read(0, 8, direct=False)
            assert system.pagecache.hits == 1
            on_device = yield from system.read(0, 8)
            return got, on_device

        got, on_device = system.run_process(scenario())
        assert got == on_device == b"\xab" * 4096

    def test_trim_zeroes_a_cached_page(self):
        system = self._system()

        def scenario():
            yield from self._cache_page0(system)
            yield from system.trim(0, 8)
            got = yield from system.read(0, 8, direct=False)
            assert system.pagecache.hits == 1
            on_device = yield from system.read(0, 8)
            return got, on_device

        got, on_device = system.run_process(scenario())
        assert got == on_device == bytes(4096)

    def test_direct_write_updates_a_dirty_page_for_writeback(self):
        """The direct write first writes the dirty page back (its older
        bytes must not reach the device after it), then updates the
        cached copy."""
        system = self._system()
        sim = system.sim

        def scenario():
            yield from self._cache_page0(system)
            yield from system.write(0, 8, b"\x22" * 4096, direct=False)
            yield from system.write(0, 8, b"\xab" * 4096)
            assert system.pagecache.dirty_pages() == []
            assert system.pagecache.writebacks == 1
            got = yield from system.read(0, 8, direct=False)
            # two more dirty pages kick writeback
            yield from system.write(16, 8, direct=False)
            yield from system.write(24, 8, direct=False)
            while system.pagecache.writeback_running:
                yield sim.timeout(100_000)
            on_device = yield from system.read(0, 8)
            return got, on_device

        got, on_device = system.run_process(scenario())
        assert got == on_device == b"\xab" * 4096

    def test_unaligned_buffered_write_updates_covered_sectors(self):
        """An unaligned buffered write falls back to the device; only the
        sectors it covers change in the cached page."""
        system = self._system()

        def scenario():
            yield from self._cache_page0(system)
            yield from system.write(2, 3, b"\xcd" * 1536, direct=False)
            got = yield from system.read(0, 8, direct=False)
            assert system.pagecache.hits == 1
            on_device = yield from system.read(0, 8)
            return got, on_device

        got, on_device = system.run_process(scenario())
        assert got == on_device == (b"\x11" * 1024 + b"\xcd" * 1536
                                    + b"\x11" * 1536)


class TestPresets:
    def test_all_presets_valid(self):
        for name in presets.PRESETS:
            config = presets.by_name(name)
            config.validate()
            assert config.logical_capacity > 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            presets.by_name("optane")

    def test_intel750_matches_table1_shape(self):
        config = presets.intel750()
        assert config.geometry.channels == 12
        assert config.geometry.packages_per_channel == 5
        assert config.geometry.planes_per_die == 2
        assert config.dram.size == 1 << 30

    def test_zssd_is_fastest_flash(self):
        z = presets.zssd()
        for other in ("intel750", "850pro", "983dct"):
            assert z.timing.t_read_avg < \
                presets.by_name(other).timing.t_read_avg

    def test_table1_configuration_verbatim(self):
        table = presets.table1_configuration()
        assert table["Storage back-end"]["Block"] == 512
        assert table["NAND Flash timing (us)"]["tERASE"] == "3000"


class TestSystemWiring:
    def test_unknown_interface_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="interface"):
            FullSystem(device=tiny_config, interface="scsi")

    def test_unknown_kernel_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            FullSystem(device=tiny_config, kernel="3.10")

    def test_htype_forces_fifo_arbitration(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="sata")
        assert system.ssd.config.hil.arbitration == "fifo"

    def test_precondition_fills_mapping(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        placed = system.precondition()
        assert placed > 0
        assert system.ssd.ftl.mapping.mapped_count == placed

    def test_pattern_data_deterministic(self):
        a = FullSystem.pattern_data(10, 4, seed=3)
        b = FullSystem.pattern_data(10, 4, seed=3)
        c = FullSystem.pattern_data(10, 4, seed=4)
        assert a == b and a != c and len(a) == 4 * 512
