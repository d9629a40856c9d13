"""TRIM/deallocate path and SMART health reporting."""

import pytest

from repro.sim import Simulator
from repro.ssd.device import SSD

from tests.conftest import tiny_ssd_config


@pytest.fixture
def ssd(sim):
    return SSD(sim, tiny_ssd_config(), data_emulation=True)


class TestTrim:
    def test_trimmed_range_reads_as_zero(self, sim, ssd):
        data = bytes(range(256)) * 16   # 8 sectors

        def scenario():
            yield from ssd.write(0, 8, data)
            yield from ssd.flush()
            got = yield from ssd.read(0, 8)
            assert got == data
            yield from ssd.trim(0, 8)
            got = yield from ssd.read(0, 8)
            return got

        assert sim.run_process(scenario()) == bytes(8 * 512)
        assert ssd.ftl.trimmed_pages >= 1

    def test_trim_invalidates_physical_pages(self, sim, ssd):
        spp = ssd.config.geometry.page_size // 512

        def scenario():
            yield from ssd.write(0, 4 * spp)
            yield from ssd.flush()
            valid_before = ssd.array.valid_page_total()
            yield from ssd.trim(0, 4 * spp)
            return valid_before

        valid_before = sim.run_process(scenario())
        assert ssd.array.valid_page_total() < valid_before

    def test_trim_drops_dirty_cache(self, sim, ssd):
        def scenario():
            yield from ssd.write(0, 8)     # dirty in cache, never flushed
            yield from ssd.trim(0, 8)
            yield from ssd.flush()

        sim.run_process(scenario())
        # nothing programmed: the dirty data was deallocated before flush
        assert ssd.backend.programs_issued == 0

    def test_trim_unwritten_range_is_noop(self, sim, ssd):
        def scenario():
            yield from ssd.trim(100, 8)

        sim.run_process(scenario())
        assert ssd.ftl.trimmed_pages == 0

    def test_trim_out_of_range_rejected(self, sim, ssd):
        def scenario():
            yield from ssd.trim(ssd.config.logical_sectors - 1, 8)

        with pytest.raises(ValueError, match="capacity"):
            sim.run_process(scenario())

    def test_trim_through_nvme_dsm(self, tiny_config):
        from repro.core.system import FullSystem
        system = FullSystem(device=tiny_config, interface="nvme",
                            data_emulation=True)

        def scenario():
            data = FullSystem.pattern_data(0, 8)
            yield from system.write(0, 8, data)
            yield from system.trim(0, 8)
            got = yield from system.read(0, 8)
            return got

        assert system.run_process(scenario()) == bytes(8 * 512)

    @pytest.mark.parametrize("interface", ["nvme", "sata", "ufs"])
    def test_trim_deallocates_without_a_data_phase(self, tiny_config,
                                                    interface):
        """A TRIM is no READ: the range reads zeros afterwards and no
        payload crosses the link to the host."""
        from repro.core.system import FullSystem
        system = FullSystem(device=tiny_config, interface=interface,
                            data_emulation=True)
        moved = {}

        def scenario():
            yield from system.write(0, 64, FullSystem.pattern_data(0, 64))
            before = system.dma.bytes_to_host
            yield from system.trim(0, 64)
            moved["to_host"] = system.dma.bytes_to_host - before
            got = yield from system.read(0, 64)
            return got

        assert system.run_process(scenario()) == bytes(64 * 512)
        assert moved["to_host"] == 0

    def test_trimmed_blocks_become_cheap_gc_victims(self, sim, ssd):
        spp = ssd.config.geometry.page_size // 512
        pages = ssd.config.logical_pages

        def scenario():
            for page in range(pages // 2):
                yield from ssd.write(page * spp, spp)
            yield from ssd.flush()
            yield from ssd.trim(0, (pages // 2) * spp)

        sim.run_process(scenario())
        # every trimmed page is invalid: GC could reclaim without moves
        candidates = sum(len(ssd.ftl.allocator.gc_candidates(u))
                         for u in range(ssd.config.geometry.parallel_units))
        assert candidates > 0


class TestSmart:
    def test_smart_fields_track_activity(self, sim, ssd):
        spp = ssd.config.geometry.page_size // 512

        def scenario():
            for i in range(40):
                yield from ssd.write((i % 10) * spp, spp)
                yield from ssd.flush()

        sim.run_process(scenario())
        smart = ssd.smart_report()
        assert smart["host_writes_pages"] >= 40
        assert smart["media_writes_pages"] >= smart["host_writes_pages"]
        assert 0.0 <= smart["percentage_used"] <= 100.0
        assert smart["power_on_seconds"] > 0

    def test_fresh_device_is_unworn(self, sim, ssd):
        smart = ssd.smart_report()
        assert smart["average_erase_count"] == 0
        assert smart["percentage_used"] == 0.0
        assert smart["trimmed_pages"] == 0

    def test_tlc_wears_faster_than_mlc(self, sim):
        from repro.ssd.config import FlashTiming
        mlc = SSD(sim, tiny_ssd_config())
        tlc_config = tiny_ssd_config(timing=FlashTiming(bits_per_cell=3))
        tlc = SSD(Simulator(), tlc_config)
        for device in (mlc, tlc):
            for unit in range(device.config.geometry.parallel_units):
                device.array.block(unit, 0).erase_count = 50
        assert tlc.smart_report()["percentage_used"] > \
            mlc.smart_report()["percentage_used"]
