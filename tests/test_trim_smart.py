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

    @pytest.mark.parametrize("interface", ["nvme", "sata", "ufs", "ocssd"])
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

    @pytest.mark.parametrize("interface", ["nvme", "sata", "ufs", "ocssd"])
    @pytest.mark.parametrize("trimmed", [2, 6])
    def test_trim_deallocates_only_the_pages_it_covers_whole(
            self, tiny_config, interface, trimmed):
        """TRIM sectors [0, trimmed) of 8 written ones.  The flash pages
        it covers whole read zeros; a page it covers in part keeps its
        bytes, so the sectors past the range read what was written and
        the trimmed ones read zeros or what was written."""
        from repro.core.system import FullSystem
        system = FullSystem(device=tiny_config, interface=interface,
                            data_emulation=True)
        data = FullSystem.pattern_data(0, 8)
        spp = tiny_config.geometry.page_size // 512

        def scenario():
            yield from system.write(0, 8, data)
            yield from system.trim(0, trimmed)
            got = yield from system.read(0, 8)
            return got

        got = system.run_process(scenario())
        whole, cut = trimmed // spp * spp * 512, trimmed * 512
        assert got[:whole] == bytes(whole)
        assert got[cut:] == data[cut:]
        assert got[whole:cut] in (bytes(cut - whole), data[whole:cut])

    def test_trim_during_a_pblk_flush_wins(self, tiny_config, monkeypatch):
        """A TRIM that lands while a pblk flush batch programs its pages
        wins: the batch leaves them unbound and the range reads zeros."""
        from repro.common.iorequest import IOKind, IORequest
        from repro.core.system import FullSystem
        from repro.ssd.firmware.ftl.mapping import UNMAPPED
        system = FullSystem(device=tiny_config, interface="ocssd",
                            data_emulation=True)
        pblk = system.adapter
        program = pblk.controller.vector_write
        trims, trimmed_first = [], []

        def trim_while_programming(ppns, data=None):
            if not trims:
                trims.append(system.sim.process(system.trim(0, 8)))
            yield from program(ppns, data)
            trimmed_first.append(trims[0].triggered)

        monkeypatch.setattr(pblk.controller, "vector_write",
                            trim_while_programming)

        def scenario():
            yield from system.write(0, 8, FullSystem.pattern_data(0, 8))
            flush = yield from system.submit_io(IORequest(IOKind.FLUSH, 0, 0))
            yield flush
            while pblk._flush_running:    # the TRIM emptied the buffer early
                yield system.sim.timeout(10_000)
            got = yield from system.read(0, 8)
            return got

        got = system.run_process(scenario())
        # one vector write per parallel unit, each done after the TRIM
        assert trimmed_first == [True, True] and pblk.pages_flushed == 2
        assert got == bytes(8 * 512)
        assert pblk.l2p[0] == pblk.l2p[1] == UNMAPPED
        assert all(lpn == UNMAPPED for lpn in pblk.p2l)
        assert sum(sum(state.valid) for state in pblk._pus) == 0

    def test_trim_during_a_pblk_gc_migration_wins(self, tiny_config,
                                                  monkeypatch):
        """A TRIM that lands while pblk's GC migrates the page wins too:
        the migrated copy stays unbound."""
        from repro.common.iorequest import IOKind, IORequest
        from repro.core.system import FullSystem
        from repro.ssd.firmware.ftl.mapping import UNMAPPED
        system = FullSystem(device=tiny_config, interface="ocssd",
                            data_emulation=True)
        pblk = system.adapter
        spp = pblk.sectors_per_page
        # one full chunk per parallel unit
        n_sectors = pblk.num_pu * pblk.pages_per_chunk * spp
        data = FullSystem.pattern_data(0, n_sectors)
        program = pblk.controller.vector_write
        migrating, trims, trimmed_first = [], [], []

        def trim_while_migrating(ppns, data=None):
            if not trims:
                lpn = migrating[0]
                trims.append(system.sim.process(
                    system.trim(lpn * spp, spp)))
            yield from program(ppns, data)
            trimmed_first.append(trims[0].triggered)

        def scenario():
            yield from system.write(0, n_sectors, data)
            flush = yield from system.submit_io(IORequest(IOKind.FLUSH, 0, 0))
            yield flush
            pu, victim, _page = pblk._decompose(pblk.l2p[0])
            migrating.append(pblk.p2l[pblk._ppn(pu, victim, 0)])
            monkeypatch.setattr(pblk.controller, "vector_write",
                                trim_while_migrating)
            yield from pblk._collect(pu, victim)
            got = yield from system.read(0, n_sectors)
            return got

        got = system.run_process(scenario())
        lpn = migrating[0]
        assert trimmed_first[0] and pblk.gc_pages_migrated == \
            pblk.pages_per_chunk - 1
        assert pblk.l2p[lpn] == UNMAPPED
        start, end = lpn * spp * 512, (lpn + 1) * spp * 512
        assert got == data[:start] + bytes(end - start) + data[end:]

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
