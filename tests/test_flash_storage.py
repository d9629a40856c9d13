"""Unit tests for the storage complex: addressing, array state, backend timing."""

import pytest

from repro.sim import Simulator
from repro.ssd.config import FlashGeometry
from repro.ssd.storage.address import PPA, AddressMapper
from repro.ssd.storage.array import FlashArray, PageState
from repro.ssd.storage.backend import FlashBackend

from tests.conftest import tiny_ssd_config


@pytest.fixture
def geometry():
    return FlashGeometry(channels=2, packages_per_channel=2, dies_per_package=1,
                         planes_per_die=2, blocks_per_plane=4, pages_per_block=8,
                         page_size=2048)


class TestAddressMapper:
    def test_ppn_roundtrip_all_pages(self, geometry):
        mapper = AddressMapper(geometry)
        for ppn in range(geometry.total_physical_pages):
            assert mapper.ppn(mapper.ppa(ppn)) == ppn

    def test_ppa_roundtrip(self, geometry):
        mapper = AddressMapper(geometry)
        ppa = PPA(channel=1, way=1, plane=0, block=2, page=5)
        assert mapper.ppa(mapper.ppn(ppa)) == ppa

    def test_unit_index_is_dense(self, geometry):
        mapper = AddressMapper(geometry)
        seen = set()
        for ch in range(geometry.channels):
            for way in range(geometry.ways_per_channel):
                for plane in range(geometry.planes_per_die):
                    seen.add(mapper.unit_index(ch, way, plane))
        assert seen == set(range(geometry.parallel_units))

    def test_out_of_range_rejected(self, geometry):
        mapper = AddressMapper(geometry)
        with pytest.raises(ValueError):
            mapper.ppn(PPA(99, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            mapper.ppa(geometry.total_physical_pages)

    def test_unit_of_ppn_consistent_with_ppa(self, geometry):
        mapper = AddressMapper(geometry)
        for ppn in range(0, geometry.total_physical_pages, 7):
            ppa = mapper.ppa(ppn)
            assert (mapper.unit_of_ppn(ppn)
                    == mapper.unit_index(ppa.channel, ppa.way, ppa.plane))
            assert mapper.block_of_ppn(ppn) == ppa.block
            assert mapper.page_of_ppn(ppn) == ppa.page


class TestFlashArrayState:
    def test_pages_start_free(self, geometry):
        array = FlashArray(geometry)
        assert array.page_state(0) == PageState.FREE

    def test_program_makes_valid(self, geometry):
        array = FlashArray(geometry)
        array.program_ppn(0, now=10)
        assert array.page_state(0) == PageState.VALID

    def test_out_of_order_program_rejected(self, geometry):
        array = FlashArray(geometry)
        with pytest.raises(RuntimeError, match="out-of-order"):
            array.program_ppn(2, now=0)  # page 2 before pages 0, 1

    def test_program_run_keeps_the_in_order_check(self, geometry):
        array = FlashArray(geometry)
        array.program_run(0, 3, now=5)
        assert [array.page_state(p) for p in range(4)] == \
            [PageState.VALID] * 3 + [PageState.FREE]
        assert array.block(0, 0).valid_count == 3
        assert array.total_programs == 3
        with pytest.raises(RuntimeError, match="out-of-order"):
            array.program_run(4, 2, now=5)  # pages 4-5 before page 3

    def test_overwrite_without_erase_rejected(self, geometry):
        array = FlashArray(geometry)
        array.program_ppn(0, now=0)
        with pytest.raises(RuntimeError):
            array.program_ppn(0, now=1)

    def test_invalidate_then_erase(self, geometry):
        array = FlashArray(geometry)
        for page in range(geometry.pages_per_block):
            array.program_ppn(page, now=0)
        for page in range(geometry.pages_per_block):
            array.invalidate_ppn(page)
        array.erase_block(0, 0)
        assert array.page_state(0) == PageState.FREE
        assert array.block(0, 0).erase_count == 1

    def test_erase_with_valid_pages_rejected(self, geometry):
        array = FlashArray(geometry)
        array.program_ppn(0, now=0)
        with pytest.raises(RuntimeError, match="lose data"):
            array.erase_block(0, 0)

    def test_double_invalidate_rejected(self, geometry):
        array = FlashArray(geometry)
        array.program_ppn(0, now=0)
        array.invalidate_ppn(0)
        with pytest.raises(RuntimeError):
            array.invalidate_ppn(0)

    def test_valid_pages_iterates_only_valid(self, geometry):
        array = FlashArray(geometry)
        for page in range(4):
            array.program_ppn(page, now=0)
        array.invalidate_ppn(1)
        assert list(array.block(0, 0).valid_pages()) == [0, 2, 3]

    def test_program_erase_counters(self, geometry):
        array = FlashArray(geometry)
        array.program_ppn(0, now=0)
        array.invalidate_ppn(0)
        array.erase_block(0, 0)
        assert array.total_programs == 1
        assert array.total_erases == 1


class TestBackendTiming:
    def _config(self):
        return tiny_ssd_config()

    def test_read_latency_includes_sense_and_transfer(self):
        sim = Simulator()
        config = self._config()
        backend = FlashBackend(sim, config)
        sim.run_process(backend.read_page(0, config.geometry.page_size))
        timing = config.timing
        expected_min = timing.t_read(0) + timing.t_cmd
        assert sim.now >= expected_min
        # transfer of one 2 KB page at 200 MHz DDR x8 = 400 MB/s ~ 5.1 us
        assert sim.now < expected_min + 10_000

    def test_slow_page_reads_slower(self):
        config = self._config()
        sim_fast, sim_slow = Simulator(), Simulator()
        FlashBackend(sim_fast, config)  # warm import path parity
        backend_fast = FlashBackend(sim_fast, config)
        backend_slow = FlashBackend(sim_slow, config)
        sim_fast.run_process(backend_fast.read_page(0))   # page 0: fast
        sim_slow.run_process(backend_slow.read_page(1))   # page 1: slow
        assert sim_slow.now > sim_fast.now

    def test_program_latency_dominated_by_tprog(self):
        sim = Simulator()
        config = self._config()
        backend = FlashBackend(sim, config)
        sim.run_process(backend.program_page(0))
        assert sim.now >= config.timing.t_prog(0)

    def test_same_die_reads_serialize(self):
        sim = Simulator()
        config = self._config()
        backend = FlashBackend(sim, config)

        def both():
            procs = [sim.process(backend.read_page(0)),
                     sim.process(backend.read_page(1))]
            for proc in procs:
                yield proc

        sim.run_process(both())
        # two reads on the same die cannot overlap their sense phases
        assert sim.now >= config.timing.t_read(0) + config.timing.t_read(1)

    def test_different_channel_reads_overlap(self):
        sim = Simulator()
        config = self._config()
        backend = FlashBackend(sim, config)
        mapper = backend.mapper
        other_channel_unit = mapper.unit_index(1, 0, 0)
        other_ppn = mapper.ppn_from_unit(other_channel_unit, 0, 0)

        def both():
            procs = [sim.process(backend.read_page(0)),
                     sim.process(backend.read_page(other_ppn))]
            for proc in procs:
                yield proc

        sim.run_process(both())
        # full overlap: total is one read, not two
        assert sim.now < 2 * config.timing.t_read(0)

    def test_erase_busy_time(self):
        sim = Simulator()
        config = self._config()
        backend = FlashBackend(sim, config)
        sim.run_process(backend.erase_block(0, 0))
        assert sim.now == config.timing.t_erase

    def test_multiplane_program_single_pulse(self):
        sim = Simulator()
        config = self._config()
        backend = FlashBackend(sim, config)
        mapper = backend.mapper
        # plane 0 and plane 1 of die 0, same block/page
        ppns = [mapper.ppn_from_unit(0, 0, 0), mapper.ppn_from_unit(1, 0, 0)]
        sim.run_process(backend.program_multiplane(ppns))
        # one program pulse, not two
        assert sim.now < 2 * config.timing.t_prog(0)
        assert backend.programs_issued == 2

    def test_multiplane_across_dies_rejected(self):
        sim = Simulator()
        config = self._config()
        backend = FlashBackend(sim, config)
        mapper = backend.mapper
        far_unit = config.geometry.planes_per_die  # first unit of die 1
        ppns = [0, mapper.ppn_from_unit(far_unit, 0, 0)]
        with pytest.raises(ValueError, match="single die"):
            sim.run_process(backend.program_multiplane(ppns))

    def test_power_meter_counts_operations(self):
        sim = Simulator()
        config = self._config()
        backend = FlashBackend(sim, config)
        sim.run_process(backend.read_page(0))
        sim.run_process(backend.program_page(0))
        sim.run_process(backend.erase_block(0, 0))
        assert backend.power.reads == 1
        assert backend.power.programs == 1
        assert backend.power.erases == 1
        assert backend.power.dynamic_energy() > 0
        assert backend.power.average_power() > 0
