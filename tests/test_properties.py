"""Property-based tests (hypothesis) on core invariants."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.instructions import InstructionMix
from repro.common.recorders import LatencyRecorder
from repro.sim import Resource, Simulator, Store
from repro.ssd.config import FlashGeometry
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand, split_command
from repro.ssd.storage.address import AddressMapper
from repro.ssd.storage.array import FlashArray, PageState
from repro.common.iorequest import IOKind

from tests.conftest import tiny_ssd_config

_geometries = st.builds(
    FlashGeometry,
    channels=st.integers(1, 4),
    packages_per_channel=st.integers(1, 3),
    dies_per_package=st.integers(1, 2),
    planes_per_die=st.integers(1, 2),
    blocks_per_plane=st.integers(2, 8),
    pages_per_block=st.integers(2, 16),
    page_size=st.sampled_from([2048, 4096]),
)


class TestAddressProperties:
    @given(_geometries, st.integers(0, 1 << 30))
    def test_ppn_ppa_roundtrip(self, geometry, seed):
        mapper = AddressMapper(geometry)
        ppn = seed % geometry.total_physical_pages
        assert mapper.ppn(mapper.ppa(ppn)) == ppn

    @given(_geometries)
    def test_units_partition_pages(self, geometry):
        mapper = AddressMapper(geometry)
        pages_per_unit = mapper.pages_per_unit
        total = geometry.total_physical_pages
        assert pages_per_unit * geometry.parallel_units == total


class TestSimulatorProperties:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=40))
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.integers(1, 5), st.integers(1, 30))
    def test_resource_never_exceeds_capacity(self, capacity, workers):
        sim = Simulator()
        resource = Resource(sim, capacity)
        peak = {"value": 0}

        def worker():
            yield resource.acquire()
            peak["value"] = max(peak["value"], resource.in_use)
            yield sim.timeout(7)
            resource.release()

        for _ in range(workers):
            sim.process(worker())
        sim.run()
        assert peak["value"] <= capacity
        assert resource.in_use == 0

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=25))
    def test_store_preserves_fifo(self, values):
        sim = Simulator()
        store = Store(sim)
        for value in values:
            store.put(value)
        out = []

        def consumer():
            for _ in range(len(values)):
                out.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert out == values


class TestFlashArrayProperties:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(deadline=None)
    def test_random_lifecycle_never_corrupts_counts(self, seed):
        rng = random.Random(seed)
        geometry = FlashGeometry(channels=1, packages_per_channel=1,
                                 dies_per_package=1, planes_per_die=1,
                                 blocks_per_plane=4, pages_per_block=8,
                                 page_size=2048)
        array = FlashArray(geometry)
        valid = set()
        for _ in range(200):
            action = rng.random()
            if action < 0.5:
                # program next page of a random non-full block
                block_idx = rng.randrange(4)
                block = array.block(0, block_idx)
                if block.next_page < 8:
                    ppn = block_idx * 8 + block.next_page
                    array.program_ppn(ppn, now=0)
                    valid.add(ppn)
            elif action < 0.8 and valid:
                ppn = rng.choice(sorted(valid))
                array.invalidate_ppn(ppn)
                valid.discard(ppn)
            else:
                block_idx = rng.randrange(4)
                block = array.block(0, block_idx)
                if block.valid_count == 0:
                    array.erase_block(0, block_idx)
                    valid = {p for p in valid if p // 8 != block_idx}
        assert array.valid_page_total() == len(valid)
        for ppn in valid:
            assert array.page_state(ppn) == PageState.VALID


class TestSplitCommandProperties:
    @given(st.integers(0, 500), st.integers(1, 200),
           st.sampled_from([2048, 4096]), st.integers(1, 8))
    def test_split_covers_exactly_the_request(self, slba, nsectors,
                                              page_size, pages_per_line):
        cmd = DeviceCommand(IOKind.READ, slba, nsectors)
        lines = split_command(cmd, page_size, pages_per_line)
        covered = 0
        sectors_per_page = page_size // 512
        sectors_per_line = sectors_per_page * pages_per_line
        for line in lines:
            for slot, (off, count) in line.page_sectors.items():
                assert 0 <= slot < pages_per_line
                assert 0 <= off < sectors_per_page
                assert 0 < count <= sectors_per_page - off
                covered += count
            # line ids strictly increase
        assert covered == nsectors
        ids = [line.line_id for line in lines]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        # reassemble: absolute sector ranges must tile [slba, slba+n)
        absolute = []
        for line in lines:
            base = line.line_id * sectors_per_line
            for slot, (off, count) in sorted(line.page_sectors.items()):
                start = base + slot * sectors_per_page + off
                absolute.extend(range(start, start + count))
        assert absolute == list(range(slba, slba + nsectors))


class TestDeviceProperties:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2 ** 16))
    def test_random_write_read_sequences_preserve_data(self, seed):
        """The end-to-end invariant: the device is a correct block store."""
        from repro.sim import Simulator as Sim
        sim = Sim()
        config = tiny_ssd_config()
        ssd = SSD(sim, config, data_emulation=True)
        rng = random.Random(seed)
        sectors = config.logical_sectors
        shadow = {}

        def scenario():
            for _ in range(30):
                slba = rng.randrange(sectors - 16)
                count = rng.randint(1, 16)
                if rng.random() < 0.6:
                    data = bytes(rng.getrandbits(8)
                                 for _ in range(count * 512))
                    yield from ssd.write(slba, count, data)
                    for i in range(count):
                        shadow[slba + i] = data[i * 512:(i + 1) * 512]
                else:
                    got = yield from ssd.read(slba, count)
                    for i in range(count):
                        expected = shadow.get(slba + i, bytes(512))
                        assert got[i * 512:(i + 1) * 512] == expected, \
                            f"sector {slba + i} mismatch"

        sim.run_process(scenario())


class TestInstrumentProperties:
    @given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=100))
    def test_latency_percentiles_are_monotone(self, samples):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        p50 = recorder.percentile(50)
        p90 = recorder.percentile(90)
        p99 = recorder.percentile(99)
        assert recorder.min() <= p50 <= p90 <= p99 <= recorder.max()

    @given(st.integers(1, 10 ** 6), st.floats(0.0, 0.3))
    def test_instruction_mix_total_conserved(self, total, fp_fraction):
        mix = InstructionMix.typical(total, fp_fraction)
        assert mix.total == total
        assert mix.cycles() >= total  # CPI >= 1 for every class
