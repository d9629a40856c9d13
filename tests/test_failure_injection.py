"""Media failure injection: ECC read retries and bad-block retirement."""

import random

from repro.sim import Simulator
from repro.ssd.config import CacheConfig, FTLConfig, NandReliability
from repro.ssd.device import SSD

from tests.conftest import tiny_ssd_config


def build(sim, reliability, **overrides):
    config = tiny_ssd_config(reliability=reliability, **overrides)
    return SSD(sim, config, data_emulation=True)


class TestReadRetries:
    def test_retries_occur_and_preserve_data(self, sim):
        ssd = build(sim, NandReliability(read_retry_probability=0.3, seed=7),
                    cache=CacheConfig(readahead=False))
        data = bytes(range(256)) * 8

        def scenario():
            yield from ssd.write(0, 4, data)
            yield from ssd.flush()
            # evict so the read really hits flash; only clean lines may
            # go behind the ICL's back, or its dirty count would desync
            assert ssd.icl.dirty_line_count() == 0
            ssd.icl._lines.clear()
            got = yield from ssd.read(0, 4)
            return got

        # read enough pages for a 30% retry rate to fire
        got = sim.run_process(scenario())
        assert got == data
        # issue many more flash reads to observe retries statistically
        def more_reads():
            for i in range(50):
                assert ssd.icl.dirty_line_count() == 0
                ssd.icl._lines.clear()
                yield from ssd.read(0, 4)

        sim.run_process(more_reads())
        assert ssd.backend.read_retries > 0
        assert ssd.smart_report()["read_retries"] == ssd.backend.read_retries

    def test_retries_cost_extra_latency(self):
        def mean_read_ns(prob):
            sim = Simulator()
            ssd = build(sim, NandReliability(read_retry_probability=prob,
                                             seed=11),
                        cache=CacheConfig(readahead=False, enabled=False))

            def scenario():
                yield from ssd.write(0, 4)
                start = sim.now
                for _ in range(30):
                    yield from ssd.read(0, 4)
                return (sim.now - start) / 30

            return sim.run_process(scenario())

        assert mean_read_ns(0.9) > mean_read_ns(0.0)

    def test_retry_cap_respected(self, sim):
        ssd = build(sim, NandReliability(read_retry_probability=1.0,
                                         max_read_retries=2, seed=3),
                    cache=CacheConfig(enabled=False))

        def scenario():
            yield from ssd.write(0, 4)
            yield from ssd.read(0, 4)

        sim.run_process(scenario())
        # with p=1.0 every read burns exactly max_read_retries retries
        assert ssd.backend.read_retries <= \
            2 * (ssd.backend.reads_issued + 1)


class TestBadBlockRetirement:
    def test_failed_erases_retire_blocks(self, sim):
        ssd = build(sim, NandReliability(erase_fail_probability=0.5, seed=5),
                    ftl=FTLConfig(overprovision=0.25,
                                  gc_threshold_free_blocks=1))
        rng = random.Random(2)
        pages = ssd.config.logical_pages
        spp = ssd.config.geometry.page_size // 512
        shadow = {}

        def scenario():
            # churn half the space until a retirement happens, then stop
            # (continuing would spiral GC on the shrunken device)
            for round_no in range(4):
                for _ in range(pages // 2):
                    page = rng.randrange(pages // 2)
                    data = bytes([round_no & 0xFF]) * (spp * 512)
                    shadow[page] = data
                    yield from ssd.write(page * spp, spp, data)
                    if ssd.ftl.retired_blocks > 0:
                        break
                yield from ssd.flush()
                if ssd.ftl.retired_blocks > 0:
                    break
            # integrity must survive retirement
            for page, expected in sorted(shadow.items()):
                got = yield from ssd.read(page * spp, spp)
                assert got == expected, f"page {page} corrupted"

        sim.run_process(scenario())
        assert ssd.ftl.retired_blocks > 0
        assert ssd.smart_report()["retired_blocks"] == ssd.ftl.retired_blocks
        assert ssd.ftl.allocator.total_retired() == ssd.ftl.retired_blocks

    def test_retired_blocks_never_reallocated(self, sim):
        ssd = build(sim, NandReliability(erase_fail_probability=1.0, seed=9),
                    ftl=FTLConfig(overprovision=0.25,
                                  gc_threshold_free_blocks=1))
        allocator = ssd.ftl.allocator
        allocator.retire_block(0, 3)
        seen = set()
        ppb = ssd.config.geometry.pages_per_block
        for _ in range(ppb * (ssd.config.geometry.blocks_per_plane - 1)):
            ppn = allocator.allocate(0, now=0)
            seen.add(ssd.array.mapper.block_of_ppn(ppn))
        assert 3 not in seen

    def test_wear_accelerates_failures(self):
        rel = NandReliability(read_retry_probability=0.01,
                              wear_acceleration=50.0, seed=1)
        sim = Simulator()
        ssd = build(sim, rel)
        fresh = ssd.backend._wear_factor(0, 0)
        ssd.array.block(0, 0).erase_count = 2000
        worn = ssd.backend._wear_factor(0, 0)
        assert worn > fresh

    def test_ocssd_offline_chunks_reported(self, sim, tiny_config):
        from repro.core.system import FullSystem
        from repro.interfaces.ocssd.geometry import ChunkState
        config = tiny_config.with_overrides(
            reliability=NandReliability(erase_fail_probability=1.0, seed=4))
        system = FullSystem(device=config, interface="ocssd")

        def scenario():
            # force an erase through the vector interface
            ssd = system.ssd
            for page in range(ssd.config.geometry.pages_per_block):
                ssd.array.program_ppn(page, now=0)
                ssd.array.invalidate_ppn(page)
            ok = yield from system.controller.vector_erase(0, 0)
            return ok

        ok = system.run_process(scenario())
        assert not ok
        states = [d.state for d in system.controller.report_chunks(0)]
        assert ChunkState.OFFLINE in states
