"""Protocol-conformance tests for the four storage interfaces."""

import pytest

from repro.common.iorequest import IOKind, IORequest
from repro.core.system import FullSystem
from repro.host.dma import PointerList
from repro.host.platform import mobile_platform
from repro.interfaces.nvme.queues import CompletionQueue, QueuePair, SubmissionQueue
from repro.interfaces.nvme.structures import (
    CQE_BYTES,
    SQE_BYTES,
    Namespace,
    NvmeOpcode,
    SubmissionEntry,
)
from repro.interfaces.sata.fis import FIS_SIZES, FisType
from repro.interfaces.ocssd.geometry import ChunkState, OcssdGeometry


class TestNvmeQueues:
    def test_sqe_cqe_sizes_match_spec(self):
        assert SQE_BYTES == 64
        assert CQE_BYTES == 16

    def test_sq_keeps_one_slot_open(self):
        sq = SubmissionQueue(qid=1, depth=4)
        for _ in range(3):
            sq.push(SubmissionEntry(NvmeOpcode.READ))
        assert sq.is_full
        with pytest.raises(RuntimeError, match="overflow"):
            sq.push(SubmissionEntry(NvmeOpcode.READ))

    def test_tail_advances_modulo_depth(self):
        sq = SubmissionQueue(qid=1, depth=4)
        for i in range(3):
            sq.push(SubmissionEntry(NvmeOpcode.READ))
            assert sq.tail == (i + 1) % 4
            sq.pop()

    def test_doorbell_reflects_tail(self):
        qp = QueuePair(qid=1, depth=8)
        qp.sq.push(SubmissionEntry(NvmeOpcode.WRITE))
        assert qp.sq_tail_doorbell == 0
        qp.ring_sq_doorbell()
        assert qp.sq_tail_doorbell == qp.sq.tail == 1

    def test_cq_reap_order(self):
        cq = CompletionQueue(qid=1, depth=8)
        from repro.interfaces.nvme.structures import CompletionEntry
        cq.post(CompletionEntry(cid=5, sq_id=1))
        cq.post(CompletionEntry(cid=7, sq_id=1))
        assert cq.reap().cid == 5
        assert cq.reap().cid == 7
        assert cq.reap() is None

    def test_namespace_translation_bounds(self):
        ns = Namespace(nsid=2, start_sector=1000, n_sectors=100)
        assert ns.translate(0, 10) == 1000
        assert ns.translate(90, 10) == 1090
        with pytest.raises(ValueError):
            ns.translate(95, 10)


class TestNvmeEndToEnd:
    def test_mandatory_commands_supported(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme",
                            data_emulation=True)

        def scenario():
            data = FullSystem.pattern_data(0, 8)
            yield from system.write(0, 8, data)        # WRITE
            got = yield from system.read(0, 8)         # READ
            assert got == data
            req = IORequest(IOKind.FLUSH, 0, 0)
            event = yield from system.submit_io(req)   # FLUSH
            yield event

        system.run_process(scenario())
        assert system.controller.completions_posted == 3

    def test_namespace_management_optional_feature(self, sim, tiny_config):
        from repro.host.memory import HostMemory
        from repro.host.pcie import PcieLink
        from repro.interfaces.nvme.host import NvmeDriver
        memory = HostMemory(sim, 1 << 30, bandwidth=1 << 34)
        driver = NvmeDriver(sim, memory, PcieLink(sim), total_sectors=0)
        driver.create_namespace(1, 0, 1000)
        driver.create_namespace(2, 1000, 1000)
        assert driver.identify()["namespaces"] == [1, 2]
        with pytest.raises(ValueError, match="overlaps"):
            driver.create_namespace(3, 500, 1000)
        with pytest.raises(ValueError, match="exists"):
            driver.create_namespace(2, 5000, 10)

    def test_default_namespace_rejects_overlap(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")
        with pytest.raises(ValueError, match="overlaps"):
            system.adapter.create_namespace(2, 0, 100)

    def test_interrupt_reaps_all_posted_completions(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme")

        def scenario():
            events = []
            for i in range(6):
                req = IORequest(IOKind.READ, i * 8, 8)
                events.append((yield from system.submit_io(req)))
            for event in events:
                yield event

        system.run_process(scenario())
        assert system.adapter.interrupts_received >= 1
        # every CQ must be drained after the run
        for qpair in system.adapter.qpairs.values():
            assert qpair.cq.reap() is None


class TestSataAhci:
    def test_fis_sizes(self):
        assert FIS_SIZES[FisType.REGISTER_H2D] == 20
        assert FIS_SIZES[FisType.SET_DEVICE_BITS] == 8

    def test_prdt_segments_are_page_grained(self):
        prdt = PointerList.for_buffer(0x1000, 10_000)
        assert prdt.total_bytes == 10_000
        assert all(nbytes <= 4096 for _address, nbytes in prdt.entries)

    def test_ncq_limits_outstanding_to_32(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="sata")
        hba = system.adapter
        assert hba.max_outstanding == 32
        peak = {"value": 0}

        def scenario():
            events = []
            for i in range(48):
                # stride 24: never adjacent, so the block layer can't merge
                req = IORequest(IOKind.READ, (i * 24) % 2000, 8)
                events.append((yield from system.submit_io(req)))
                peak["value"] = max(peak["value"],
                                    32 - len(hba._free_slots))
            for event in events:
                yield event

        system.run_process(scenario())
        assert peak["value"] <= 32
        assert hba.commands_issued == 48

    def test_sata_interrupts_serialized_on_core0(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="sata")

        def scenario():
            req = IORequest(IOKind.READ, 0, 8)
            event = yield from system.submit_io(req)
            yield event
            return req

        req = system.run_process(scenario())
        assert req.queue_id == 0   # single interrupt path

    def test_data_integrity_through_prdt_walk(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="sata",
                            data_emulation=True)

        def scenario():
            data = FullSystem.pattern_data(100, 16)
            yield from system.write(100, 16, data)
            got = yield from system.read(100, 16)
            assert got == data

        system.run_process(scenario())


class TestUfs:
    def test_utrd_slots_limit(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="ufs")
        assert system.adapter.max_outstanding == 32

    def test_runs_on_mobile_platform_by_default(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="ufs")
        assert system.platform.name == "mobile"

    def test_data_integrity(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="ufs",
                            platform=mobile_platform(), data_emulation=True)

        def scenario():
            data = FullSystem.pattern_data(0, 24)
            yield from system.write(0, 24, data)
            got = yield from system.read(0, 24)
            assert got == data

        system.run_process(scenario())

    def test_ufs_slower_than_nvme_same_device(self, tiny_config):
        from repro.core.fio import FioJob
        results = {}
        for interface in ("nvme", "ufs"):
            system = FullSystem(device=tiny_config, interface=interface)
            system.precondition()
            results[interface] = system.run_fio(
                FioJob(rw="randread", bs=2048, iodepth=16, total_ios=300))
        assert results["nvme"].bandwidth_mbps >= \
            0.8 * results["ufs"].bandwidth_mbps


class TestOcssd:
    def test_geometry_from_config(self, tiny_config):
        geometry = OcssdGeometry.from_config(tiny_config)
        assert geometry.num_pu == tiny_config.geometry.parallel_units
        assert geometry.pages_per_chunk == tiny_config.geometry.pages_per_block
        assert geometry.spec_version == "2.0"

    def test_spec_12_identify(self, tiny_config):
        geometry = OcssdGeometry.from_config(tiny_config, "1.2")
        ident = geometry.describe_12()
        assert ident["num_pu"] == tiny_config.geometry.parallel_units
        with pytest.raises(ValueError):
            OcssdGeometry.from_config(tiny_config, "3.0")

    def test_chunk_report_reflects_writes(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="ocssd")

        def scenario():
            yield from system.write(0, 64)
            req = IORequest(IOKind.FLUSH, 0, 0)
            event = yield from system.submit_io(req)
            yield event

        system.run_process(scenario())
        states = [desc.state for pu in range(4)
                  for desc in system.controller.report_chunks(pu)]
        assert ChunkState.OPEN in states or ChunkState.CLOSED in states

    def test_precondition_is_refused_and_the_first_flush_runs(
            self, tiny_config):
        """``precondition`` filled the device FTL's blocks behind pblk,
        so pblk's first flush then broke the in-order program rule
        (``out-of-order program: block 0 expects page 16, got 0``).  It
        is refused now, and the same write and flush run clean."""
        system = FullSystem(device=tiny_config, interface="ocssd",
                            data_emulation=True)
        with pytest.raises(ValueError, match="pblk maps its own pages"):
            system.precondition()
        assert system.ssd.array.total_programs == 0
        data = FullSystem.pattern_data(0, 64)

        def scenario():
            yield from system.write(0, 64, data)
            flush = yield from system.submit_io(IORequest(IOKind.FLUSH, 0, 0))
            yield flush
            return (yield from system.read(0, 64))

        assert system.run_process(scenario()) == data
        assert system.adapter.pages_flushed == 16

    def test_pblk_data_integrity(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="ocssd",
                            data_emulation=True)

        def scenario():
            data = FullSystem.pattern_data(0, 32)
            yield from system.write(0, 32, data)
            got = yield from system.read(0, 32)
            assert got == data
            # force a flush, then read from flash (not the write buffer)
            req = IORequest(IOKind.FLUSH, 0, 0)
            event = yield from system.submit_io(req)
            yield event
            got = yield from system.read(0, 32)
            assert got == data

        system.run_process(scenario())
        assert system.adapter.pages_flushed > 0

    def test_pblk_unaligned_writes_match_nvme(self, tiny_config):
        """Writes that cover part of a 2 KiB page keep the page's other
        sectors, whether they sit in the write buffer, were flushed to
        flash or were never written: OCSSD returns NVMe's bytes."""

        def run(interface):
            system = FullSystem(device=tiny_config, interface=interface,
                                data_emulation=True)

            def write(slba, nsectors, seed):
                yield from system.write(slba, nsectors, FullSystem
                                        .pattern_data(slba, nsectors, seed))

            def scenario():
                yield from write(0, 16, 1)          # pages 0-3
                flush = yield from system.submit_io(
                    IORequest(IOKind.FLUSH, 0, 0))
                yield flush                         # ... now on flash
                yield from write(2, 4, 2)           # halves of pages 0, 1
                yield from write(9, 2, 3)           # middle of page 2
                yield from write(10, 1, 4)          # page 2 again, buffered
                yield from write(21, 5, 5)          # unwritten pages 5, 6
                reads = []
                for slba, nsectors in ((0, 16), (2, 4), (16, 16)):
                    reads.append((yield from system.read(slba, nsectors)))
                return reads

            return system.run_process(scenario())

        assert run("ocssd") == run("nvme")

    def test_pblk_gc_reclaims_chunks(self, tiny_config):
        import random
        system = FullSystem(device=tiny_config, interface="ocssd")
        pblk = system.adapter
        # shrink the ring so writes actually reach flash (and invalidate
        # old pages there) instead of coalescing in the buffer
        pblk.buffer_capacity_pages = 16
        rng = random.Random(5)
        pages = pblk.logical_pages
        spp = pblk.sectors_per_page

        def scenario():
            for _ in range(3 * pages):
                page = rng.randrange(pages)
                yield from system.write(page * spp, spp)
            req = IORequest(IOKind.FLUSH, 0, 0)
            event = yield from system.submit_io(req)
            yield event

        system.run_process(scenario())
        assert pblk.gc_chunks_reclaimed > 0
        assert system.controller.vector_erases > 0

    def test_passive_storage_burns_host_cpu(self, tiny_config):
        from repro.core.fio import FioJob
        results = {}
        for interface in ("nvme", "ocssd"):
            system = FullSystem(device=tiny_config, interface=interface)
            if interface == "nvme":
                system.precondition()
            results[interface] = system.run_fio(
                FioJob(rw="randwrite", bs=2048, iodepth=8, total_ios=300))
        assert results["ocssd"].host_kernel_utilization > \
            results["nvme"].host_kernel_utilization
