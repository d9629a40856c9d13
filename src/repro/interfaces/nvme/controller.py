"""Device-side NVMe controller.

Fetches SQEs over PCIe when doorbells ring, parses them, emulates every
payload transfer through the DMA engine (PRP/SGL walk), drives the SSD's
HIL, and posts CQEs + MSI-X on completion.
"""

from __future__ import annotations

from typing import Dict

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind
from repro.host.dma import DmaEngine, PointerList
from repro.interfaces.nvme.host import NvmeDriver
from repro.interfaces.nvme.structures import (
    CQE_BYTES,
    SQE_BYTES,
    CompletionEntry,
    NvmeOpcode,
    SubmissionEntry,
)
from repro.sim.tracer import NULL_SPAN_CONTEXT
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand

_MSI_BYTES = 16


class NvmeController:
    def __init__(self, sim, ssd: SSD, dma: DmaEngine,
                 driver: NvmeDriver) -> None:
        self.sim = sim
        self.ssd = ssd
        self.dma = dma
        self.driver = driver
        #: WRR priority class per submission queue id (default 1); the
        #: multi-tenant engine fills it, one entry per tenant queue
        self.queue_priorities: Dict[int, int] = {}
        driver.attach_controller(self)
        self._doorbell_mix = InstructionMix.typical(
            ssd.config.costs.doorbell_service)
        self._fetch_busy: Dict[int, bool] = {}
        self.commands_fetched = 0
        self.completions_posted = 0

    # -- doorbell handling -----------------------------------------------------

    def doorbell(self, qid: int) -> None:
        """Posted doorbell write arrived; start fetching if not already."""
        if not self._fetch_busy.get(qid):
            self._fetch_busy[qid] = True
            self.sim.process(self._fetch_loop(qid))

    def admin_doorbell(self) -> None:
        """Admin queue doorbell: fetch and execute admin commands."""
        if not self._fetch_busy.get(0):
            self._fetch_busy[0] = True
            self.sim.process(self._admin_loop())

    def _admin_loop(self):
        admin = self.driver.admin
        try:
            while admin.device_work_pending:
                sqe = admin.sq.pop()
                yield from self.dma.control_to_device(SQE_BYTES)
                yield from self.ssd.cores.execute("hil", self._doorbell_mix)
                result = yield from self._execute_admin(sqe)
                cqe = CompletionEntry(cid=sqe.cid, sq_id=0,
                                      sq_head=admin.sq.head)
                cqe.payload = result
                yield from self.dma.control_to_host(CQE_BYTES)
                admin.cq.post(cqe)
                yield from self.dma.control_to_host(_MSI_BYTES)
                self.driver.interrupt_admin()
        finally:
            self._fetch_busy[0] = False

    def _execute_admin(self, sqe: SubmissionEntry):
        """Mandatory + supported-optional admin commands (NVMe 1.2.1)."""
        params = sqe.context or {}
        if sqe.opcode is NvmeOpcode.IDENTIFY:
            config = self.ssd.config
            result = {
                "model": config.name,
                "capacity_sectors": config.logical_sectors,
                "namespaces": sorted(self.driver.namespaces),
                "channels": config.geometry.channels,
                "embedded_cores": config.cores.n_cores,
            }
        elif sqe.opcode is NvmeOpcode.GET_LOG_PAGE:
            # log page 0x02 = SMART / health information
            result = self.ssd.smart_report()
        elif sqe.opcode is NvmeOpcode.CREATE_SQ:
            result = self.driver.create_io_queue_pair(
                params["qid"], params.get("depth"))
        elif sqe.opcode is NvmeOpcode.CREATE_CQ:
            result = None   # paired with CREATE_SQ in create_io_queue_pair
        elif sqe.opcode is NvmeOpcode.DELETE_SQ:
            self.driver.delete_io_queue_pair(params["qid"])
            result = None
        elif sqe.opcode is NvmeOpcode.DELETE_CQ:
            result = None
        elif sqe.opcode in (NvmeOpcode.SET_FEATURES, NvmeOpcode.GET_FEATURES):
            result = dict(params)
        elif sqe.opcode is NvmeOpcode.NS_MANAGEMENT:
            ns = self.driver.create_namespace(
                params["nsid"], params["start_sector"], params["n_sectors"])
            result = ns
        elif sqe.opcode is NvmeOpcode.NS_ATTACH:
            result = None
        elif sqe.opcode is NvmeOpcode.FORMAT_NVM:
            # deallocate the whole drive: TRIM every mapped sector range
            yield self.ssd.submit(DeviceCommand(
                IOKind.TRIM, 0, self.ssd.config.logical_sectors))
            result = None
        elif sqe.opcode is NvmeOpcode.ABORT:
            result = None   # nothing cancellable: completions are in flight
        else:
            raise ValueError(f"unsupported admin opcode {sqe.opcode}")
        return result

    def _fetch_loop(self, qid: int):
        qpair = self.driver.qpairs[qid]
        try:
            while qpair.device_work_pending:
                sqe = qpair.sq.pop()
                # SQE fetch: 64 B DMA from host memory over PCIe
                yield from self.dma.control_to_device(SQE_BYTES)
                # the embedded core that owns the queue must service every
                # doorbell/fetch — the cost behind Fig 13c's NVMe./UFS gap
                yield from self.ssd.cores.execute("hil", self._doorbell_mix)
                self.commands_fetched += 1
                self.sim.process(self._execute(qid, sqe))
        finally:
            self._fetch_busy[qid] = False

    # -- command execution --------------------------------------------------------

    def _execute(self, qid: int, sqe: SubmissionEntry):
        req = sqe.context
        track = req.req_id if req is not None else 0
        pointers = PointerList(list(sqe.prp_entries))
        payload = None

        tracer = self.sim.tracer
        with (tracer.span("nvme.cmd", track, qid=qid, opcode=sqe.opcode.name)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            if sqe.opcode is NvmeOpcode.WRITE:
                # pull data host -> device (PRP walk), then hand to firmware
                yield from self.dma.to_device(pointers, track=track)
                cmd = DeviceCommand(IOKind.WRITE, sqe.slba, sqe.nsectors,
                                    queue_id=qid,
                                    priority=self.queue_priorities.get(qid, 1),
                                    data=req.data if req is not None else None,
                                    host_request=req)
                done = self.ssd.submit(cmd)
                yield done
            elif sqe.opcode is NvmeOpcode.READ:
                cmd = DeviceCommand(IOKind.READ, sqe.slba, sqe.nsectors,
                                    queue_id=qid,
                                    priority=self.queue_priorities.get(qid, 1),
                                    host_request=req)
                done = self.ssd.submit(cmd)
                payload = yield done
                # push data device -> host (PRP walk)
                yield from self.dma.to_host(pointers, track=track)
            elif sqe.opcode is NvmeOpcode.FLUSH:
                cmd = DeviceCommand(IOKind.FLUSH, 0, 0, queue_id=qid)
                yield self.ssd.submit(cmd)
            elif sqe.opcode is NvmeOpcode.DATASET_MANAGEMENT:
                cmd = DeviceCommand(IOKind.TRIM, sqe.slba, sqe.nsectors,
                                    queue_id=qid)
                yield self.ssd.submit(cmd)
            else:
                raise ValueError(f"controller cannot execute {sqe.opcode}")
        yield from self._complete(qid, sqe, payload)

    def _complete(self, qid: int, sqe: SubmissionEntry, payload):
        qpair = self.driver.qpairs[qid]
        cqe = CompletionEntry(cid=sqe.cid, sq_id=qid,
                              sq_head=qpair.sq.head)
        cqe.payload = payload
        # CQE write into host memory, then the MSI-X vector write
        yield from self.dma.control_to_host(CQE_BYTES)
        qpair.cq.post(cqe)
        yield from self.dma.control_to_host(_MSI_BYTES)
        self.completions_posted += 1
        self.driver.interrupt(qid)
