"""Host-side NVMe driver.

Builds 64-byte SQEs with PRP (or SGL) pointer lists, writes them into
submission queues in host memory, rings doorbells over PCIe MMIO, and
reaps completions delivered through CQEs + MSI-X.  There is no host
*controller* — that is the defining property of s-type storage.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.common.iorequest import IOKind, IORequest
from repro.host.dma import PointerList
from repro.host.memory import HostMemory
from repro.host.pcie import PcieLink
from repro.interfaces.base import HostAdapter, buffer_address
from repro.interfaces.nvme.queues import QueuePair
from repro.interfaces.nvme.structures import (
    CQE_BYTES,
    SQE_BYTES,
    Namespace,
    NvmeOpcode,
    SubmissionEntry,
    TransferMode,
)
from repro.sim.tracer import NULL_SPAN_CONTEXT

_HOST_PAGE = 4096
_PRP_ENTRY_BYTES = 8

_OPCODES = {IOKind.READ: NvmeOpcode.READ,
            IOKind.WRITE: NvmeOpcode.WRITE,
            IOKind.FLUSH: NvmeOpcode.FLUSH,
            IOKind.TRIM: NvmeOpcode.DATASET_MANAGEMENT}


class NvmeDriver(HostAdapter):
    def __init__(self, sim, memory: HostMemory, link: PcieLink,
                 n_io_queues: int = 4, queue_depth: int = 1024,
                 transfer_mode: TransferMode = TransferMode.PRP,
                 total_sectors: int = 0) -> None:
        self.sim = sim
        self.memory = memory
        self.link = link
        self.n_io_queues = n_io_queues
        self.queue_depth = queue_depth
        self.transfer_mode = transfer_mode
        self.qpairs: Dict[int, QueuePair] = {
            qid: QueuePair(qid, queue_depth)
            for qid in range(1, n_io_queues + 1)}
        self.admin = QueuePair(0, 64)
        self.namespaces: Dict[int, Namespace] = {}
        if total_sectors:
            self.namespaces[1] = Namespace(1, 0, total_sectors)
        self.controller = None              # set by the device controller
        self._completions: Dict[int, Tuple[IORequest, object]] = {}
        self._waiting: Dict[int, Deque] = {qid: deque() for qid in self.qpairs}
        self.max_outstanding = n_io_queues * (queue_depth - 1)
        self.commands_issued = 0
        self.interrupts_received = 0
        # protocol structures live in system memory (Fig 15c footprint)
        ring_bytes = (n_io_queues + 1) * queue_depth * (SQE_BYTES + CQE_BYTES)
        memory.allocate("nvme-driver", ring_bytes + 2 * 1024 * 1024)

    # -- introspection --------------------------------------------------------

    def sq_depth(self) -> int:
        """Entries currently occupying the I/O submission queues (telemetry)."""
        return sum(qp.sq.occupancy for qp in self.qpairs.values())

    def outstanding(self) -> int:
        """Commands issued to the device and not yet reaped via a CQE."""
        return len(self._completions)

    # -- admin ----------------------------------------------------------------

    def attach_controller(self, controller) -> None:
        self.controller = controller

    def create_namespace(self, nsid: int, start_sector: int,
                         n_sectors: int) -> Namespace:
        """NVMe namespace management (optional admin feature)."""
        if nsid in self.namespaces:
            raise ValueError(f"namespace {nsid} already exists")
        for ns in self.namespaces.values():
            if not (start_sector + n_sectors <= ns.start_sector
                    or ns.start_sector + ns.n_sectors <= start_sector):
                raise ValueError(f"namespace {nsid} overlaps namespace {ns.nsid}")
        ns = Namespace(nsid, start_sector, n_sectors)
        self.namespaces[nsid] = ns
        return ns

    def delete_namespace(self, nsid: int) -> None:
        """Drop a namespace; its LBA range becomes unallocated."""
        if nsid not in self.namespaces:
            raise ValueError(f"namespace {nsid} does not exist")
        del self.namespaces[nsid]

    def provision_namespaces(self, sizes: List[int]) -> List[Namespace]:
        """Repartition the device into ``len(sizes)`` namespaces.

        Replaces the current namespace map with namespaces 1..N laid
        out back-to-back from sector 0, sized per ``sizes`` (sectors).
        This is the multi-tenant setup path: tenant ``i`` gets namespace
        ``i + 1`` (see :mod:`repro.core.tenants`).
        """
        total = sum(sizes)
        capacity = max((ns.start_sector + ns.n_sectors
                        for ns in self.namespaces.values()), default=total)
        if total > capacity:
            raise ValueError(f"namespaces need {total} sectors; "
                             f"device has {capacity}")
        if any(size <= 0 for size in sizes):
            raise ValueError("namespace sizes must be positive")
        self.namespaces.clear()
        created: List[Namespace] = []
        start = 0
        for index, size in enumerate(sizes):
            created.append(self.create_namespace(index + 1, start, size))
            start += size
        return created

    def identify(self) -> Dict[str, object]:
        return {
            "n_io_queues": self.n_io_queues,
            "queue_depth": self.queue_depth,
            "namespaces": sorted(self.namespaces),
            "transfer_mode": self.transfer_mode.value,
        }

    def admin_command(self, opcode: NvmeOpcode, **params):
        """Process generator: issue one admin command through the admin
        queue pair (SQE write + doorbell + CQE/interrupt round trip).

        Returns the command's result payload (e.g. the SMART log for
        GET_LOG_PAGE, the controller data structure for IDENTIFY).
        """
        if self.controller is None:
            raise RuntimeError("no NVMe controller attached")
        event = self.sim.event()
        sqe = SubmissionEntry(opcode=opcode, context=params)
        yield from self.memory.access(SQE_BYTES, write=True)
        self.admin.sq.push(sqe)
        self.admin.ring_sq_doorbell()
        self._completions[sqe.cid] = (None, event)
        yield from self.link.mmio_write()
        self.controller.admin_doorbell()
        result = yield event
        return result

    def create_io_queue_pair(self, qid: int,
                             depth: Optional[int] = None) -> QueuePair:
        """Driver-side bookkeeping for CREATE_CQ + CREATE_SQ."""
        if qid in self.qpairs:
            raise ValueError(f"queue pair {qid} already exists")
        qpair = QueuePair(qid, depth or self.queue_depth)
        self.qpairs[qid] = qpair
        self._waiting[qid] = deque()
        self.n_io_queues = len(self.qpairs)
        self.max_outstanding = sum(qp.sq.depth - 1
                                   for qp in self.qpairs.values())
        return qpair

    def delete_io_queue_pair(self, qid: int) -> None:
        if qid not in self.qpairs:
            raise ValueError(f"queue pair {qid} does not exist")
        if self.qpairs[qid].sq.occupancy:
            raise RuntimeError(f"queue pair {qid} still has work queued")
        del self.qpairs[qid]
        del self._waiting[qid]
        self.n_io_queues = len(self.qpairs)

    # -- I/O ----------------------------------------------------------------

    def _qid_for(self, req: IORequest) -> int:
        return 1 + (req.queue_id % self.n_io_queues)

    def _build_pointers(self, req: IORequest) -> PointerList:
        return PointerList.for_buffer(buffer_address(req), req.nbytes,
                                      _HOST_PAGE)

    def submit(self, req: IORequest):
        """Issue one request (called by the block layer); returns an event."""
        if self.controller is None:
            raise RuntimeError("no NVMe controller attached")
        event = self.sim.event()
        qid = self._qid_for(req)
        req.queue_id = qid - 1
        self.sim.process(self._submit_proc(req, qid, event))
        return event

    def _submit_proc(self, req: IORequest, qid: int, event):
        tracer = self.sim.tracer
        with (tracer.span("nvme.sq", req.req_id, qid=qid)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            qpair = self.qpairs[qid]
            if qpair.sq.is_full:
                waiter = self.sim.event()
                self._waiting[qid].append(waiter)
                yield waiter

            opcode = _OPCODES[req.kind]
            if req.nsid:
                ns = self.namespaces.get(req.nsid)
                if ns is None:
                    raise ValueError(f"request targets unknown namespace "
                                     f"{req.nsid}")
            else:
                ns = self.namespaces.get(1)
            slba = ns.translate(req.slba, req.nsectors) if ns and \
                req.kind in (IOKind.READ, IOKind.WRITE) else req.slba
            pointers = self._build_pointers(req)
            sqe = SubmissionEntry(
                opcode=opcode, nsid=req.nsid or 1, slba=slba,
                nlb=max(0, req.nsectors - 1),
                prp_entries=list(pointers.entries),
                transfer_mode=self.transfer_mode, context=req)

            # write the SQE into the SQ ring in system memory
            yield from self.memory.access(SQE_BYTES, write=True)
            # PRP list beyond the two in-SQE pointers needs a list page write;
            # SGL writes one descriptor per segment
            extra = len(pointers) - 2 if sqe.transfer_mode is TransferMode.PRP \
                else len(pointers)
            if extra > 0:
                yield from self.memory.access(extra * _PRP_ENTRY_BYTES,
                                              write=True)
            qpair.sq.push(sqe)
            qpair.ring_sq_doorbell()
            self._completions[sqe.cid] = (req, event)
            self.commands_issued += 1
            # doorbell: posted MMIO write through PCIe
            yield from self.link.mmio_write()
        self.controller.doorbell(qid)

    # -- completion path (called by the controller after MSI-X) -----------------

    def interrupt_admin(self) -> None:
        """MSI-X for the admin CQ: complete pending admin commands."""
        self.interrupts_received += 1
        while True:
            cqe = self.admin.cq.reap()
            if cqe is None:
                break
            _req, event = self._completions.pop(cqe.cid)
            event.succeed(getattr(cqe, "payload", None))
        self.admin.ring_cq_doorbell()

    def interrupt(self, qid: int) -> None:
        """MSI-X arrival for a CQ: reap every posted completion."""
        self.interrupts_received += 1
        qpair = self.qpairs[qid]
        while True:
            cqe = qpair.cq.reap()
            if cqe is None:
                break
            req, event = self._completions.pop(cqe.cid)
            payload = getattr(cqe, "payload", None)
            event.succeed(payload)
            if self._waiting[qid]:
                self._waiting[qid].popleft().succeed()
        qpair.ring_cq_doorbell()
