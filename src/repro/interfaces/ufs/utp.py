"""UTP engine: the UFS host controller, living on the SoC system bus.

Functionally the SATA HBA's equivalent (Section IV-A), but attached to
AXI instead of a PCI endpoint: the CPU reaches it through UFSHCI
memory-mapped registers, and a small FIFO bridges the frequency domains
between the UTP engine and the device's M-PHY.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.common.iorequest import IOKind, IORequest
from repro.host.memory import HostMemory
from repro.host.pcie import UfsLink
from repro.interfaces.base import HostAdapter, buffer_address
from repro.interfaces.ufs.upiu import (
    UPIU_SIZES,
    UTRD_SLOTS,
    UpiuType,
    Utrd,
    utrd_for,
)
from repro.sim.tracer import NULL_SPAN_CONTEXT

_UTRD_BYTES = 32
_PRDT_ENTRY_BYTES = 16
_UTP_PROCESS_NS = 900           # SoC-integrated controller pipeline
_DOMAIN_FIFO_NS = 400           # frequency-domain crossing FIFO


class UtpEngine(HostAdapter):
    max_outstanding = UTRD_SLOTS

    def __init__(self, sim, memory: HostMemory, link: UfsLink) -> None:
        self.sim = sim
        self.memory = memory
        self.link = link
        self.controller = None
        self._free_slots: Deque[int] = deque(range(UTRD_SLOTS))
        self._slot_waiters: Deque = deque()
        self._outstanding: Dict[int, tuple] = {}
        self.commands_issued = 0
        self.interrupts_raised = 0
        memory.allocate("ufshci", UTRD_SLOTS * 1024)

    def attach_controller(self, controller) -> None:
        self.controller = controller

    def submit(self, req: IORequest):
        if self.controller is None:
            raise RuntimeError("no UFS device controller attached")
        event = self.sim.event()
        self.sim.process(self._submit_proc(req, event))
        return event

    def _submit_proc(self, req: IORequest, event):
        tracer = self.sim.tracer
        with (tracer.span("ufs.utp.submit", req.req_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            if not self._free_slots:
                waiter = self.sim.event()
                self._slot_waiters.append(waiter)
                yield waiter
            slot = self._free_slots.popleft()
            req.queue_id = 0
            utrd = utrd_for(slot, req.kind.is_write, req.slba, req.nsectors,
                            buffer_address(req))
            if req.kind == IOKind.FLUSH:
                utrd.prdt = []

            # driver fills the UTRD + command UPIU through UFSHCI registers
            table_bytes = (_UTRD_BYTES + UPIU_SIZES[UpiuType.COMMAND]
                           + len(utrd.prdt) * _PRDT_ENTRY_BYTES)
            yield from self.memory.access(table_bytes, write=True)
            yield from self.memory.access(table_bytes)
            yield self.sim.timeout(_UTP_PROCESS_NS + _DOMAIN_FIFO_NS)
            # command UPIU over M-PHY
            yield from self.link.send(UPIU_SIZES[UpiuType.COMMAND])
            self._outstanding[slot] = (utrd, req, event)
            self.commands_issued += 1
        self.controller.command_arrived(utrd, req)

    def command_done(self, slot: int, payload: Optional[bytes]):
        """Process generator: response UPIU -> interrupt -> slot recycle."""
        utrd, req, event = self._outstanding.pop(slot)
        tracer = self.sim.tracer
        with (tracer.span("ufs.utp.complete", req.req_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            yield from self.link.receive(UPIU_SIZES[UpiuType.RESPONSE])
            yield self.sim.timeout(_UTP_PROCESS_NS + _DOMAIN_FIFO_NS)
        self.interrupts_raised += 1
        if req.t_backend_done < 0:
            req.t_backend_done = self.sim.now
        self._free_slots.append(utrd.slot)
        if self._slot_waiters:
            self._slot_waiters.popleft().succeed()
        event.succeed(payload)
