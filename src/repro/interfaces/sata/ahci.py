"""AHCI host block adapter (HBA): SATA's host-side controller.

H-type storage pivots on this hardware: the CPU only fills memory-mapped
register sets (a 32-entry command list + FIS receive area); the HBA
itself fetches commands, walks the PRDT, copies payload pages through
its own buffer, and exchanges FISes with the device controller.  The
double copy (host memory -> HBA buffer -> PHY) and the single serialized
command/interrupt path are what bound SATA's scalability.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.common.iorequest import IOKind, IORequest
from repro.host.memory import HostMemory
from repro.host.pcie import SataLink
from repro.interfaces.base import HostAdapter, buffer_address
from repro.interfaces.sata.fis import (
    FIS_SIZES,
    AhciCommand,
    FisType,
    prdt_for,
)
from repro.sim.tracer import NULL_SPAN_CONTEXT

NCQ_SLOTS = 32
_COMMAND_TABLE_BYTES = 256      # command FIS + ATAPI + PRDT header
_PRDT_ENTRY_BYTES = 16
_HBA_PROCESS_NS = 1200          # HBA command processing (hardware pipeline)


class AhciHba(HostAdapter):
    max_outstanding = NCQ_SLOTS

    def __init__(self, sim, memory: HostMemory, link: SataLink) -> None:
        self.sim = sim
        self.memory = memory
        self.link = link
        self.controller = None       # device-side controller attaches here
        self._free_slots: Deque[int] = deque(range(NCQ_SLOTS))
        self._slot_waiters: Deque = deque()
        self._outstanding: Dict[int, tuple] = {}   # ncq_tag -> (cmd, req, ev)
        self.commands_issued = 0
        self.interrupts_raised = 0
        # command list + received-FIS area live in system memory
        memory.allocate("ahci-hba", NCQ_SLOTS * 1024 + 4096)

    def attach_controller(self, controller) -> None:
        self.controller = controller

    # -- submission --------------------------------------------------------

    def submit(self, req: IORequest):
        if self.controller is None:
            raise RuntimeError("no SATA device controller attached")
        event = self.sim.event()
        self.sim.process(self._submit_proc(req, event))
        return event

    def _submit_proc(self, req: IORequest, event):
        tracer = self.sim.tracer
        with (tracer.span("ahci.submit", req.req_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            if not self._free_slots:
                waiter = self.sim.event()
                self._slot_waiters.append(waiter)
                yield waiter
            slot = self._free_slots.popleft()

            if req.kind == IOKind.FLUSH:
                cmd = AhciCommand(slot=slot, is_write=True, slba=0,
                                  nsectors=0, ncq_tag=slot)
            else:
                cmd = AhciCommand(
                    slot=slot, is_write=req.kind.is_write,
                    slba=req.slba, nsectors=req.nsectors,
                    prdt=prdt_for(buffer_address(req), req.nbytes),
                    ncq_tag=slot)
            req.queue_id = 0  # single interrupt line: all lands on core 0

            # driver writes command table + PRDT into system memory
            table_bytes = (_COMMAND_TABLE_BYTES
                           + len(cmd.prdt) * _PRDT_ENTRY_BYTES)
            yield from self.memory.access(table_bytes, write=True)
            # HBA fetches the command from the list and processes it
            yield from self.memory.access(table_bytes)
            yield self.sim.timeout(_HBA_PROCESS_NS)
            # Register H2D command FIS travels the (half-duplex) PHY
            yield from self.link.send(FIS_SIZES[FisType.REGISTER_H2D])
            self._outstanding[cmd.ncq_tag] = (cmd, req, event)
            self.commands_issued += 1
        self.controller.command_arrived(cmd, req)

    # -- completion (device controller calls back) ------------------------------

    def command_done(self, ncq_tag: int, payload: Optional[bytes]):
        """Process generator: Set Device Bits FIS -> interrupt -> slot free."""
        cmd, req, event = self._outstanding.pop(ncq_tag)
        tracer = self.sim.tracer
        with (tracer.span("ahci.complete", req.req_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            yield from self.link.receive(FIS_SIZES[FisType.SET_DEVICE_BITS])
            yield self.sim.timeout(_HBA_PROCESS_NS)
        self.interrupts_raised += 1
        req.t_backend_done = req.t_backend_done if req.t_backend_done >= 0 \
            else self.sim.now
        self._free_slots.append(cmd.slot)
        if self._slot_waiters:
            self._slot_waiters.popleft().succeed()
        event.succeed(payload)
