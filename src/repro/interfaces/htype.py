"""H-type storage: one host controller and one device controller for
SATA and UFS (Section IV-A).

In h-type storage a hardware host controller sits between the driver
and the device: the AHCI host bus adapter (HBA) for SATA, the UTP engine
for UFS.  The CPU only fills a command descriptor and its PRDT in
system memory; the host controller fetches them, sends a command frame
over the link, and the DMA engine walks the PRDT to copy payload pages
through the controller (host memory -> controller -> PHY).  That double
copy and the single serialized command and interrupt path are what
bound h-type scalability.

The two protocols differ only in constants, frame sizes and the data
handshakes, so one frozen :class:`HTypeProtocol` record drives both
classes here: :data:`repro.interfaces.sata.fis.SATA` and
:data:`repro.interfaces.ufs.upiu.UFS`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.host.dma import DmaEngine, PointerList
from repro.host.memory import HostMemory
from repro.interfaces.base import HostAdapter, buffer_address
from repro.sim import Event
from repro.sim.tracer import NULL_SPAN_CONTEXT
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand

#: descriptor bytes per PRDT entry (one host-memory segment)
PRDT_ENTRY_BYTES = 16


@dataclass(frozen=True)
class HTypeProtocol:
    """What tells one h-type protocol from the other; the rest is shared."""

    host_span: str           # host spans: "<host_span>.submit" / ".complete"
    device_span: str         # the device-side command span
    slot_arg: str            # the device span's slot argument
    slots: int               # command-list entries
    ledger_tag: str          # host-memory ledger entry of the register sets
    ledger_bytes: int
    descriptor_bytes: int    # per command, plus PRDT_ENTRY_BYTES per entry
    pipeline_ns: int         # host-controller pipeline, each way
    command_frame: int       # bytes of the frame that carries a command
    completion_frame: int    # bytes of the frame that reports a completion
    parse_instructions: int  # device-side command parse
    write_handshake: int     # bytes of the frame that opens a write's data
    write_handshake_to_host: bool   # sent by the device (else by the host)
    read_handshake: int      # bytes sent to the host before read data; 0: none


@dataclass
class SlotCommand:
    """One command-list slot in flight."""

    slot: int
    req: IORequest
    prdt: PointerList        # empty unless the command moves data
    done: Event              # fires with the read payload (or None)


class HTypeHost(HostAdapter):
    """The host controller: the AHCI HBA or the UTP engine."""

    def __init__(self, sim, memory: HostMemory, link,
                 protocol: HTypeProtocol) -> None:
        self.sim = sim
        self.memory = memory
        self.link = link
        self.protocol = protocol
        self.max_outstanding = protocol.slots
        self.controller: Optional[HTypeController] = None   # attaches itself
        self._free_slots: Deque[int] = deque(range(protocol.slots))
        self._slot_waiters: Deque[Event] = deque()
        self.commands_issued = 0
        # the command list and received-frame area live in system memory
        memory.allocate(protocol.ledger_tag, protocol.ledger_bytes)

    def submit(self, req: IORequest) -> Event:
        if self.controller is None:
            raise RuntimeError("no h-type device controller attached")
        event = self.sim.event()
        self.sim.process(self._submit_proc(req, event))
        return event

    def _submit_proc(self, req: IORequest, event: Event):
        protocol = self.protocol
        tracer = self.sim.tracer
        with (tracer.span(f"{protocol.host_span}.submit", req.req_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            if not self._free_slots:
                waiter = self.sim.event()
                self._slot_waiters.append(waiter)
                yield waiter
            prdt = (PointerList.for_buffer(buffer_address(req), req.nbytes)
                    if req.kind in (IOKind.READ, IOKind.WRITE)
                    else PointerList())
            cmd = SlotCommand(self._free_slots.popleft(), req, prdt, event)
            req.queue_id = 0  # single interrupt line: all lands on core 0
            # the driver writes the descriptor and PRDT into system memory,
            # the controller fetches them and sends the command frame
            nbytes = protocol.descriptor_bytes + len(prdt) * PRDT_ENTRY_BYTES
            yield from self.memory.access(nbytes, write=True)
            yield from self.memory.access(nbytes)
            yield self.sim.timeout(protocol.pipeline_ns)
            yield from self.link.send(protocol.command_frame)
            self.commands_issued += 1
        self.controller.command_arrived(cmd)

    def command_done(self, cmd: SlotCommand, payload: Optional[bytes]):
        """Process generator: completion frame -> interrupt -> slot free."""
        protocol = self.protocol
        req = cmd.req
        tracer = self.sim.tracer
        with (tracer.span(f"{protocol.host_span}.complete", req.req_id)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            yield from self.link.receive(protocol.completion_frame)
            yield self.sim.timeout(protocol.pipeline_ns)
        self._free_slots.append(cmd.slot)
        if self._slot_waiters:
            self._slot_waiters.popleft().succeed()
        cmd.done.succeed(payload)


class HTypeController:
    """The device-side controller: parses each command, moves its data
    through the DMA engine and drives the SSD's HIL."""

    def __init__(self, sim, ssd: SSD, dma: DmaEngine, host: HTypeHost) -> None:
        self.sim = sim
        self.ssd = ssd
        self.dma = dma
        self.host = host
        self.protocol = host.protocol
        host.controller = self
        self._parse_mix = InstructionMix.typical(
            self.protocol.parse_instructions)

    def command_arrived(self, cmd: SlotCommand) -> None:
        self.sim.process(self._execute(cmd))

    def _execute(self, cmd: SlotCommand):
        protocol = self.protocol
        dma = self.dma
        req = cmd.req
        kind = req.kind
        tracer = self.sim.tracer
        with (tracer.span(protocol.device_span, req.req_id,
                          **{protocol.slot_arg: cmd.slot})
              if tracer.enabled else NULL_SPAN_CONTEXT):
            yield from self.ssd.cores.execute("hil", self._parse_mix)
            payload = None
            if kind is IOKind.READ:
                payload = yield self.ssd.submit(DeviceCommand(
                    IOKind.READ, req.slba, req.nsectors, host_request=req))
                if protocol.read_handshake:
                    yield from dma.control_to_host(protocol.read_handshake)
                yield from dma.to_host(cmd.prdt, track=req.req_id)
            elif kind is IOKind.WRITE:
                if protocol.write_handshake_to_host:
                    yield from dma.control_to_host(protocol.write_handshake)
                else:
                    yield from dma.control_to_device(protocol.write_handshake)
                yield from dma.to_device(cmd.prdt, track=req.req_id)
                yield self.ssd.submit(DeviceCommand(
                    IOKind.WRITE, req.slba, req.nsectors, data=req.data,
                    host_request=req))
            elif kind is IOKind.FLUSH:
                yield self.ssd.submit(DeviceCommand(IOKind.FLUSH, 0, 0))
            elif kind is IOKind.TRIM:
                # ATA DATA SET MANAGEMENT / SCSI UNMAP: no data phase
                yield self.ssd.submit(DeviceCommand(
                    IOKind.TRIM, req.slba, req.nsectors))
            else:
                raise ValueError(f"h-type controller cannot execute {kind}")
        yield from self.host.command_done(cmd, payload)
