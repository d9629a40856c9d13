"""Device-side UFS controller: parses UPIUs, moves data, drives the HIL."""

from __future__ import annotations

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.host.dma import DmaEngine, PointerList
from repro.interfaces.ufs.upiu import UPIU_SIZES, UpiuType, Utrd
from repro.interfaces.ufs.utp import UtpEngine
from repro.sim.tracer import NULL_SPAN_CONTEXT
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand


class UfsDeviceController:
    def __init__(self, sim, ssd: SSD, dma: DmaEngine, utp: UtpEngine) -> None:
        self.sim = sim
        self.ssd = ssd
        self.dma = dma
        self.utp = utp
        utp.attach_controller(self)
        self._parse_mix = InstructionMix.typical(420)
        self.commands_served = 0

    def command_arrived(self, utrd: Utrd, req: IORequest) -> None:
        self.sim.process(self._execute(utrd, req))

    def _execute(self, utrd: Utrd, req: IORequest):
        tracer = self.sim.tracer
        with (tracer.span("ufs.cmd", req.req_id, slot=utrd.slot)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            yield from self.ssd.cores.execute("hil", self._parse_mix)
            pointers = PointerList([(e.address, e.nbytes) for e in utrd.prdt])
            payload = None
            req.t_device = self.sim.now

            if req.kind == IOKind.FLUSH:
                yield self.ssd.submit(DeviceCommand(IOKind.FLUSH, 0, 0))
            elif utrd.is_write:
                # READY_TO_TRANSFER handshake, then DATA_OUT UPIUs stream in
                yield from self.dma.control_to_host(
                    UPIU_SIZES[UpiuType.READY_TO_TRANSFER])
                yield from self.dma.to_device(pointers, track=req.req_id)
                yield self.ssd.submit(
                    DeviceCommand(IOKind.WRITE, utrd.slba, utrd.nsectors,
                                  queue_id=0, data=req.data,
                                  host_request=req))
            else:
                payload = yield self.ssd.submit(
                    DeviceCommand(IOKind.READ, utrd.slba, utrd.nsectors,
                                  queue_id=0, host_request=req))
                yield from self.dma.to_host(pointers, track=req.req_id)

            req.t_backend_done = self.sim.now
        self.commands_served += 1
        yield from self.utp.command_done(utrd.slot, payload)
