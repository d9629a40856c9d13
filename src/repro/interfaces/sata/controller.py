"""Device-side SATA controller.

Parses Register H2D FISes from the HBA, exchanges DMA Setup / Data FISes
for payload movement (emulated through the DMA engine, which performs the
HBA's PRDT walk), drives the SSD's HIL with a single FIFO queue, and
notifies completions with Set Device Bits FISes.
"""

from __future__ import annotations

from repro.common.instructions import InstructionMix
from repro.common.iorequest import IOKind, IORequest
from repro.host.dma import DmaEngine, PointerList
from repro.interfaces.sata.ahci import AhciHba
from repro.interfaces.sata.fis import FIS_SIZES, AhciCommand, FisType
from repro.obs.tracer import NULL_SPAN_CONTEXT
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand


class SataDeviceController:
    def __init__(self, sim, ssd: SSD, dma: DmaEngine, hba: AhciHba) -> None:
        self.sim = sim
        self.ssd = ssd
        self.dma = dma
        self.hba = hba
        hba.attach_controller(self)
        self._parse_mix = InstructionMix.typical(400)
        self.commands_served = 0

    def command_arrived(self, cmd: AhciCommand, req: IORequest) -> None:
        self.sim.process(self._execute(cmd, req))

    def _execute(self, cmd: AhciCommand, req: IORequest):
        tracer = self.sim.tracer
        with (tracer.span("sata.cmd", req.req_id, ncq_tag=cmd.ncq_tag)
              if tracer.enabled else NULL_SPAN_CONTEXT):
            # device controller parses the FIS, builds an internal command
            yield from self.ssd.cores.execute("hil", self._parse_mix)
            pointers = PointerList([(e.address, e.nbytes) for e in cmd.prdt])
            payload = None
            req.t_device = self.sim.now

            if req.kind == IOKind.FLUSH:
                done = self.ssd.submit(DeviceCommand(IOKind.FLUSH, 0, 0))
                yield done
            elif cmd.is_write:
                # DMA Setup handshake, then the HBA streams data FISes while
                # the DMA engine performs the PRDT walk / double copy
                yield from self.dma.control_to_device(
                    FIS_SIZES[FisType.DMA_SETUP])
                yield from self.dma.to_device(pointers, track=req.req_id)
                device_cmd = DeviceCommand(IOKind.WRITE, cmd.slba,
                                           cmd.nsectors,
                                           queue_id=0, data=req.data,
                                           host_request=req)
                yield self.ssd.submit(device_cmd)
            else:
                device_cmd = DeviceCommand(IOKind.READ, cmd.slba,
                                           cmd.nsectors,
                                           queue_id=0, host_request=req)
                payload = yield self.ssd.submit(device_cmd)
                yield from self.dma.control_to_host(
                    FIS_SIZES[FisType.DMA_SETUP])
                yield from self.dma.to_host(pointers, track=req.req_id)

            req.t_backend_done = self.sim.now
        self.commands_served += 1
        yield from self.hba.command_done(cmd.ncq_tag, payload)
