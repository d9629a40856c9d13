"""Frame Information Structures (FIS): SATA's wire-level packets.

Every exchange on the SATA PHY is a FIS; the sizes matter because the
half-duplex link serializes them.  NCQ read/write commands use
Register H2D for the command, DMA Setup + Data FISes for payload, and
Set Device Bits for out-of-order completion notification.

:data:`SATA` runs the shared h-type controllers
(:mod:`repro.interfaces.htype`) as SATA over AHCI.  The host controller
is the AHCI HBA, a PCI endpoint behind the I/O controller hub: the
driver fills its 32-slot command list and command tables in system
memory, and the HBA fetches each command and walks its PRDT.
"""

from __future__ import annotations

import enum

from repro.interfaces.htype import HTypeProtocol


class FisType(enum.Enum):
    REGISTER_H2D = 0x27     # host-to-device command
    REGISTER_D2H = 0x34     # device-to-host status
    DMA_ACTIVATE = 0x39
    DMA_SETUP = 0x41
    DATA = 0x46
    BIST = 0x58
    PIO_SETUP = 0x5F
    SET_DEVICE_BITS = 0xA1  # NCQ completion notification


FIS_SIZES = {
    FisType.REGISTER_H2D: 20,
    FisType.REGISTER_D2H: 20,
    FisType.DMA_ACTIVATE: 4,
    FisType.DMA_SETUP: 28,
    FisType.DATA: 8192 + 4,   # max data FIS payload + header
    FisType.BIST: 12,
    FisType.PIO_SETUP: 20,
    FisType.SET_DEVICE_BITS: 8,
}

#: SATA over AHCI for the shared h-type controllers
SATA = HTypeProtocol(
    host_span="ahci", device_span="sata.cmd", slot_arg="ncq_tag",
    slots=32,                           # NCQ tags
    ledger_tag="ahci-hba", ledger_bytes=32 * 1024 + 4096,
    descriptor_bytes=256,               # command FIS + ATAPI + PRDT header
    pipeline_ns=1200,                   # HBA command processing
    command_frame=FIS_SIZES[FisType.REGISTER_H2D],
    completion_frame=FIS_SIZES[FisType.SET_DEVICE_BITS],
    parse_instructions=400,
    # a DMA Setup FIS opens the data phase in both directions
    write_handshake=FIS_SIZES[FisType.DMA_SETUP],
    write_handshake_to_host=False,
    read_handshake=FIS_SIZES[FisType.DMA_SETUP],
)
