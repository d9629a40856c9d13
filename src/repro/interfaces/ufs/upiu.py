"""UFS protocol information units (UPIU).

UFS layers SCSI-flavoured command/response UPIUs over the UTP transport.

:data:`UFS` runs the shared h-type controllers
(:mod:`repro.interfaces.htype`) as UFS.  The host controller is the UTP
engine: functionally the SATA HBA's equivalent (Section IV-A), but
attached to the SoC's AXI bus instead of a PCI endpoint.  The CPU
reaches it through UFSHCI memory-mapped registers; each UTP Transfer
Request Descriptor (UTRD) in its 32-entry command list references a
command UPIU, a response UPIU and a PRDT, and a small FIFO bridges the
frequency domains between the engine and the device's M-PHY.
"""

from __future__ import annotations

import enum

from repro.interfaces.htype import HTypeProtocol


class UpiuType(enum.Enum):
    NOP_OUT = 0x00
    COMMAND = 0x01
    DATA_OUT = 0x02
    TASK_MANAGEMENT = 0x04
    NOP_IN = 0x20
    RESPONSE = 0x21
    DATA_IN = 0x22
    READY_TO_TRANSFER = 0x31
    QUERY_RESPONSE = 0x36
    REJECT = 0x3F


UPIU_SIZES = {
    UpiuType.NOP_OUT: 32,
    UpiuType.COMMAND: 32,
    UpiuType.DATA_OUT: 32 + 8192,
    UpiuType.TASK_MANAGEMENT: 32,
    UpiuType.NOP_IN: 32,
    UpiuType.RESPONSE: 32,
    UpiuType.DATA_IN: 32 + 8192,
    UpiuType.READY_TO_TRANSFER: 32,
    UpiuType.QUERY_RESPONSE: 288,
    UpiuType.REJECT: 32,
}

#: UFS over UFSHCI for the shared h-type controllers
UFS = HTypeProtocol(
    host_span="ufs.utp", device_span="ufs.cmd", slot_arg="slot",
    slots=32,                           # UTRDs
    ledger_tag="ufshci", ledger_bytes=32 * 1024,
    # the 32 B UTRD plus the command UPIU it points at
    descriptor_bytes=32 + UPIU_SIZES[UpiuType.COMMAND],
    pipeline_ns=900 + 400,              # engine pipeline + domain-crossing FIFO
    command_frame=UPIU_SIZES[UpiuType.COMMAND],
    completion_frame=UPIU_SIZES[UpiuType.RESPONSE],
    parse_instructions=420,
    # the device asks for write data; read data needs no handshake
    write_handshake=UPIU_SIZES[UpiuType.READY_TO_TRANSFER],
    write_handshake_to_host=True,
    read_handshake=0,
)
