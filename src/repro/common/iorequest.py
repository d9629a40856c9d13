"""Block-level I/O request carried through the full storage stack."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import count
from typing import Optional

_REQUEST_IDS = count(1)


class IOKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    FLUSH = "flush"
    TRIM = "trim"
    # OCSSD vector commands address physical flash directly.
    VECTOR_READ = "vector_read"
    VECTOR_WRITE = "vector_write"
    VECTOR_ERASE = "vector_erase"

    @property
    def is_read(self) -> bool:
        return self in (IOKind.READ, IOKind.VECTOR_READ)

    @property
    def is_write(self) -> bool:
        return self in (IOKind.WRITE, IOKind.VECTOR_WRITE)


@dataclass
class IORequest:
    """One host-visible I/O, in 512-byte logical sectors.

    The request carries no timestamps: its issuer keeps the submit time,
    and with causal capture armed (:mod:`repro.obs.causal`) its latency
    is split into components that sum to it exactly.
    """

    kind: IOKind
    slba: int                       # starting logical block address (sectors)
    nsectors: int                   # length in sectors
    data: Optional[bytes] = None    # real payload when data emulation is on
    req_id: int = field(default_factory=lambda: next(_REQUEST_IDS))

    # set by drivers/controllers as the request is serviced
    queue_id: int = 0
    # NVMe namespace carrying the request; 0 = the driver's default
    # namespace (legacy single-tenant behaviour).  slba is then
    # namespace-relative and translated by the driver.
    nsid: int = 0

    SECTOR = 512

    @property
    def nbytes(self) -> int:
        return self.nsectors * self.SECTOR

    @property
    def offset(self) -> int:
        return self.slba * self.SECTOR

    def __repr__(self) -> str:
        return (f"IORequest(#{self.req_id} {self.kind.value} "
                f"slba={self.slba} n={self.nsectors})")
