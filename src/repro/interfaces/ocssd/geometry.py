"""OCSSD geometry and chunk model (specs 1.2 and 2.0).

OCSSD 2.0 describes the device as parallel units (PUs) holding *chunks*
— sequential-write regions equivalent to physical blocks — and reports
per-chunk state plus media latencies to the host, which is exactly the
information pblk needs to run the FTL host-side.  The 1.2 spec exposed
raw channel/LUN/plane/block/page addressing; we support both views over
the same backing geometry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.ssd.config import SSDConfig


class ChunkState(enum.Enum):
    FREE = "free"          # erased, write pointer at 0
    OPEN = "open"          # partially written
    CLOSED = "closed"      # fully written
    OFFLINE = "offline"    # worn out / bad


@dataclass(frozen=True)
class ChunkDescriptor:
    """OCSSD 2.0 chunk report entry."""

    pu: int                # parallel unit index
    chunk: int             # chunk (block) index within the PU
    state: ChunkState
    write_pointer: int     # next writable page offset
    erase_count: int


@dataclass(frozen=True)
class OcssdGeometry:
    """What an OCSSD geometry/identify command reports to the host."""

    spec_version: str            # "1.2" | "2.0"
    num_pu: int                  # parallel units (2.0) / ch x lun (1.2)
    chunks_per_pu: int
    pages_per_chunk: int
    page_size: int
    t_read_typ: int              # media latencies exposed to the host
    t_prog_typ: int
    t_erase_typ: int

    @property
    def total_pages(self) -> int:
        return self.num_pu * self.chunks_per_pu * self.pages_per_chunk

    @classmethod
    def from_config(cls, config: SSDConfig,
                    spec_version: str = "2.0") -> "OcssdGeometry":
        if spec_version not in ("1.2", "2.0"):
            raise ValueError(f"unsupported OCSSD spec {spec_version!r}")
        geom = config.geometry
        timing = config.timing
        return cls(
            spec_version=spec_version,
            num_pu=geom.parallel_units,
            chunks_per_pu=geom.blocks_per_plane,
            pages_per_chunk=geom.pages_per_block,
            page_size=geom.page_size,
            t_read_typ=int(timing.t_read_avg),
            t_prog_typ=int(timing.t_prog_avg),
            t_erase_typ=timing.t_erase,
        )

    def describe_12(self) -> Dict[str, int]:
        """The 1.2-style identify payload (grp/pu/chk address format)."""
        return {
            "num_grp": 1,
            "num_pu": self.num_pu,
            "num_chk": self.chunks_per_pu,
            "clba": self.pages_per_chunk,
            "csecs": self.page_size,
        }
