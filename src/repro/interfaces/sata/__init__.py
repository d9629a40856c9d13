"""Serial ATA over AHCI: h-type storage behind the I/O controller hub."""

from repro.interfaces.sata.fis import FIS_SIZES, SATA, FisType

__all__ = ["FisType", "FIS_SIZES", "SATA"]
