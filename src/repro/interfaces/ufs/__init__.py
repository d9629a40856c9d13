"""Universal Flash Storage: h-type storage for handheld platforms."""

from repro.interfaces.ufs.upiu import UFS, UPIU_SIZES, UpiuType

__all__ = ["UpiuType", "UPIU_SIZES", "UFS"]
