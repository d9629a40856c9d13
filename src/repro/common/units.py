"""Units and conversions.

Simulated time is integer nanoseconds; sizes are integer bytes.
"""

from __future__ import annotations

from typing import Any, Callable

# -- sizes (bytes) -------------------------------------------------------
KB = 1024
MB = 1024 * KB
GB = 1024 * MB

# -- time (nanoseconds) --------------------------------------------------
NS = 1
US = 1000
MS = 1000 * US
SEC = 1000 * MS

# -- frequency (Hz) ------------------------------------------------------
MHZ = 1_000_000
GHZ = 1_000_000_000


def ns_per_byte(bandwidth_bytes_per_sec: float) -> float:
    """Transfer cost in ns/byte for a link of the given bandwidth."""
    if bandwidth_bytes_per_sec <= 0:
        raise ValueError("bandwidth must be positive")
    return SEC / bandwidth_bytes_per_sec


def transfer_ns(nbytes: int, bandwidth_bytes_per_sec: float) -> int:
    """Time in ns to move ``nbytes`` over a link, rounded up to >= 1 ns."""
    if nbytes <= 0:
        return 0
    return max(1, round(nbytes * SEC / bandwidth_bytes_per_sec))


def bandwidth_mbps(nbytes: int, elapsed_ns: int) -> float:
    """Bandwidth in MB/s (MB = 2**20 bytes, matching the paper's axes)."""
    if elapsed_ns <= 0:
        return 0.0
    return (nbytes / MB) / (elapsed_ns / SEC)


def cycles_to_ns(cycles: float, freq_hz: float) -> int:
    """Convert a cycle count at ``freq_hz`` into integer nanoseconds."""
    if freq_hz <= 0:
        raise ValueError("frequency must be positive")
    return max(0, round(cycles * SEC / freq_hz))


class PerSize(dict):
    """A cost per byte count, computed on the first lookup of each size.

    ``costs[nbytes]`` calls ``cost(nbytes)`` once per distinct size and
    keeps the result, so a hot path pays one dict lookup and no call.
    Every other input of ``cost`` must be fixed when the table is built.
    """

    __slots__ = ("_cost",)

    def __init__(self, cost: Callable[[int], Any]) -> None:
        super().__init__()
        self._cost = cost

    def __missing__(self, nbytes: int) -> Any:
        value = self[nbytes] = self._cost(nbytes)
        return value
