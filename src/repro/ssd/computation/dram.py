"""Internal DRAM and its controller.

Captures the DDR timing parameters the paper lists (tRP, tRCD, tCL), bank
row-buffer state with open/close page policies, and a DRAMPower-style
energy model with background and self-refresh states.  Every firmware
data/metadata reference and every buffered payload moves through here.
"""

from __future__ import annotations

from typing import List

from repro.common.units import SEC, PerSize, transfer_ns
from repro.sim import Resource
from repro.ssd.config import DramConfig


class InternalDram:
    """Timing + energy model of the SSD's DRAM subsystem."""

    def __init__(self, sim, config: DramConfig) -> None:
        self.sim = sim
        self.config = config
        self._bus = Resource(sim, 1, name="ssd-dram-bus")
        self._open_rows: List[int] = [-1] * config.banks
        # per size: the streaming transfer time and the burst count
        self._stream = PerSize(lambda nbytes: (
            transfer_ns(nbytes, config.bandwidth),
            max(1, -(-nbytes // config.burst_bytes))))
        self._origin = sim.now
        # energy accounting
        self.activates = 0
        self.read_bursts = 0
        self.write_bursts = 0
        self.row_hits = 0
        self.row_misses = 0
        self.bytes_moved = 0
        # self-refresh: after this much idle time the controller drops
        # the DRAM into self-refresh (background power ~8x lower)
        self.self_refresh_threshold_ns = 100_000
        self._last_access_end = sim.now
        self._self_refresh_ns = 0

    # -- address decoding --------------------------------------------------

    def _bank_and_row(self, address: int):
        row_global = address // self.config.row_size
        bank = row_global % self.config.banks
        row = row_global // self.config.banks
        return bank, row

    def _row_latency(self, bank: int, row: int) -> int:
        cfg = self.config
        if cfg.page_policy == "close":
            self.activates += 1
            self.row_misses += 1
            return cfg.t_rcd + cfg.t_cl
        if self._open_rows[bank] == row:
            self.row_hits += 1
            return cfg.t_cl
        self.activates += 1
        self.row_misses += 1
        miss_penalty = cfg.t_rp if self._open_rows[bank] != -1 else 0
        self._open_rows[bank] = row
        return miss_penalty + cfg.t_rcd + cfg.t_cl

    # -- access ------------------------------------------------------------

    def access(self, address: int, nbytes: int, write: bool = False):
        """Process generator: one DRAM access of ``nbytes`` at ``address``.

        Large accesses (buffered payloads) pay one row activation plus a
        bandwidth-limited streaming transfer; small metadata references pay
        the full row latency each time.
        """
        if nbytes <= 0:
            return
        cfg = self.config
        bank, row = self._bank_and_row(address)
        stream_ns, bursts = self._stream[nbytes]
        yield self._bus.acquire()
        try:
            # account the idle gap since the last access; anything past
            # the threshold was spent in self-refresh (and costs a wakeup)
            gap = self.sim.now - self._last_access_end
            wakeup = 0
            if gap > self.self_refresh_threshold_ns:
                self._self_refresh_ns += gap - self.self_refresh_threshold_ns
                wakeup = cfg.t_rcd  # tXS-ish exit latency
                self._open_rows = [-1] * cfg.banks
            latency = wakeup + self._row_latency(bank, row)
            latency += stream_ns
            yield self.sim.timeout(latency)
        finally:
            self._last_access_end = self.sim.now
            self._bus.release()
        if write:
            self.write_bursts += bursts
        else:
            self.read_bursts += bursts
        self.bytes_moved += nbytes

    # -- power -------------------------------------------------------------

    def dynamic_energy(self) -> float:
        cfg = self.config
        return (self.activates * cfg.e_activate
                + self.read_bursts * cfg.e_read_burst
                + self.write_bursts * cfg.e_write_burst)

    def self_refresh_fraction(self) -> float:
        """Fraction of elapsed time spent in self-refresh."""
        elapsed = self.sim.now - self._origin
        if elapsed <= 0:
            return 0.0
        pending_gap = max(0, (self.sim.now - self._last_access_end)
                          - self.self_refresh_threshold_ns)
        return min(1.0, (self._self_refresh_ns + pending_gap) / elapsed)

    def background_energy(self) -> float:
        """Background power: active-standby while awake, self-refresh
        power during long idle stretches."""
        elapsed_s = (self.sim.now - self._origin) / SEC
        sr = self.self_refresh_fraction()
        per_rank = (self.config.p_background * (1.0 - sr)
                    + self.config.p_self_refresh * sr)
        return per_rank * self.config.ranks * elapsed_s

    def total_energy(self) -> float:
        return self.dynamic_energy() + self.background_energy()

    def average_power(self) -> float:
        elapsed_s = (self.sim.now - self._origin) / SEC
        return self.total_energy() / elapsed_s if elapsed_s > 0 else 0.0
