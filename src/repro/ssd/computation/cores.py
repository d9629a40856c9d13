"""Embedded ARMv8 cores executing the flash firmware.

Each firmware component is pinned to a core (HIL -> core 0, ICL -> core 1,
FTL/FIL -> core 2, wrapping if fewer cores are configured).  Executing an
:class:`~repro.common.instructions.InstructionMix` occupies the core for
``cycles / frequency`` and feeds the instruction counters (Fig 13c) and the
McPAT-style power model (Fig 13b).
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.instructions import (
    DEFAULT_CPI,
    InstructionMix,
    InstructionStats,
    MixRuns,
)
from repro.common.units import SEC, cycles_to_ns
from repro.sim import Resource
from repro.ssd.config import CoreConfig

FIRMWARE_ROLES = ("hil", "icl", "ftl", "fil")


class EmbeddedCore:
    """One in-order ARMv8 core with per-class CPI timing."""

    def __init__(self, sim, index: int, config: CoreConfig) -> None:
        self.sim = sim
        self.index = index
        self.config = config
        self.frequency = config.frequency
        self.cpi: Dict[str, float] = dict(DEFAULT_CPI)
        self.cpi.update(config.cpi)
        self.resource = Resource(sim, 1, name=f"emb-core{index}")
        self._dynamic_energy = 0.0
        self._origin = sim.now
        # the mixes this core has run: one MixRuns record each, by
        # id(mix).  Firmware reuses a small set of mixes on every I/O,
        # and cpi, frequency and energy per instruction are fixed at
        # construction, so each mix's costs are computed once.
        self._runs: Dict[int, MixRuns] = {}

    def execute(self, mix: InstructionMix):
        """Process generator: run the mix to completion on this core."""
        try:
            record = self._runs[id(mix)]
        except KeyError:
            record = self._runs[id(mix)] = MixRuns(
                mix, self.exec_ns(mix),
                mix.total * self.config.energy_per_instruction)
        yield self.resource.hold(record.ns)
        record.runs += 1
        self._dynamic_energy += record.energy

    def exec_ns(self, mix: InstructionMix) -> int:
        return cycles_to_ns(mix.cycles(self.cpi), self.frequency)

    @property
    def stats(self) -> InstructionStats:
        """Per-class counts of the instructions this core has run."""
        return InstructionStats.of_runs(self._runs.values())

    def utilization(self) -> float:
        return self.resource.utilization()

    def cpi_achieved(self) -> float:
        """Observed cycles-per-instruction (busy cycles / instructions)."""
        total = self.stats.total
        if total == 0:
            return 0.0
        busy_cycles = self.resource.busy_time() * self.frequency / SEC
        return busy_cycles / total

    def energy(self) -> float:
        elapsed_s = (self.sim.now - self._origin) / SEC
        return self._dynamic_energy + self.config.leakage_per_core * elapsed_s

    def average_power(self) -> float:
        elapsed_s = (self.sim.now - self._origin) / SEC
        return self.energy() / elapsed_s if elapsed_s > 0 else 0.0


class CpuComplex:
    """The SSD's multi-core firmware processor."""

    def __init__(self, sim, config: CoreConfig) -> None:
        if config.n_cores < 1:
            raise ValueError("need at least one embedded core")
        self.sim = sim
        self.config = config
        self.cores: List[EmbeddedCore] = [
            EmbeddedCore(sim, i, config) for i in range(config.n_cores)]
        self._role_map = {
            role: self.cores[i % config.n_cores]
            for i, role in enumerate(FIRMWARE_ROLES)}
        # FIL shares the FTL core, matching SimpleSSD's 3-core layout.
        if config.n_cores >= 3:
            self._role_map["fil"] = self.cores[2]

    def core_for(self, role: str) -> EmbeddedCore:
        try:
            return self._role_map[role]
        except KeyError:
            raise ValueError(f"unknown firmware role {role!r}") from None

    def execute(self, role: str, mix: InstructionMix):
        try:
            core = self._role_map[role]
        except KeyError:
            raise ValueError(f"unknown firmware role {role!r}") from None
        return core.execute(mix)

    def instruction_stats(self) -> InstructionStats:
        merged = InstructionStats()
        for core in self.cores:
            merged = merged.merged(core.stats)
        return merged

    def total_instructions(self) -> int:
        return self.instruction_stats().total

    def average_power(self) -> float:
        return sum(core.average_power() for core in self.cores)

    def total_energy(self) -> float:
        return sum(core.energy() for core in self.cores)

    def utilizations(self) -> List[float]:
        return [core.utilization() for core in self.cores]
