"""Instruction-level accounting for firmware and kernel execution.

Amber decomposes each firmware function into instruction classes
(arithmetic, branch, load, store, FP, other) and charges per-class CPI on
the executing core.  The same mechanism models host kernel-path costs on
the timing CPU.  Fig 13c's instruction breakdown comes straight out of
these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

CLASSES = ("arith", "branch", "load", "store", "fp", "other")

# Per-class cycles-per-instruction for a simple in-order ARMv8 core.
DEFAULT_CPI: Dict[str, float] = {
    "arith": 1.0,
    "branch": 1.4,   # includes average misprediction cost
    "load": 1.7,     # includes average cache-miss cost
    "store": 1.3,
    "fp": 2.5,
    "other": 1.0,
}


@dataclass(frozen=True)
class InstructionMix:
    """A block of work expressed as per-class instruction counts."""

    arith: int = 0
    branch: int = 0
    load: int = 0
    store: int = 0
    fp: int = 0
    other: int = 0

    @property
    def total(self) -> int:
        return self.arith + self.branch + self.load + self.store + self.fp + self.other

    def cycles(self, cpi: Dict[str, float] = DEFAULT_CPI) -> float:
        return sum(getattr(self, name) * cpi[name] for name in CLASSES)

    def scaled(self, factor: float) -> "InstructionMix":
        return InstructionMix(**{
            name: max(0, round(getattr(self, name) * factor)) for name in CLASSES})

    def __add__(self, other: "InstructionMix") -> "InstructionMix":
        return InstructionMix(**{
            name: getattr(self, name) + getattr(other, name) for name in CLASSES})

    @classmethod
    def typical(cls, total: int, fp_fraction: float = 0.0) -> "InstructionMix":
        """A firmware-flavoured mix: ~60% loads+stores (Fig 13c), ~15% branch.

        The load/store dominance reflects firmware that mostly walks queue
        entries, mapping tables and DMA descriptors.
        """
        load = round(total * 0.38)
        store = round(total * 0.22)
        branch = round(total * 0.15)
        fp = round(total * fp_fraction)
        other = round(total * 0.05)
        rest = load + store + branch + fp + other
        if rest > total:
            # heavy FP mixes squeeze the other classes proportionally
            scale = total / rest
            load = round(load * scale)
            store = round(store * scale)
            branch = round(branch * scale)
            fp = round(fp * scale)
            other = round(other * scale)
            rest = load + store + branch + fp + other
            while rest > total:   # rounding residue
                load -= 1
                rest -= 1
        arith = total - rest
        return cls(arith=arith, branch=branch, load=load, store=store,
                   fp=fp, other=other)


class MixRuns:
    """One instruction mix on one core: its costs, computed once when the
    core first runs it, and how many runs have completed.

    A core keeps one record per mix object, keyed by ``id(mix)``; the
    record holds the mix, so the key stays unique while the core lives.
    """

    __slots__ = ("mix", "ns", "energy", "runs")

    def __init__(self, mix: InstructionMix, ns: int,
                 energy: float = 0.0) -> None:
        self.mix = mix
        self.ns = ns
        self.energy = energy
        self.runs = 0


@dataclass
class InstructionStats:
    """Accumulated per-class instruction counts (one per core or module)."""

    counts: Dict[str, int] = field(default_factory=lambda: {c: 0 for c in CLASSES})

    @classmethod
    def of_runs(cls, records: Iterable[MixRuns]) -> "InstructionStats":
        """The counts of every completed run in ``records``."""
        stats = cls()
        counts = stats.counts
        for record in records:
            for name in CLASSES:
                counts[name] += getattr(record.mix, name) * record.runs
        return stats

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def merged(self, other: "InstructionStats") -> "InstructionStats":
        out = InstructionStats()
        for name in CLASSES:
            out.counts[name] = self.counts[name] + other.counts[name]
        return out

    def breakdown(self) -> Dict[str, float]:
        """Fractions per class; zeros if nothing executed yet."""
        total = self.total
        if total == 0:
            return {name: 0.0 for name in CLASSES}
        return {name: self.counts[name] / total for name in CLASSES}
