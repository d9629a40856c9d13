"""Host CPU models.

gem5 offers functional (AtomicSimple) and timing (TimingSimple, Minor,
HPI, DerivO3) CPUs; Amber must work with all of them because the DMA and
storage-stack emulation interacts differently with each (Section III-B).
Here:

* ``atomic`` — functional: software executes in zero simulated time, and
  the DMA engine aggregates each request's data movement into one task;
* ``timing`` — in-order timing: per-class CPI near 1.3;
* ``minor`` / ``hpi`` — tuned in-order pipelines;
* ``o3`` — out-of-order: effective CPI scaled down.

Kernel and user execution are tracked separately per core so kernel CPU
utilization (Fig 15b) can be reported.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.common.instructions import (
    DEFAULT_CPI,
    InstructionMix,
    InstructionStats,
    MixRuns,
)
from repro.common.units import cycles_to_ns
from repro.sim import Resource, UtilizationTracker


class CpuModel(enum.Enum):
    ATOMIC = "atomic"
    TIMING = "timing"
    MINOR = "minor"
    HPI = "hpi"
    O3 = "o3"

    @property
    def is_functional(self) -> bool:
        return self is CpuModel.ATOMIC


# Effective scaling of the baseline CPI table per CPU model.
_MODEL_CPI_FACTOR = {
    CpuModel.ATOMIC: 0.0,
    CpuModel.TIMING: 1.3,
    CpuModel.MINOR: 1.1,
    CpuModel.HPI: 0.95,
    CpuModel.O3: 0.62,
}


class _Core:
    __slots__ = ("resource", "kernel_util", "user_util", "runs")

    def __init__(self, sim, index: int) -> None:
        self.resource = Resource(sim, 1, name=f"host-core{index}")
        self.kernel_util = UtilizationTracker(sim)
        self.user_util = UtilizationTracker(sim)
        # the mixes this core has run: one MixRuns record each, by id(mix)
        self.runs: Dict[int, MixRuns] = {}

    @property
    def stats(self) -> InstructionStats:
        """Per-class counts of the instructions this core has run."""
        return InstructionStats.of_runs(self.runs.values())


class HostCpu:
    """A cluster of host cores with a selectable CPU model."""

    def __init__(self, sim, n_cores: int, frequency: int,
                 model: CpuModel = CpuModel.O3,
                 cpi_scale: float = 1.0) -> None:
        if n_cores < 1:
            raise ValueError("need at least one host core")
        self.sim = sim
        self.n_cores = n_cores
        self.frequency = frequency
        self.model = model
        self._functional = model.is_functional
        self.cpi_scale = cpi_scale
        self._cores: List[_Core] = [_Core(sim, i) for i in range(n_cores)]

    def exec_ns(self, mix: InstructionMix) -> int:
        factor = _MODEL_CPI_FACTOR[self.model] * self.cpi_scale
        if factor == 0.0:
            return 0
        return cycles_to_ns(mix.cycles(DEFAULT_CPI) * factor, self.frequency)

    def execute(self, mix: InstructionMix, core: Optional[int] = None,
                kernel: bool = True):
        """Process generator: run ``mix`` on a core.

        With the atomic (functional) model this costs no simulated time —
        exactly gem5's AtomicSimpleCPU behaviour for the storage stack.
        The core's kernel or user utilization is busy from the grant to
        the release.
        """
        if self._functional:
            return
            yield  # pragma: no cover
        chosen = self._cores[self._pick(core)]
        try:
            record = chosen.runs[id(mix)]
        except KeyError:
            record = chosen.runs[id(mix)] = MixRuns(mix, self.exec_ns(mix))
        yield chosen.resource.hold(record.ns, chosen.kernel_util if kernel
                                   else chosen.user_util)
        record.runs += 1

    def _pick(self, core: Optional[int]) -> int:
        if core is not None:
            return core % self.n_cores
        # least-loaded: shortest grant queue (manual loop — this runs per
        # software stage per I/O and min(range, key=lambda) is 3x slower)
        best = 0
        best_load = None
        for i, c in enumerate(self._cores):
            res = c.resource
            load = res.in_use + res.queued
            if best_load is None or load < best_load:
                best, best_load = i, load
                if load == 0:
                    break
        return best

    # -- reporting -----------------------------------------------------------

    def kernel_utilization(self) -> float:
        """Mean kernel-mode utilization across cores (Fig 15b)."""
        return sum(c.kernel_util.utilization() for c in self._cores) / self.n_cores

    def total_utilization(self) -> float:
        return sum(c.kernel_util.utilization() + c.user_util.utilization()
                   for c in self._cores) / self.n_cores

    def mark_utilization(self) -> None:
        for core in self._cores:
            core.kernel_util.mark()

    def kernel_utilization_timeline(self):
        """Averaged per-interval kernel utilization across cores."""
        per_core = [core.kernel_util.interval_utilization()
                    for core in self._cores]
        if not per_core[0]:
            return []
        return [(per_core[0][i][0],
                 sum(track[i][1] for track in per_core) / self.n_cores)
                for i in range(len(per_core[0]))]

    def instruction_total(self) -> int:
        return sum(core.stats.total for core in self._cores)

    def register_metrics(self, registry, prefix: str = "host.cpu") -> None:
        """Expose per-core utilization instruments under ``prefix``."""
        scope = registry.scoped(prefix)
        for i, core in enumerate(self._cores):
            scope.register(f"core{i}.kernel.util", core.kernel_util.utilization)
            scope.register(f"core{i}.user.util", core.user_util.utilization)
        scope.register("kernel.util", self.kernel_utilization)
        scope.register("instructions", lambda: float(self.instruction_total()))
