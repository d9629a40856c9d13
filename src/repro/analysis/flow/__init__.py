"""simflow: whole-project dataflow analysis for the simulator.

Where :mod:`repro.analysis.rules` checks one function at a time, this
package sees the *project*: a module resolver and symbol table
(:mod:`~repro.analysis.flow.project`), a call graph with best-effort
method resolution, and small abstract interpreters over typed lattices.
Three rule families build on it (docs/ANALYSIS.md, "The dataflow pass"):

* **SIM201-SIM203** — unit-of-measure checking over
  ``ns | us | ms | s | bytes | sectors | pages | hz`` facts inferred
  from name suffixes, ``repro.common.units`` constants and call
  summaries (:mod:`~repro.analysis.flow.unitcheck`);
* **SIM210** — interprocedural determinism taint: wall-clock / RNG /
  set-iteration-order values tracked across call edges into sim-visible
  state (:mod:`~repro.analysis.flow.taint`);
* **SIM220** — static lock-order deadlock detection over
  ``Resource.acquire`` and ``Resource.hold`` sites
  (:mod:`~repro.analysis.flow.locks`).

Importing this package registers the project rules with the simlint
registry, exactly as importing :mod:`repro.analysis.rules` registers
the per-file ones.
"""

from repro.analysis.flow.project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    module_name_for,
)

# Rule registration side effects (mirrors repro.analysis.rules).
from repro.analysis.flow import unitcheck  # noqa: F401,E402
from repro.analysis.flow import taint  # noqa: F401,E402
from repro.analysis.flow import locks  # noqa: F401,E402

__all__ = ["Project", "ModuleInfo", "FunctionInfo", "module_name_for"]
