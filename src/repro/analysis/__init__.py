"""Analysis tools: result rendering, simlint, and the runtime sanitizer.

Two halves live here:

* result-side utilities used by the experiments (``tables``,
  ``featurematrix``);
* the simulation-safety toolchain (docs/ANALYSIS.md): **simlint**, an
  AST linter encoding the simulator's determinism/resource invariants
  (``python -m repro.analysis lint``), and **SimSanitizer**, the opt-in
  observe-only runtime checker (``REPRO_SANITIZE=1`` or
  :func:`repro.analysis.sanitizer.enable_sanitizer`).

This package module imports nothing: import each name from the module
that defines it.
"""
