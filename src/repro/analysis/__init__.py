"""The simulation-safety toolchain (docs/ANALYSIS.md).

* **simlint**, an AST linter encoding the simulator's determinism and
  resource invariants (``python -m repro.analysis lint``);
* **SimSanitizer**, the opt-in observe-only runtime checker
  (``REPRO_SANITIZE=1`` or
  :func:`repro.analysis.sanitizer.enable_sanitizer`).

Result rendering lives in :mod:`repro.common.render` and the Table IV
feature matrix in :mod:`repro.experiments.featurematrix`.

This package module imports nothing: import each name from the module
that defines it.
"""
