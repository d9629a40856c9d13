"""``repro.fleet`` — the distributed design-space sweep engine.

The paper's value is design-space answers (Figs 10–16), but a single
``FullSystem`` run answers one point at a time.  This package runs
*fleets* of configurations: a declarative :class:`SweepSpec`
(grid/random over presets × workloads × firmware knobs, config-as-data
with stable config hashes), a process-pool runner whose per-job seeds
derive from those hashes, a resumable content-addressed
:class:`ResultStore`, and merged reports built from the mergeable
streaming histograms of :mod:`repro.obs`.

Running sweeps also stream a live NDJSON run journal beside the store
(:mod:`repro.fleet.watch` + :mod:`repro.obs.journal`): ``watch``
tails it to show running/failed/ETA per job and emits
streaming partial reports that converge byte-identically to the final
``report``.

Entry points::

    python -m repro.fleet plan   --builtin smoke4
    python -m repro.fleet run    --builtin smoke4 --store out/ --jobs 4
    python -m repro.fleet status --builtin smoke4 --store out/
    python -m repro.fleet watch  --builtin smoke4 --store out/ --out live.md
    python -m repro.fleet report --builtin smoke4 --store out/ --out fleet.md

See ``docs/FLEET.md`` for the spec schema, hash/resume semantics and
the determinism guarantees the golden tests pin.
"""

from repro.fleet.report import (
    merge_results,
    render_markdown,
    write_fleet_report,
)
from repro.fleet.runner import RunSummary, run_one_job, run_sweep, sweep_status
from repro.fleet.scenarios import (
    SCENARIOS,
    builtin_specs,
    run_scenario,
    scenario,
    spec_names,
)
from repro.fleet.spec import Job, SweepSpec, config_hash, derive_seed
from repro.fleet.store import ResultStore
from repro.fleet.watch import (
    journal_status,
    render_status,
    watch,
    write_partial_report,
)

__all__ = [
    "Job",
    "ResultStore",
    "RunSummary",
    "SCENARIOS",
    "SweepSpec",
    "builtin_specs",
    "config_hash",
    "derive_seed",
    "journal_status",
    "merge_results",
    "render_markdown",
    "render_status",
    "run_one_job",
    "run_scenario",
    "run_sweep",
    "scenario",
    "spec_names",
    "sweep_status",
    "watch",
    "write_fleet_report",
    "write_partial_report",
]
