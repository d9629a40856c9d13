"""Process-wide tracing switch and collection point.

Experiments build a fresh :class:`~repro.sim.Simulator` per data point,
so there is no single object a CLI flag could hand a tracer to.  This
module is the rendezvous: :func:`enable_tracing` flips a process-wide
switch and installs :func:`tracer_for` in the kernel's ``tracer`` slot
(:data:`repro.sim.engine.HOOKS`), after which every newly-constructed
``Simulator`` receives a live :class:`~repro.sim.tracer.Tracer`
(registered here for later export) instead of the shared
:data:`~repro.sim.tracer.NULL_TRACER`.  Causal capture
(:mod:`repro.obs.causal`) shares the slot: :func:`tracer_for` stays
installed while either switch is on.  Metric snapshots taken at the
end of each run land here too, labelled per system.

With both switches off — the default, and the state every tier-1 test
runs under — the slot is empty, every simulator keeps the null tracer
and both collection functions are no-ops, so simulation behaviour and
figure output are byte-identical to a build without this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs import causal as _causal
from repro.sim.engine import HOOKS
from repro.sim.tracer import Tracer

_active = False
_tracers: List[Tracer] = []
_metric_snapshots: List[Tuple[str, Dict[str, float]]] = []


def tracing_enabled() -> bool:
    """True while the process-wide tracing switch is on."""
    return _active


def enable_tracing() -> None:
    """Turn tracing on and clear anything collected previously."""
    global _active
    _active = True
    _tracers.clear()
    _metric_snapshots.clear()
    sync_tracer_slot()


def disable_tracing() -> None:
    """Turn tracing off and drop collected tracers and snapshots."""
    global _active
    _active = False
    _tracers.clear()
    _metric_snapshots.clear()
    sync_tracer_slot()


def sync_tracer_slot() -> None:
    """Install :func:`tracer_for` in the kernel while tracing or causal
    capture is on, and empty the slot once both are off."""
    on = _active or _causal.causal_enabled()
    HOOKS["tracer"] = tracer_for if on else None


def tracer_for(clock) -> Tracer:
    """The kernel's tracer factory: a live tracer for a new simulator,
    collected here while tracing is on.

    When causal capture (:mod:`repro.obs.causal`) is armed the tracer is
    a :class:`~repro.obs.causal.CausalTracer` — still a full span tracer
    when plain tracing is *also* on (``retain_spans``), so Chrome-trace
    export and causal records come from one pass.
    """
    if _causal.causal_enabled():
        tracer = _causal.causal_tracer_for(clock, retain_spans=_active)
    else:
        tracer = Tracer(clock)
    if _active:
        _tracers.append(tracer)
    return tracer


def tracers() -> List[Tracer]:
    """Every live tracer handed out since tracing was enabled."""
    return list(_tracers)


def collect_metrics(label: str, snapshot: Dict[str, float]) -> None:
    """Record one system's end-of-run metric snapshot (no-op when off)."""
    if _active:
        _metric_snapshots.append((label, dict(snapshot)))


def metric_snapshots() -> List[Tuple[str, Dict[str, float]]]:
    """Labelled metric snapshots collected since tracing was enabled."""
    return list(_metric_snapshots)
