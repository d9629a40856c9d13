"""Process-wide tracing switches and the one collection of tracers.

Experiments build a fresh :class:`~repro.sim.Simulator` per data point,
so there is no single object a CLI flag could hand a tracer to.  This
module is the rendezvous and owns the kernel's ``tracer`` slot
(:data:`repro.sim.engine.HOOKS`).  Two switches share it:

* :func:`enable_tracing` — every new ``Simulator`` receives a live
  :class:`~repro.sim.tracer.Tracer` instead of the shared
  :data:`~repro.sim.tracer.NULL_TRACER`;
* :func:`enable_causal` — the tracer is a
  :class:`~repro.obs.causal.CausalTracer`, which still retains every
  span while tracing is also on, so Chrome-trace export and causal
  records come from one pass.

:func:`tracer_for` stays installed while either switch is on, and every
tracer it hands out joins one list (:func:`tracers`).  Each ``FullSystem``
hands its metric registry to its tracer, so the same list is the source
of the end-of-run metric snapshots (:func:`metric_snapshots`) and of
the causal summary (:func:`causal_summary`).  Flipping either switch
starts a fresh collection.

With both switches off — the default, and the state every tier-1 test
runs under — the slot is empty and every simulator keeps the null
tracer, so simulation behaviour and figure output are byte-identical to
a build without this module.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs import causal as _causal
from repro.sim.engine import HOOKS
from repro.sim.tracer import Tracer

_tracing = False
_causal_on = False
_top_k = 8
_tracers: List[Tracer] = []


def tracing_enabled() -> bool:
    """True while the process-wide tracing switch is on."""
    return _tracing


def causal_enabled() -> bool:
    """True while the process-wide causal-capture switch is on."""
    return _causal_on


def enable_tracing() -> None:
    """Turn tracing on and clear anything collected previously."""
    global _tracing
    _tracing = True
    _rearm()


def disable_tracing() -> None:
    """Turn tracing off and drop the collected tracers."""
    global _tracing
    _tracing = False
    _rearm()


def enable_causal(top_k: int = 8) -> None:
    """Arm causal capture, keeping the ``top_k`` worst records per op,
    and clear anything collected previously."""
    global _causal_on, _top_k
    _causal_on = True
    _top_k = top_k
    _rearm()


def disable_causal() -> None:
    """Disarm causal capture and drop the collected tracers."""
    global _causal_on
    _causal_on = False
    _rearm()


def _rearm() -> None:
    """Start a fresh collection, and keep :func:`tracer_for` in the
    kernel's slot while either switch is on."""
    _tracers.clear()
    HOOKS["tracer"] = tracer_for if (_tracing or _causal_on) else None


def tracer_for(clock) -> Tracer:
    """The kernel's tracer factory: a live tracer for a new simulator,
    collected here."""
    if _causal_on:
        tracer: Tracer = _causal.CausalTracer(clock, top_k=_top_k,
                                              retain_spans=_tracing)
    else:
        tracer = Tracer(clock)
    _tracers.append(tracer)
    return tracer


def tracers() -> List[Tracer]:
    """Every tracer handed out since a switch last flipped."""
    return list(_tracers)


def metric_snapshots() -> List[Tuple[str, Dict[str, float]]]:
    """One ``(label, snapshot)`` per traced system, in construction order.

    A system's tracer keeps the registry its ``FullSystem`` handed it,
    so a traced run keeps every system's registry until export, as it
    keeps the system's spans; the snapshot is read here.  The label is
    the tracer's, else ``system<i>`` (its Chrome-trace ``pid``).
    Simulators without a ``FullSystem`` have no registry and no row.
    """
    return [(tracer.label or f"system{index}", tracer.metrics.snapshot())
            for index, tracer in enumerate(_tracers)
            if tracer.metrics is not None]


def causal_summary() -> Dict:
    """:func:`repro.obs.causal.summarize` over the collected tracers."""
    return _causal.summarize(_tracers)
