"""Wall-clock self-profiler: where does *simulation* time actually go?

The paper's pitch — modeling all SSD resources is affordable — lives or
dies on simulator speed, and speeding it up needs to know **which models
burn the wall clock**, not just how long a whole run took.  Tracing
(:mod:`repro.obs.tracer`) answers that in *simulated* time; this module
answers it in *host* time.

When :func:`enable_profiling` is armed, every new
:class:`~repro.sim.Simulator` carries a :class:`WallProfiler` as the
last observer in its single observer slot.  Before each dispatch it
swaps a non-empty callback list for one timing wrapper that calls the
same callbacks in the same order between two ``perf_counter`` reads,
and charges the time to the **layer** (``sim``/``host``/``hostos``/
``nvme``/``icl``/``ftl``/``gc``/``fil``/``flash``/``cores``/``dram``/…)
of the code that consumed it.  A process resume is charged to its
**innermost suspended generator**, found by walking ``gi_yieldfrom``
down the ``yield from`` chain, so an FTL helper's work after its first
yield is charged to ``ftl``, not to the ICL that delegated to it; work
a helper does *before* its first yield is still charged to its caller.
Loop overhead — queue pops, tombstones, the other observers — is the
run's wall time (first event to ``on_stop``) minus the wrapped
dispatches, booked under ``sim``.

The profiler schedules nothing and the wrapper runs the very callbacks
the loop would have run, so a profiled run is **bit-identical** to a
plain one (``tests/test_obs_profiler.py`` pins this against the perf
scenarios).  Off — the default — :func:`profiler_for` returns ``None``.

Exports: :func:`attribution` (merged per-layer totals),
:func:`attribution_markdown` (the table the next perf PR reads) and
:func:`write_profile_trace` (Chrome ``trace_event`` JSON of the slowest
dispatch slices, wall-time axis).  CLI surface: ``--profile`` on
``python -m repro.experiments`` and on ``python -m repro.fleet run``
(per-job layer totals land in the run journal).

This module is one of simlint's designated wall-clock modules (SIM110):
``perf_counter`` reads are its whole point and never enter simulated
results.
"""

from __future__ import annotations

import heapq
import json
import os
import time
from typing import Any, Dict, List, Optional, Tuple

#: (path fragment, layer) — first match wins, checked on "/"-normalized
#: code-object filenames; the order goes from most to least specific.
_CATEGORY_RULES: Tuple[Tuple[str, str], ...] = (
    ("/repro/ssd/firmware/ftl/gc", "gc"),
    ("/repro/ssd/firmware/ftl/", "ftl"),
    ("/repro/ssd/firmware/icl", "icl"),
    ("/repro/ssd/firmware/fil", "fil"),
    ("/repro/ssd/firmware/", "hil"),
    ("/repro/ssd/storage/", "flash"),
    ("/repro/ssd/computation/cores", "cores"),
    ("/repro/ssd/computation/dram", "dram"),
    ("/repro/ssd/", "ssd"),
    ("/repro/interfaces/nvme/", "nvme"),
    ("/repro/interfaces/sata/", "sata"),
    ("/repro/interfaces/ufs/", "ufs"),
    ("/repro/interfaces/ocssd/", "ocssd"),
    ("/repro/interfaces/", "interface"),
    ("/repro/hostos/", "hostos"),
    ("/repro/host/", "host"),
    ("/repro/core/", "host"),
    ("/repro/workloads/", "host"),
    ("/repro/baselines/", "baseline"),
    ("/repro/sim/", "sim"),
)

_active = False
_max_slices = 2048
_profilers: List["WallProfiler"] = []


def profiling_enabled() -> bool:
    """True while the process-wide profiling switch is on."""
    return _active


def enable_profiling(max_slices: int = 2048) -> None:
    """Arm wall-clock profiling for every subsequently-built simulator.

    ``max_slices`` bounds how many of the slowest per-event dispatch
    slices each profiler retains for the Chrome trace; attribution
    totals always cover every event regardless.
    """
    global _active, _max_slices
    if max_slices < 1:
        raise ValueError("max_slices must be >= 1")
    _active = True
    _max_slices = int(max_slices)
    _profilers.clear()


def disable_profiling() -> None:
    """Turn profiling off and drop every collected profiler."""
    global _active
    _active = False
    _profilers.clear()


def profiler_for(sim) -> Optional["WallProfiler"]:
    """A live profiler for a new simulator, or ``None`` when off."""
    if not _active:
        return None
    profiler = WallProfiler(label=f"system{len(_profilers)}",
                            max_slices=_max_slices)
    _profilers.append(profiler)
    return profiler


def profilers() -> List["WallProfiler"]:
    """Every profiler handed out since profiling was enabled."""
    return list(_profilers)


def _categorize(filename: Optional[str]) -> str:
    """Map a code-object filename onto its layer category."""
    if not filename:
        return "sim"
    path = filename.replace(os.sep, "/")
    for marker, category in _CATEGORY_RULES:
        if marker in path:
            return category
    return "other"


def _callback_code(callback) -> Any:
    """The code object that best identifies where a dispatch will run.

    A bound ``Process._resume`` continues the innermost suspended
    generator, at the end of the ``gi_yieldfrom`` chain, so call this
    before the dispatch; anything else is keyed by its own ``__code__``.
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        generator = getattr(owner, "_generator", None)
        code = getattr(generator, "gi_code", None) \
            if generator is not None else None
        if code is not None:
            inner = generator.gi_yieldfrom
            try:
                while inner is not None:
                    code = inner.gi_code
                    inner = inner.gi_yieldfrom
            except AttributeError:
                pass    # delegating to a plain iterator: charge its caller
            return code
    func = getattr(callback, "__func__", callback)
    return getattr(func, "__code__", None)


class WallProfiler:
    """Per-simulator wall-time accumulator, attributed per layer/module.

    An observer of the event loop (see :class:`~repro.sim.Simulator`).
    ``record`` runs once per dispatched event and is deliberately
    dictionary arithmetic only: category/module lookups are memoized per
    code object.
    """

    __slots__ = ("label", "max_slices", "run_wall_s", "dispatch_wall_s",
                 "events", "runs", "categories", "modules", "_slices",
                 "_by_code", "_t_start", "_pending", "_timed")

    def __init__(self, label: str = "", max_slices: int = 2048) -> None:
        self.label = label
        self.max_slices = max_slices
        self.run_wall_s = 0.0         # total measured loop wall time
        self.dispatch_wall_s = 0.0    # the part spent inside callbacks
        self.events = 0
        self.runs = 0
        #: category -> [calls, seconds]
        self.categories: Dict[str, List[float]] = {}
        #: dotted module (or filename) -> [calls, seconds]
        self.modules: Dict[str, List[float]] = {}
        #: min-heap of (dur_s, seq, ts_s, category, name): slowest kept
        self._slices: List[Tuple[float, int, float, str, str]] = []
        self._by_code: Dict[Any, Tuple[str, str]] = {}
        #: perf_counter at the current run's first event; None between runs
        self._t_start: Optional[float] = None
        #: (callbacks, code, run start) of the dispatch _timed_dispatch runs next
        self._pending: Any = None
        self._timed = [self._timed_dispatch]

    # -- the observer protocol ---------------------------------------------

    def on_event(self, when: int, event) -> None:
        """Swap a non-empty callback list for ``[_timed_dispatch]``, which
        runs the same callbacks in the same order; record an empty one as
        a zero-length dispatch.  One list serves every event: the loop
        takes it right after this call, so ``_pending`` is always its own.
        """
        t_start = self._t_start
        if t_start is None:
            t_start = self._t_start = time.perf_counter()  # simlint: disable=SIM101 -- the profiler's own wall-clock measurement; never enters simulated state
        callbacks = event.callbacks
        if callbacks:
            self._pending = (callbacks, _callback_code(callbacks[0]), t_start)
            event.callbacks = self._timed
        else:
            self.record(None, time.perf_counter() - t_start, 0.0)  # simlint: disable=SIM101 -- the profiler's own wall-clock measurement; never enters simulated state

    def _timed_dispatch(self, event) -> None:
        """Run the pending callbacks between two clock reads."""
        callbacks, code, t_start = self._pending
        clock = time.perf_counter
        t0 = clock()
        for callback in callbacks:
            callback(event)
        self.record(code, t0 - t_start, clock() - t0)

    def on_stop(self, drained: bool) -> None:
        """Close the run that the first ``on_event`` since the last stop opened."""
        t_start, self._t_start = self._t_start, None
        wall_s = 0.0
        if t_start is not None:
            wall_s = time.perf_counter() - t_start  # simlint: disable=SIM101 -- the profiler's own wall-clock measurement; never enters simulated state
        self.note_run(wall_s)

    def on_failure(self, error: BaseException) -> None:
        """Nothing to dump: the attribution so far stays readable."""

    # -- accounting --------------------------------------------------------

    def record(self, code, ts_s: float, dur_s: float) -> None:
        """Attribute one event dispatch (``dur_s`` of wall time) to
        ``code``, the code object :func:`_callback_code` chose before the
        dispatch (``None`` for an event without callbacks)."""
        self.events += 1
        self.dispatch_wall_s += dur_s
        hit = self._by_code.get(code)
        if hit is None:
            filename = getattr(code, "co_filename", None)
            name = getattr(code, "co_name", "(no callback)")
            hit = self._by_code[code] = (
                _categorize(filename),
                f"{os.path.basename(filename or 'sim')}:{name}")
        category, name = hit
        bucket = self.categories.get(category)
        if bucket is None:
            bucket = self.categories[category] = [0, 0.0]
        bucket[0] += 1
        bucket[1] += dur_s
        mod = self.modules.get(name)
        if mod is None:
            mod = self.modules[name] = [0, 0.0]
        mod[0] += 1
        mod[1] += dur_s
        slices = self._slices
        if len(slices) < self.max_slices:
            heapq.heappush(slices, (dur_s, self.events, ts_s, category, name))
        elif dur_s > slices[0][0]:
            heapq.heapreplace(slices,
                              (dur_s, self.events, ts_s, category, name))

    def note_run(self, wall_s: float) -> None:
        """Account one completed ``step``/``run``/``run_process`` invocation."""
        self.runs += 1
        self.run_wall_s += wall_s

    # -- results -----------------------------------------------------------

    def kernel_wall_s(self) -> float:
        """Loop overhead no callback accounts for (booked under ``sim``)."""
        return max(0.0, self.run_wall_s - self.dispatch_wall_s)

    def slices(self) -> List[Tuple[float, int, float, str, str]]:
        """Retained slowest dispatch slices, slowest first."""
        return sorted(self._slices, reverse=True)


# -- aggregation and exports --------------------------------------------------


def attribution(profs: Optional[List[WallProfiler]] = None) -> Dict:
    """Merge profilers into one per-layer wall-time attribution document.

    ``layers`` maps category -> ``{"calls", "seconds", "share"}`` where
    shares are fractions of the total measured wall time; kernel loop
    overhead is folded into ``sim`` so the shares sum to 1.0 (the
    "attribute >= 95% of measured wall time" contract is pinned by
    test).  ``modules`` keeps the finer file:function grain.
    """
    profs = profilers() if profs is None else profs
    total = sum(p.run_wall_s for p in profs)
    layers: Dict[str, Dict[str, float]] = {}
    modules: Dict[str, Dict[str, float]] = {}
    kernel = 0.0
    events = 0
    for prof in profs:
        events += prof.events
        kernel += prof.kernel_wall_s()
        for cat, (calls, seconds) in prof.categories.items():
            entry = layers.setdefault(cat, {"calls": 0, "seconds": 0.0})
            entry["calls"] += calls
            entry["seconds"] += seconds
        for name, (calls, seconds) in prof.modules.items():
            entry = modules.setdefault(name, {"calls": 0, "seconds": 0.0})
            entry["calls"] += calls
            entry["seconds"] += seconds
    if kernel > 0.0 or "sim" in layers:
        entry = layers.setdefault("sim", {"calls": 0, "seconds": 0.0})
        entry["seconds"] += kernel
    attributed = sum(entry["seconds"] for entry in layers.values())
    for entry in layers.values():
        entry["share"] = entry["seconds"] / total if total else 0.0
    return {
        "label": ", ".join(p.label for p in profs) or "(no profilers)",
        "total_wall_s": total,
        "kernel_wall_s": kernel,
        "events": events,
        "runs": sum(p.runs for p in profs),
        "attributed_fraction": attributed / total if total else 0.0,
        "layers": layers,
        "modules": modules,
    }


def hottest_layers(doc: Dict, n: int = 3) -> List[str]:
    """The ``n`` layers with the most attributed wall time, hottest first."""
    ranked = sorted(doc["layers"].items(),
                    key=lambda item: (-item[1]["seconds"], item[0]))
    return [name for name, _entry in ranked[:n]]


def attribution_markdown(profs: Optional[List[WallProfiler]] = None,
                         title: str = "Wall-clock attribution") -> str:
    """Render the merged attribution as the Markdown table CI uploads."""
    doc = attribution(profs)
    out: List[str] = [f"# {title}", ""]
    total = doc["total_wall_s"]
    out.append(f"Measured {total:.4f}s of wall time over {doc['runs']} "
               f"run(s), {doc['events']} dispatched event(s); "
               f"{doc['attributed_fraction'] * 100.0:.1f}% attributed "
               f"({doc['kernel_wall_s']:.4f}s kernel loop, booked under "
               "`sim`).")
    out += ["", "| layer | calls | wall ms | share |",
            "|---|---:|---:|---:|"]
    ranked = sorted(doc["layers"].items(),
                    key=lambda item: (-item[1]["seconds"], item[0]))
    for name, entry in ranked:
        out.append(f"| `{name}` | {int(entry['calls'])} "
                   f"| {entry['seconds'] * 1e3:.2f} "
                   f"| {entry['share'] * 100.0:.1f}% |")
    top = hottest_layers(doc)
    if top:
        out += ["", "Top-{n} hottest layers: {names}.".format(
            n=len(top), names=", ".join(f"`{name}`" for name in top))]
    hot_modules = sorted(doc["modules"].items(),
                         key=lambda item: (-item[1]["seconds"], item[0]))[:10]
    if hot_modules:
        out += ["", "| hottest call sites | calls | wall ms |",
                "|---|---:|---:|"]
        for name, entry in hot_modules:
            out.append(f"| `{name}` | {int(entry['calls'])} "
                       f"| {entry['seconds'] * 1e3:.2f} |")
    out.append("")
    return "\n".join(out)


def chrome_profile_trace(profs: Optional[List[WallProfiler]] = None) -> Dict:
    """Chrome ``trace_event`` document of the retained dispatch slices.

    One process per profiler, one thread track per layer; timestamps
    and durations are **wall-clock** microseconds (unlike
    :mod:`repro.obs.export`, whose axis is simulated time).
    """
    profs = profilers() if profs is None else profs
    events: List[Dict] = []
    for pid, prof in enumerate(profs):
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"wallprof {prof.label}"}})
        tids: Dict[str, int] = {}
        for dur_s, _seq, ts_s, category, name in prof.slices():
            tid = tids.setdefault(category, len(tids) + 1)
            events.append({"ph": "X", "pid": pid, "tid": tid,
                           "name": name, "cat": category,
                           "ts": round(ts_s * 1e6, 3),
                           "dur": round(dur_s * 1e6, 3)})
        for category, tid in sorted(tids.items()):
            events.append({"ph": "M", "pid": pid, "tid": tid,
                           "name": "thread_name",
                           "args": {"name": category}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_profile_trace(path,
                        profs: Optional[List[WallProfiler]] = None) -> int:
    """Write the Chrome trace; returns the number of trace events."""
    doc = chrome_profile_trace(profs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
        handle.write("\n")
    return len(doc["traceEvents"])


def write_profile(base_path,
                  profs: Optional[List[WallProfiler]] = None,
                  title: str = "Wall-clock attribution") -> List[str]:
    """Write ``<base>.md`` + ``<base>.trace.json``; returns the paths.

    The CLI surface (``--profile``) funnels here so every entry point
    emits the same artifact pair.
    """
    base = str(base_path)
    for suffix in (".md", ".trace.json", ".json"):
        if base.endswith(suffix):
            base = base[:-len(suffix)]
            break
    markdown_path = base + ".md"
    trace_path = base + ".trace.json"
    with open(markdown_path, "w", encoding="utf-8") as handle:
        handle.write(attribution_markdown(profs, title=title))
    write_profile_trace(trace_path, profs)
    return [markdown_path, trace_path]
