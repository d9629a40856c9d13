"""Outside-in per-layer timing and call counting.

The layers are the repo's modules.  :class:`LayerTracer` measures them
from outside, without editing ``repro``: it replaces the public
functions listed in :data:`WRAPPED` (and ``Simulator.process``) with
timing wrappers for as long as it is installed.

* A wrapped generator function returns a :class:`TimedGen`, which
  forwards ``send``/``throw``/``close`` and yields the very same event
  objects, so the simulated schedule is unchanged.  Each resume is timed
  on a stack: a layer's self time is its inclusive time minus the time
  spent in nested wrapped calls.
* ``Simulator.process`` labels every spawned generator by the module
  that defined it, so private driver, controller and HIL loops are
  charged to their own layer instead of to ``sim``.
* The wrapper's own cost per call is calibrated at start-up against a
  no-op generator and subtracted from the caller; the total is reported
  as ``trace.wrapper_s`` and taken out of ``sim.self_s`` as well.
* ``sim`` itself is not wrapped: its self time is whatever remains.

:class:`CallCounter` is the noise-free work axis: it counts Python calls
(generator resumes included) per layer of the callee's module with the
interpreter's C profiler hook, the one ``sys.setprofile`` installs.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter as clock
from types import GeneratorType
from typing import Dict, Iterator, List, Optional, Tuple

#: the 16 layers, top of the stack first
LAYERS = (
    "core", "host.cpu", "host.memory", "host.dma", "hostos.blocklayer",
    "hostos.pagecache", "interfaces.nvme", "ssd.hil", "ssd.icl", "ssd.ftl",
    "ssd.gc", "ssd.fil", "ssd.flash", "ssd.cores", "ssd.dram", "sim",
)

#: module prefix -> layer; the longest matching prefix wins
MODULE_LAYERS = {
    "repro.core": "core",
    "repro.host.cpu": "host.cpu",
    "repro.host.memory": "host.memory",
    "repro.host.dma": "host.dma",
    "repro.hostos.blocklayer": "hostos.blocklayer",
    "repro.hostos.pagecache": "hostos.pagecache",
    "repro.interfaces.nvme": "interfaces.nvme",
    "repro.ssd.firmware.hil": "ssd.hil",
    "repro.ssd.firmware.arbiter": "ssd.hil",
    "repro.ssd.firmware.icl": "ssd.icl",
    "repro.ssd.firmware.ftl": "ssd.ftl",
    "repro.ssd.firmware.ftl.gc": "ssd.gc",
    "repro.ssd.firmware.fil": "ssd.fil",
    "repro.ssd.storage": "ssd.flash",
    "repro.ssd.computation.cores": "ssd.cores",
    "repro.ssd.computation.dram": "ssd.dram",
    "repro.sim": "sim",
}

#: (module, attribute, layer): the public functions the tracer wraps
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.system", "FullSystem.submit_io", "core"),
    ("repro.host.cpu", "HostCpu.execute", "host.cpu"),
    ("repro.host.memory", "HostMemory.access", "host.memory"),
    ("repro.host.dma", "DmaEngine.to_device", "host.dma"),
    ("repro.host.dma", "DmaEngine.to_host", "host.dma"),
    ("repro.host.dma", "DmaEngine.control_to_device", "host.dma"),
    ("repro.host.dma", "DmaEngine.control_to_host", "host.dma"),
    ("repro.hostos.blocklayer", "BlockLayer.submit", "hostos.blocklayer"),
    ("repro.hostos.pagecache", "PageCache.lookup_read", "hostos.pagecache"),
    ("repro.hostos.pagecache", "PageCache.write", "hostos.pagecache"),
    ("repro.hostos.pagecache", "PageCache.install_read", "hostos.pagecache"),
    ("repro.hostos.pagecache", "PageCache.dirty_pages", "hostos.pagecache"),
    ("repro.hostos.pagecache", "PageCache.evict_candidates",
     "hostos.pagecache"),
    ("repro.interfaces.nvme.host", "NvmeDriver.submit", "interfaces.nvme"),
    ("repro.interfaces.nvme.host", "NvmeDriver.interrupt", "interfaces.nvme"),
    ("repro.interfaces.nvme.controller", "NvmeController.doorbell",
     "interfaces.nvme"),
    ("repro.ssd.firmware.hil", "HostInterfaceLayer.submit", "ssd.hil"),
    ("repro.ssd.firmware.arbiter", "Arbiter.grant", "ssd.hil"),
    ("repro.ssd.firmware.icl", "InternalCacheLayer.read", "ssd.icl"),
    ("repro.ssd.firmware.icl", "InternalCacheLayer.write", "ssd.icl"),
    ("repro.ssd.firmware.icl", "InternalCacheLayer.trim", "ssd.icl"),
    ("repro.ssd.firmware.icl", "InternalCacheLayer.flush_all", "ssd.icl"),
    ("repro.ssd.firmware.ftl.ftl", "FlashTranslationLayer.translate",
     "ssd.ftl"),
    ("repro.ssd.firmware.ftl.ftl", "FlashTranslationLayer.service_line_write",
     "ssd.ftl"),
    ("repro.ssd.firmware.ftl.ftl", "FlashTranslationLayer.service_line_reads",
     "ssd.ftl"),
    ("repro.ssd.firmware.ftl.ftl", "FlashTranslationLayer.trim", "ssd.ftl"),
    ("repro.ssd.firmware.ftl.allocator", "PageAllocator.allocate", "ssd.ftl"),
    # the GC policy functions as the FTL module bound them at import
    ("repro.ssd.firmware.ftl.ftl", "select_victim", "ssd.gc"),
    ("repro.ssd.firmware.ftl.ftl", "wear_leveling_swap_needed", "ssd.gc"),
    ("repro.ssd.firmware.fil", "FlashInterfaceLayer.read", "ssd.fil"),
    ("repro.ssd.firmware.fil", "FlashInterfaceLayer.program", "ssd.fil"),
    ("repro.ssd.firmware.fil", "FlashInterfaceLayer.erase", "ssd.fil"),
    ("repro.ssd.firmware.fil", "FlashInterfaceLayer.read_group", "ssd.fil"),
    ("repro.ssd.firmware.fil", "FlashInterfaceLayer.program_group", "ssd.fil"),
    ("repro.ssd.storage.backend", "FlashBackend.read_page", "ssd.flash"),
    ("repro.ssd.storage.backend", "FlashBackend.program_page", "ssd.flash"),
    ("repro.ssd.storage.backend", "FlashBackend.program_multiplane",
     "ssd.flash"),
    ("repro.ssd.storage.backend", "FlashBackend.erase_block", "ssd.flash"),
    ("repro.ssd.computation.cores", "CpuComplex.execute", "ssd.cores"),
    ("repro.ssd.computation.dram", "InternalDram.access", "ssd.dram"),
)


def layer_of_module(module: str) -> Optional[str]:
    """The layer a dotted module belongs to, or None outside all layers."""
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) \
                and (best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else None


class LayerStats:
    """Aggregates of one layer: self seconds and entries."""

    __slots__ = ("self_s", "calls")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.calls = 0


_NO_KWARGS: Dict[str, object] = {}


def _request_of(args, kwargs) -> Optional[int]:
    """The request id the arguments carry: a ``track=`` keyword, or an
    argument's ``req_id``/``track`` (IORequest, DeviceCommand, LineRequest)."""
    track = kwargs.get("track")
    if type(track) is int and track:
        return track
    for value in args:
        for attr in ("req_id", "track"):
            ident = getattr(value, attr, None)
            if type(ident) is int and ident:
                return ident
    return None


class TimedGen:
    """A generator proxy that times every resume of ``gen``.

    It forwards ``send``, ``throw`` and ``close`` unchanged and hands the
    yielded events through, so a process or a ``yield from`` chain
    behaves exactly as with the bare generator.
    """

    __slots__ = ("_gen", "_stats", "_tracer", "_label", "_request")

    def __init__(self, gen, stats: LayerStats, tracer: "LayerTracer",
                 label: str, request: Optional[int] = None) -> None:
        self._gen = gen
        self._stats = stats
        self._tracer = tracer
        self._label = label
        self._request = request

    def __iter__(self) -> "TimedGen":
        return self

    def __next__(self):
        return self._tracer.timed(self, self._gen.send, (None,), _NO_KWARGS)

    def send(self, value):
        return self._tracer.timed(self, self._gen.send, (value,), _NO_KWARGS)

    def throw(self, *args):
        return self._tracer.timed(self, self._gen.throw, args, _NO_KWARGS)

    def close(self):
        return self._tracer.timed(self, self._gen.close, (), _NO_KWARGS)


class _Call:
    """Stand-in carrying a plain call's layer for :meth:`LayerTracer.timed`."""

    __slots__ = ("_stats", "_label", "_request")

    def __init__(self, stats: LayerStats, label: str,
                 request: Optional[int]) -> None:
        self._stats = stats
        self._label = label
        self._request = request


class LayerTracer:
    """Times the :data:`WRAPPED` functions and spawned processes per layer.

    Install it before the system is built (``with tracer.installed():``)
    so construction-time processes are labelled; wrapped functions only
    time while :attr:`active` is set, so preconditioning runs at full
    speed.  Spans of the first ``span_limit`` timed intervals are kept
    for :meth:`write_chrome_trace`.
    """

    def __init__(self, span_limit: int = 50_000) -> None:
        self.stats: Dict[str, LayerStats] = {layer: LayerStats()
                                             for layer in LAYERS}
        self.active = False
        self.span_limit = span_limit
        self.interval_cost = 0.0   # wrapper seconds per timed interval
        self.gencall_cost = 0.0    # extra seconds per generator call
        self.intervals = 0
        self.gencalls = 0
        self._stack: List[float] = []
        self._open: List[int] = []
        self._spans: List[Optional[tuple]] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._module_layer: Dict[str, Optional[str]] = {}

    # -- timing core -----------------------------------------------------------

    def timed(self, owner, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed interval charged to
        ``owner`` (a :class:`TimedGen` or :class:`_Call`)."""
        stack = self._stack
        spans = self._spans
        span = -1
        if len(spans) < self.span_limit:
            span = len(spans)
            spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(span)
        stack.append(0.0)
        start = clock()  # simlint: disable=SIM101, SIM110 -- host-time layer profiling in the benchmark harness; never enters simulated state
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()  # simlint: disable=SIM101, SIM110 -- host-time layer profiling in the benchmark harness; never enters simulated state
            elapsed = end - start
            owner._stats.self_s += elapsed - stack.pop()
            self.intervals += 1
            if stack:
                stack[-1] += elapsed + self.interval_cost
            if span >= 0:
                spans[span] = (owner._label, start, end, parent,
                               owner._request)
                self._open.pop()

    def _wrap(self, fn, layer: str, label: str):
        tracer = self
        stats = self.stats[layer]
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stats.calls += 1
                tracer.gencalls += 1
                if tracer._stack:
                    tracer._stack[-1] += tracer.gencall_cost
                request = None
                if len(tracer._spans) < tracer.span_limit:
                    request = _request_of(args, kwargs)
                return TimedGen(fn(*args, **kwargs), stats, tracer, label,
                                request)
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stats.calls += 1
                request = None
                if len(tracer._spans) < tracer.span_limit:
                    request = _request_of(args, kwargs)
                result = tracer.timed(_Call(stats, label, request), fn, args,
                                      kwargs)
                if type(result) is GeneratorType:
                    return TimedGen(result, stats, tracer, label, request)
                return result
        return functools.wraps(fn)(wrapper)

    # -- process labelling -------------------------------------------------------

    def _layer_of_generator(self, gen) -> Optional[str]:
        frame = getattr(gen, "gi_frame", None)
        if frame is None:   # not a live generator: Process rejects it
            return None
        module = frame.f_globals.get("__name__", "")
        if module not in self._module_layer:
            self._module_layer[module] = layer_of_module(module)
        return self._module_layer[module]

    def _wrap_process(self, process):
        tracer = self

        def traced_process(sim, generator):
            if not isinstance(generator, TimedGen):
                layer = tracer._layer_of_generator(generator)
                if layer is not None:
                    # label every spawn, but count only the measured phase's
                    if tracer.active:
                        tracer.stats[layer].calls += 1
                    request = None
                    if len(tracer._spans) < tracer.span_limit:
                        request = _request_of(
                            tuple(generator.gi_frame.f_locals.values()),
                            _NO_KWARGS)
                    generator = TimedGen(generator, tracer.stats[layer],
                                         tracer,
                                         f"{layer}:{generator.gi_code.co_name}",
                                         request)
            return process(sim, generator)
        return functools.wraps(process)(traced_process)

    # -- installation --------------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap ``Simulator.process`` and every :data:`WRAPPED` function;
        restore the originals on exit."""
        from repro.sim import Simulator
        self._patch(Simulator, "process",
                    self._wrap_process(Simulator.__dict__["process"]))
        try:
            for module_name, attribute, layer in WRAPPED:
                owner = importlib.import_module(module_name)
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[name]
                self._patch(owner, name,
                            self._wrap(original, layer, f"{layer}:{name}"))
            yield self
        finally:
            self.active = False
            for owner, name, original in reversed(self._patched):
                setattr(owner, name, original)
            self._patched.clear()

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    # -- calibration -----------------------------------------------------------------

    def calibrate(self, iterations: int = 20_000, trials: int = 5) -> None:
        """Measure the wrapper's per-call cost on no-op callees.

        What a wrapped callee adds to its caller outside the callee's own
        timed window is the caller's self time with the wrapped no-op
        minus the same with the bare no-op.  A plain function gives the
        per-interval cost; a no-op generator adds the per-call part.
        """
        def noop():
            return None

        def noop_gen():
            return
            yield  # pragma: no cover - makes this a generator

        def call_loop(fn):
            for _ in range(iterations):
                fn()

        def yield_from_loop(fn):
            for _ in _yield_from_each(fn, iterations):
                pass

        plain = _caller_cost(call_loop, noop, iterations, trials)
        gen = _caller_cost(yield_from_loop, noop_gen, iterations, trials)
        self.interval_cost = max(0.0, plain)
        self.gencall_cost = max(0.0, gen - self.interval_cost)

    # -- results ---------------------------------------------------------------------

    @property
    def wrapper_s(self) -> float:
        """Host seconds the wrappers themselves cost, by calibration."""
        return (self.intervals * self.interval_cost
                + self.gencalls * self.gencall_cost)

    def layer_metrics(self, run_s: float) -> Dict[str, float]:
        """``<layer>.self_s`` and ``<layer>.calls``; ``sim`` is the rest."""
        out: Dict[str, float] = {}
        wrapped_total = 0.0
        for layer in LAYERS:
            if layer == "sim":
                continue
            stats = self.stats[layer]
            out[f"{layer}.self_s"] = stats.self_s
            out[f"{layer}.calls"] = stats.calls
            wrapped_total += stats.self_s
        out["sim.self_s"] = max(0.0, run_s - wrapped_total - self.wrapper_s)
        out["trace.wrapper_s"] = self.wrapper_s
        return out

    def write_chrome_trace(self, path: Path, origin: float) -> int:
        """Write the kept spans as a Chrome trace; returns the span count."""
        events = []
        for index, span in enumerate(self._spans):
            if span is None:
                continue
            label, start, end, parent, request = span
            args = {"span": index, "parent": parent}
            if request is not None:
                args["request"] = request
            events.append({"name": label, "ph": "X", "pid": 1, "tid": 1,
                           "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6, "args": args})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
        return len(events)


def _yield_from_each(fn, iterations: int):
    for _ in range(iterations):
        yield from fn()


def _caller_cost(loop, callee, iterations: int, trials: int) -> float:
    """Per-call seconds a wrapped ``callee`` adds to the ``loop`` calling it."""
    probe = LayerTracer(span_limit=0)
    probe.active = True
    wrapped = probe._wrap(callee, "sim", "calibration")

    def caller_self(fn) -> float:
        stats = LayerStats()
        probe.timed(_Call(stats, "", None), loop, (fn,), _NO_KWARGS)
        return stats.self_s

    bare = min(caller_self(callee) for _ in range(trials))
    timed = min(caller_self(wrapped) for _ in range(trials))
    return (timed - bare) / iterations


class CallCounter:
    """Python calls per layer of the callee's module, for one phase."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()

    @contextmanager
    def counting(self) -> Iterator["CallCounter"]:
        self._profile.enable()
        try:
            yield self
        finally:
            self._profile.disable()

    def per_layer(self) -> Dict[str, int]:
        """``<layer>.py_calls`` for every layer plus ``other.py_calls``."""
        import repro
        package_root = Path(repro.__file__).resolve().parent.parent
        counts = dict.fromkeys(
            [f"{layer}.py_calls" for layer in LAYERS] + ["other.py_calls"], 0)
        by_file: Dict[str, str] = {}
        for entry in self._profile.getstats():
            code = entry.code
            if isinstance(code, str):      # a builtin: not a Python call
                continue
            filename = code.co_filename
            if filename not in by_file:
                by_file[filename] = _layer_of_file(filename, package_root)
            counts[by_file[filename]] += entry.callcount
        return counts


def _layer_of_file(filename: str, package_root: Path) -> str:
    try:
        relative = Path(filename).resolve().relative_to(package_root)
    except ValueError:
        return "other.py_calls"
    module = ".".join(relative.with_suffix("").parts)
    layer = layer_of_module(module.removesuffix(".__init__"))
    return f"{layer}.py_calls" if layer else "other.py_calls"
