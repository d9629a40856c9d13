"""Per-request causal latency forensics: exact component decomposition.

The span tracer (:mod:`repro.sim.tracer`) answers *where time was
spent*; this module answers *why a particular request was slow*.  A
:class:`CausalTracer` streams every span begin/end on a track into a
**self-time partition**: at each event, the simulated time elapsed
since the previous event on that track is attributed to the *deepest
open span's* resource component.  When a track's root span closes, the
per-component sums telescope to exactly the root's end-to-end duration
— the **conservation invariant**::

    sum(record["components"].values()) == record["total_ns"]

holds for *every* request by construction (no sampling, no rounding),
and is pinned by ``tests/test_obs_causal.py`` and the golden smoke.

A span is the deepest open span on its track exactly during its *self
time* — its duration minus its children's — so when a request's spans
nest, its components equal the per-component sums of its spans' self
time, to the nanosecond (pinned per request for single-page reads and
writes on every interface).  Two limits: child spans that overlap (the
page reads of a multi-page request run concurrently under one parent)
are charged only while deepest, so their self times over-count while
the partition still conserves; and on track 0 a record is an episode
of interleaved background work, from the first span opening until none
is open, not one operation.

Component taxonomy (``docs/OBSERVABILITY.md``):

==============  ======================================================
component       meaning (span kinds folded in)
==============  ======================================================
host_queue      syscall + block-layer queueing (``io.submit``,
                ``os.blocklayer``)
nvme_sq         host adapter submission/completion (``nvme.sq``,
                ``ahci.*``, ``ufs.utp.*``)
hil_arb         device command fetch/arbitration/service shell
                (``nvme.cmd``, ``sata.cmd``, ``ufs.cmd``, ``hil.serve``)
icl             cache hit/miss service (``icl.read``/``icl.write``)
ftl             translation, write orchestration, host-side FTL
                (``ftl.translate``, ``ftl.write``, ``ftl.gc``,
                ``ocssd.pblk.*``)
gc_stall        blocked behind garbage collection (``ftl.gc_stall``
                inline-GC time, ``ftl.unit_wait`` unit-lock waits)
channel_wait    queueing for a contended ONFi channel
                (``flash.channel_wait``)
die_wait        queueing for a busy die (``flash.die_wait``)
die_busy        flash array service (``flash.read``/``program``/
                ``erase`` self-time)
dma             host DMA transfers (``dma.to_device``/``to_host``)
other           any span kind not mapped above (conservation is exact
                even for unknown kinds)
==============  ======================================================

Wait spans carry a ``holder`` argument — the blame label of whoever
held the contended resource when the wait began (``gc:<run>`` for a
garbage-collection run, ``ns:<nsid>`` for another tenant's namespace,
``req:<id>`` for another request, ``bg`` for background work) — so a
tail record names its specific offender.

Memory is bounded: per-request state is dropped when the root span
closes unless the request lands in the per-op **top-K min-heap** of
worst offenders (fixed ``top_k``, default 8), whose full causal chains
are capped at :data:`CHAIN_CAP` entries.  Aggregates are per-op
:class:`~repro.common.histogram.LogHistogram` objects (bounded buckets).

Capture follows the house observability contract: **zero-cost when
off** (the process-wide switch, :func:`repro.obs.runtime.enable_causal`,
is down and every simulator carries the ``NULL_TRACER``),
**bit-identical when on** (spans never schedule
events, so enabling capture cannot perturb simulated results — pinned
by the golden causal smoke in CI).
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from repro.common.histogram import LogHistogram
from repro.sim.tracer import Span, Tracer

#: the fixed component order (stable across reports and goldens)
COMPONENTS = ("host_queue", "nvme_sq", "hil_arb", "icl", "ftl", "gc_stall",
              "channel_wait", "die_wait", "die_busy", "dma", "other")

#: span kind -> component (anything unmapped falls into ``other``)
KIND_COMPONENT: Dict[str, str] = {
    "io.submit": "host_queue",
    "os.blocklayer": "host_queue",
    "nvme.sq": "nvme_sq",
    "ahci.submit": "nvme_sq",
    "ahci.complete": "nvme_sq",
    "ufs.utp.submit": "nvme_sq",
    "ufs.utp.complete": "nvme_sq",
    "nvme.cmd": "hil_arb",
    "sata.cmd": "hil_arb",
    "ufs.cmd": "hil_arb",
    "hil.serve": "hil_arb",
    "icl.read": "icl",
    "icl.write": "icl",
    "ftl.translate": "ftl",
    "ftl.write": "ftl",
    "ftl.gc": "ftl",
    "ocssd.pblk.read": "ftl",
    "ocssd.pblk.write": "ftl",
    "ocssd.pblk.trim": "ftl",
    "ftl.gc_stall": "gc_stall",
    "ftl.unit_wait": "gc_stall",
    "flash.channel_wait": "channel_wait",
    "flash.die_wait": "die_wait",
    "flash.read": "die_busy",
    "flash.program": "die_busy",
    "flash.erase": "die_busy",
    "dma.to_device": "dma",
    "dma.to_host": "dma",
}

#: span kinds whose duration is a *wait* with a ``holder`` blame edge
BLAME_KINDS = frozenset((
    "ftl.gc_stall", "ftl.unit_wait", "flash.channel_wait", "flash.die_wait"))

#: per-request causal-chain entries kept at most (fixed memory per track)
CHAIN_CAP = 512

#: distinct blame holders kept per ledger; the rest fold into "(other)"
BLAME_CAP = 256


def component_of(kind: str) -> str:
    """Map a span kind to its resource component (``other`` if unknown)."""
    return KIND_COMPONENT.get(kind, "other")


class _TrackState:
    """In-flight per-track partition state, alive root-open to root-close."""

    __slots__ = ("root", "stack", "last_ts", "parts", "chain", "dropped",
                 "blame")

    def __init__(self, root: Span, now: int) -> None:
        self.root = root
        self.stack: List[Tuple[Span, str]] = []
        self.last_ts = now
        self.parts: Dict[str, int] = {}
        self.chain: List[List] = []
        self.dropped = 0
        self.blame: Dict[str, int] = {}


class CausalTracer(Tracer):
    """A tracer that folds spans into exact causal latency records.

    Drop-in for :class:`~repro.sim.tracer.Tracer` (every instrumented
    call site keeps working, including Chrome-trace export when span
    retention is on), plus the streaming self-time partition described
    in the module docstring.  ``retain_spans=False`` (the default when
    only causal capture is armed) keeps memory bounded: span objects
    are discarded once their track's root closes.
    """

    def __init__(self, clock=None, top_k: int = 8,
                 retain_spans: bool = False) -> None:
        super().__init__(clock)
        self.top_k = top_k
        self.retain_spans = retain_spans
        self._live: Dict[int, _TrackState] = {}
        # raw track id -> stable per-tracer alias, assigned in order of
        # first appearance.  Request ids come from a process-global
        # counter, so raw ids depend on how many simulations this
        # process ran before — aliasing keeps stored records and blame
        # labels byte-identical across fleet --jobs counts.
        self._alias: Dict[int, int] = {}
        self._seq = 0
        # aggregates, all bounded: per-op counts/sums/histograms
        self.records = 0
        self.violations = 0
        self.component_ns: Dict[str, Dict[str, int]] = {}
        self.op_counts: Dict[str, int] = {}
        self.op_total_ns: Dict[str, int] = {}
        self.op_hist: Dict[str, LogHistogram] = {}
        self.comp_hist: Dict[str, Dict[str, LogHistogram]] = {}
        self.blame_ns: Dict[str, Dict[str, int]] = {}
        self._worst: Dict[str, List[Tuple[int, int, Dict]]] = {}

    # -- recording --------------------------------------------------------

    def _alias_of(self, track: int) -> int:
        """Stable process-independent alias for a raw track id."""
        if not track:
            return 0
        alias = self._alias.get(track)
        if alias is None:
            alias = self._alias[track] = len(self._alias) + 1
        return alias

    def owner_label(self, track: int) -> str:
        """Blame label for ``track``, with the request id aliased so
        labels don't leak the process-global request counter."""
        ctx = self._track_ctx.get(track)
        if ctx is not None:
            return ctx
        return f"req:{self._alias_of(track)}" if track else "bg"

    def begin(self, kind: str, track: int = 0, **args) -> Span:
        """Open a span, charging elapsed self-time to the interrupted
        parent's component first."""
        now = self._now()
        state = self._live.get(track)
        if state is None:
            span = Span(kind, track, now, parent=None, args=args or None)
            state = _TrackState(span, now)
            self._live[track] = state
            self._alias_of(track)       # pin the alias at root open
        else:
            stack = state.stack
            if stack:
                delta = now - state.last_ts
                if delta:
                    comp = stack[-1][1]
                    state.parts[comp] = state.parts.get(comp, 0) + delta
            span = Span(kind, track, now,
                        parent=stack[-1][0] if stack else state.root,
                        args=args or None)
        state.stack.append((span, component_of(kind)))
        state.last_ts = now
        if self.retain_spans:
            self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close a span: charge the open self-time slice, pop the stack,
        and finalize the track's causal record when the root closes.

        Idempotent like :meth:`Tracer.end`; the common LIFO close is
        O(1).
        """
        if span.t_end is not None:
            return
        now = self._now()
        span.t_end = now
        state = self._live.get(span.track)
        if state is None or not state.stack:
            return
        stack = state.stack
        delta = now - state.last_ts
        if delta:
            comp = stack[-1][1]
            state.parts[comp] = state.parts.get(comp, 0) + delta
        state.last_ts = now
        if stack[-1][0] is span:
            stack.pop()
        else:
            for index in range(len(stack) - 1, -1, -1):
                if stack[index][0] is span:
                    del stack[index]
                    break
            else:
                return                  # stray end: not on this track
        if span.kind in BLAME_KINDS:
            wait = span.t_end - span.t_start
            if wait:
                holder = (span.args or {}).get("holder", "?")
                blame = state.blame
                if holder not in blame and len(blame) >= BLAME_CAP:
                    holder = "(other)"
                blame[holder] = blame.get(holder, 0) + wait
        if len(state.chain) < CHAIN_CAP:
            state.chain.append([span.kind, span.t_start, span.t_end,
                                dict(span.args) if span.args else {}])
        else:
            state.dropped += 1
        if not stack:
            del self._live[span.track]
            self._track_ctx.pop(span.track, None)
            self._finalize(state, now)

    # -- finalization -----------------------------------------------------

    def _finalize(self, state: _TrackState, now: int) -> None:
        """Fold one completed track episode into the bounded aggregates."""
        root = state.root
        total = now - root.t_start
        parts_sum = sum(state.parts.values())
        if parts_sum != total:          # cannot happen: telescoping sums
            self.violations += 1
        op = (root.args or {}).get("op", root.kind)
        self.records += 1
        self._seq += 1
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        self.op_total_ns[op] = self.op_total_ns.get(op, 0) + total
        comp_ns = self.component_ns.setdefault(op, {})
        comp_hist = self.comp_hist.setdefault(op, {})
        for comp, ns in state.parts.items():
            comp_ns[comp] = comp_ns.get(comp, 0) + ns
            hist = comp_hist.get(comp)
            if hist is None:
                hist = comp_hist[comp] = LogHistogram()
            hist.record(ns)
        hist = self.op_hist.get(op)
        if hist is None:
            hist = self.op_hist[op] = LogHistogram()
        hist.record(total)
        if state.blame:
            blame = self.blame_ns.setdefault(op, {})
            for holder, ns in state.blame.items():
                if holder not in blame and len(blame) >= BLAME_CAP:
                    holder = "(other)"
                blame[holder] = blame.get(holder, 0) + ns
        heap = self._worst.setdefault(op, [])
        if len(heap) < self.top_k or total > heap[0][0]:
            record = {
                "op": op,
                "track": self._alias_of(root.track),
                "t_start": root.t_start,
                "t_end": now,
                "total_ns": total,
                "components": {c: state.parts[c] for c in sorted(state.parts)
                               if state.parts[c]},
                "blame": {h: state.blame[h] for h in sorted(state.blame)},
                "chain": state.chain,
                "chain_dropped": state.dropped,
                "args": dict(root.args) if root.args else {},
            }
            # min-heap keyed (total, -seq): ties keep the *earlier*
            # request, deterministically, whatever the insertion order
            entry = (total, -self._seq, record)
            if len(heap) < self.top_k:
                heapq.heappush(heap, entry)
            else:
                heapq.heapreplace(heap, entry)

    def register_metrics(self, registry) -> None:
        """Fold the exact per-component latency sums into a system's
        metric tree (``causal.*``), so telemetry epochs stream them.

        The registry itself is kept for end-of-run snapshots only when
        spans are retained too, i.e. while plain tracing is also on.
        """
        if self.retain_spans:
            super().register_metrics(registry)
        scope = registry.scoped("causal")
        scope.register("requests", lambda: float(self.records))
        scope.register("violations", lambda: float(self.violations))
        for component in COMPONENTS:
            scope.register(f"{component}.ns",
                           lambda c=component: float(self.component_total(c)))

    # -- queries ----------------------------------------------------------

    def component_total(self, component: str) -> int:
        """Cumulative ns attributed to one component across all ops
        (sampled by the telemetry epoch stream as ``causal.<comp>.ns``)."""
        return sum(parts.get(component, 0)
                   for parts in self.component_ns.values())

    def worst(self, op: str) -> List[Dict]:
        """The top-K worst records for one op, slowest first."""
        heap = self._worst.get(op, [])
        return [entry[2] for entry in
                sorted(heap, key=lambda e: (-e[0], e[1]))]

    def summary(self) -> Dict:
        """JSON-able, deterministic causal summary of everything seen.

        Per op: request count, exact per-component ns sums, end-to-end
        and per-component latency histograms, aggregate blame ledger and
        the worst-K records with full causal chains.  Keys are sorted so
        the encoding is byte-stable.
        """
        ops: Dict[str, Dict] = {}
        for op in sorted(self.op_counts):
            ops[op] = {
                "count": self.op_counts[op],
                "total_ns": self.op_total_ns[op],
                "components_ns": {c: self.component_ns[op][c]
                                  for c in sorted(self.component_ns.get(op, {}))},
                "latency_hist": self.op_hist[op].to_dict(),
                "component_hist": {
                    c: h.to_dict()
                    for c, h in sorted(self.comp_hist.get(op, {}).items())},
                "blame_ns": {h: ns for h, ns in
                             sorted(self.blame_ns.get(op, {}).items())},
                "worst": self.worst(op),
            }
        return {
            "label": self.label,
            "records": self.records,
            "violations": self.violations,
            "top_k": self.top_k,
            "ops": ops,
        }


def summarize(tracers: Iterable[Tracer]) -> Dict:
    """Combined summary over the causal tracers among ``tracers``.

    ``systems`` lists one :meth:`CausalTracer.summary` per causal tracer
    in the given (construction) order, labelled by the tracer's
    ``label``, which the experiments set, else ``system<i>``; top-level
    ``records``/``violations`` aggregate across them.  The process-wide
    switch that hands these tracers out is :mod:`repro.obs.runtime`.
    """
    systems = []
    causal = [tracer for tracer in tracers if isinstance(tracer, CausalTracer)]
    for index, tracer in enumerate(causal):
        doc = tracer.summary()
        if doc["label"] is None:
            doc["label"] = f"system{index}"
        systems.append(doc)
    return {
        "records": sum(doc["records"] for doc in systems),
        "violations": sum(doc["violations"] for doc in systems),
        "components": list(COMPONENTS),
        "systems": systems,
    }
