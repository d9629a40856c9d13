"""Span-based tracing in simulated time.

A :class:`Tracer` records nested spans — named intervals of simulated
time such as ``io.submit`` or ``flash.read`` — keyed by a *track*
(normally the :class:`~repro.common.iorequest.IORequest` id; track 0 is
reserved for background work like GC and cache flushing).  Spans never
consume simulated time, so enabling tracing cannot perturb results.

The kernel owns this module, which imports no other ``repro`` module:
every :class:`~repro.sim.Simulator` starts with :data:`NULL_TRACER`,
and only a tracer factory installed from above (``repro.obs.runtime``,
while tracing or causal capture is on) hands it a live one.  The null
tracer's operations are no-ops returning shared singletons, so the
instrumented hot paths cost one attribute lookup and one
trivially-inlined call.  Span-creation sites therefore read::

    with self.sim.tracer.span("ftl.translate", track):
        yield from ...          # simulated work being measured

or, for spans that close in a different process, the explicit form::

    tr = self.sim.tracer
    if tr.enabled:
        span = tr.begin("os.blocklayer", req.req_id)
        done_event.add_callback(lambda _ev: tr.end(span))
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class Span:
    """One named interval of simulated time on a track.

    ``t_end`` is ``None`` while the span is still open; ``parent`` links
    to the innermost span open on the same track when this one began.
    """

    __slots__ = ("kind", "track", "t_start", "t_end", "parent", "args")

    def __init__(self, kind: str, track: int, t_start: int,
                 parent: Optional["Span"] = None,
                 args: Optional[dict] = None) -> None:
        self.kind = kind
        self.track = track
        self.t_start = t_start
        self.t_end: Optional[int] = None
        self.parent = parent
        self.args = args

    @property
    def duration(self) -> int:
        """Span length in simulated ns (0 while the span is open)."""
        return (self.t_end - self.t_start) if self.t_end is not None else 0

    @property
    def depth(self) -> int:
        """Nesting depth on the span's track (0 = top level)."""
        depth, node = 0, self.parent
        while node is not None:
            depth, node = depth + 1, node.parent
        return depth

    def __repr__(self) -> str:
        end = self.t_end if self.t_end is not None else "…"
        return f"Span({self.kind} track={self.track} [{self.t_start}, {end}))"


class _SpanContext:
    """Context manager that opens a span on entry and closes it on exit."""

    __slots__ = ("_tracer", "_kind", "_track", "_args", "_span")

    def __init__(self, tracer: "Tracer", kind: str, track: int,
                 args: Optional[dict]) -> None:
        self._tracer = tracer
        self._kind = kind
        self._track = track
        self._args = args
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer.begin(self._kind, self._track,
                                        **(self._args or {}))
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.end(self._span)
        return False


class Tracer:
    """Records spans against a simulated clock.

    The clock is any object with a ``now`` attribute (in practice the
    :class:`~repro.sim.Simulator` the tracer is attached to).  Parent
    attribution uses a per-track stack of open spans, which is exact for
    the common sequential request path and a best-effort approximation
    when concurrent sub-operations of one request interleave.
    """

    enabled = True

    def __init__(self, clock=None) -> None:
        self.clock = clock
        #: display name of the simulated system (set by experiments)
        self.label: Optional[str] = None
        #: the system's metric registry, kept for end-of-run snapshots
        self.metrics = None
        self.spans: List[Span] = []
        self._open: Dict[int, List[Span]] = {}
        self._track_ctx: Dict[int, str] = {}

    # -- recording --------------------------------------------------------

    def _now(self) -> int:
        return self.clock.now if self.clock is not None else 0

    def begin(self, kind: str, track: int = 0, **args) -> Span:
        """Open a span; it nests under the track's innermost open span."""
        stack = self._open.setdefault(track, [])
        span = Span(kind, track, self._now(),
                    parent=stack[-1] if stack else None,
                    args=args or None)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close a span at the current simulated time.

        Closing is **idempotent**: a second ``end()`` on an already-closed
        span is a no-op (the pinned choice — re-stamping ``t_end`` would
        let a stray completion callback silently rewrite history, see
        ``tests/test_obs_tracing.py``).  The common LIFO close pops the
        track stack in O(1); only the rare out-of-order close (a parent
        ended before its child) pays the O(n) middle removal.
        """
        if span.t_end is not None:
            return
        span.t_end = self._now()
        stack = self._open.get(span.track)
        if not stack:
            return
        if stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def span(self, kind: str, track: int = 0, **args) -> _SpanContext:
        """Context manager wrapping :meth:`begin`/:meth:`end`."""
        return _SpanContext(self, kind, track, args or None)

    # -- blame context -----------------------------------------------------

    def annotate_track(self, track: int, ctx: str) -> None:
        """Attach a context label to a track (e.g. ``ns:2`` for an NVMe
        namespace), used by wait-span blame edges instead of the bare
        request id.  Call sites guard on :attr:`enabled`."""
        self._track_ctx[track] = ctx

    def owner_label(self, track: int) -> str:
        """Blame label for work running on ``track``: the annotation set
        by :meth:`annotate_track`, else ``req:<track>``, else ``bg`` for
        the background lane (track 0)."""
        ctx = self._track_ctx.get(track)
        if ctx is not None:
            return ctx
        return f"req:{track}" if track else "bg"

    def register_metrics(self, registry) -> None:
        """Keep the system's metric registry, which ``repro.obs.runtime``
        snapshots at export; the causal tracer also adds its gauges."""
        self.metrics = registry

    # -- queries ----------------------------------------------------------

    def kinds(self) -> List[str]:
        """Distinct span kinds recorded so far, sorted."""
        return sorted({span.kind for span in self.spans})

    def by_track(self, track: int) -> List[Span]:
        """All spans on one track, in begin order."""
        return [span for span in self.spans if span.track == track]

    def by_kind(self, kind: str) -> List[Span]:
        """All spans of one kind, in begin order."""
        return [span for span in self.spans if span.kind == kind]

    def durations(self, kind: str) -> List[int]:
        """Durations (ns) of every closed span of ``kind``."""
        return [span.duration for span in self.spans
                if span.kind == kind and span.t_end is not None]


class _NullSpanContext:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer(Tracer):
    """The disabled tracer: records nothing, allocates nothing per call."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=None)

    def begin(self, kind: str, track: int = 0, **args) -> Span:
        """No-op; returns the shared null span."""
        return NULL_SPAN

    def end(self, span: Span) -> None:
        """No-op."""

    def span(self, kind: str, track: int = 0, **args) -> _NullSpanContext:
        """No-op; returns the shared null context manager."""
        return _NULL_CONTEXT

    def register_metrics(self, registry) -> None:
        """No-op: the shared null tracer keeps no system's registry."""


#: Shared placeholder span handed out by the disabled tracer.
NULL_SPAN = Span("null", 0, 0)
NULL_SPAN.t_end = 0

_NULL_CONTEXT = _NullSpanContext()

#: Public no-op context for hot-path ``tracer.enabled`` guards:
#: ``with tracer.span(...) if tracer.enabled else NULL_SPAN_CONTEXT:``
#: skips even the kwargs construction of the span() call when disabled.
NULL_SPAN_CONTEXT = _NULL_CONTEXT

#: The process-wide disabled tracer every Simulator starts with.
NULL_TRACER = NullTracer()


def merge_spans(tracers: Iterable[Tracer]) -> List[Span]:
    """Flatten the spans of several tracers into one list."""
    merged: List[Span] = []
    for tracer in tracers:
        merged.extend(tracer.spans)
    return merged
