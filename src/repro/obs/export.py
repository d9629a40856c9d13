"""Exporters for traces and metrics.

Three output shapes:

* :func:`write_chrome_trace` — Chrome ``trace_event`` JSON, loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  Each
  simulator becomes a *process* row and each request id a *thread* row,
  so one horizontal lane shows a request's full hostos -> interface ->
  firmware -> flash lifetime.
* :func:`span_histograms` / :func:`format_span_histograms` — one
  streaming histogram per span kind and its count, mean, p50/p95/p99
  and max table, the "where did the time go" summary.
* metrics CSV via :meth:`repro.common.metrics.MetricsRegistry.to_csv` and
  :func:`write_metrics_csv` for merged multi-system snapshots.

Simulated time is integer nanoseconds; the Chrome format counts in
microseconds, so timestamps are exported as fractional µs.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.common.histogram import LogHistogram
from repro.common.render import format_table
from repro.sim.tracer import Span, Tracer


def chrome_trace_events(spans: Iterable[Span], pid: int = 0) -> List[dict]:
    """Convert spans to Chrome ``trace_event`` "complete" (``X``) events."""
    events = []
    for span in spans:
        end = span.t_end if span.t_end is not None else span.t_start
        event = {
            "name": span.kind,
            "cat": span.kind.split(".", 1)[0],
            "ph": "X",
            "ts": span.t_start / 1000.0,
            "dur": (end - span.t_start) / 1000.0,
            "pid": pid,
            "tid": span.track,
        }
        if span.args:
            event["args"] = {k: str(v) for k, v in span.args.items()}
        events.append(event)
    return events


def chrome_trace(tracers: Sequence[Tracer]) -> dict:
    """Build the top-level Chrome trace object for several tracers.

    Each tracer (one per simulated system) gets its own ``pid`` plus a
    metadata record naming it, so multi-system experiment sweeps stay
    navigable in the viewer.
    """
    events: List[dict] = []
    for pid, tracer in enumerate(tracers):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": tracer.label or f"system{pid}"},
        })
        events.extend(chrome_trace_events(tracer.spans, pid=pid))
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path: str, tracers: Sequence[Tracer]) -> int:
    """Write a Chrome trace JSON file; returns the number of span events."""
    trace = chrome_trace(tracers)
    with open(path, "w") as fh:
        json.dump(trace, fh)
    return sum(1 for ev in trace["traceEvents"] if ev["ph"] == "X")


def span_histograms(spans: Iterable[Span],
                    subbuckets: int = 16) -> Dict[str, LogHistogram]:
    """Per-span-kind streaming histograms over closed-span durations.

    The one per-kind summary of spans: ``--trace`` prints it
    (:func:`format_span_histograms`) and the run report draws one
    histogram per kind.  It is mergeable and keeps no raw samples.
    """
    by_kind: Dict[str, LogHistogram] = {}
    for span in spans:
        if span.t_end is not None and span.kind != "null":
            hist = by_kind.get(span.kind)
            if hist is None:
                hist = by_kind[span.kind] = LogHistogram(subbuckets)
            hist.record(span.duration)
    return by_kind


def format_span_histograms(histograms: Dict[str, LogHistogram]) -> str:
    """Render :func:`span_histograms` as an aligned text table, one row
    per kind in µs: exact count, mean and max, and p50/p95/p99 within
    the histograms' bucket error."""
    rows = []
    for kind in sorted(histograms):
        stats = histograms[kind].summary(scale=1e-3)
        rows.append([kind, f"{stats['count']:.0f}"]
                    + [f"{stats[key]:.1f}"
                       for key in ("mean", "p50", "p95", "p99", "max")])
    return format_table(("span", "count", "mean_us", "p50_us", "p95_us",
                         "p99_us", "max_us"), rows)


def write_metrics_csv(path: str,
                      snapshots: Sequence[Tuple[str, Dict[str, float]]]) -> int:
    """Write labelled metric snapshots as ``system,metric,value`` CSV.

    ``snapshots`` is a sequence of ``(label, snapshot_dict)`` pairs, one
    per simulated system; returns the number of rows written.
    """
    rows = 0
    with open(path, "w") as fh:
        fh.write("system,metric,value\n")
        for label, snapshot in snapshots:
            for name in sorted(snapshot):
                fh.write(f"{label},{name},{snapshot[name]:.10g}\n")
                rows += 1
    return rows
