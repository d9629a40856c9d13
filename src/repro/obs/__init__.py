"""``repro.obs`` — end-to-end observability for the simulated stack.

Two substrates, documented in detail in ``docs/OBSERVABILITY.md``:

* **Tracing** (:mod:`repro.obs.tracer`): nested spans in *simulated*
  time, keyed by I/O request id, opened and closed at every layer of
  the stack (``io.submit`` -> ``os.blocklayer`` -> ``nvme.sq`` /
  ``ahci`` / ``ufs.utp`` / ``ocssd.pblk`` -> ``hil`` -> ``icl`` ->
  ``ftl`` -> ``flash``), exportable as a Chrome ``trace_event`` JSON.
* **Metrics** (:mod:`repro.obs.metrics`): one hierarchical namespace
  (``ssd.channel0.util``) unifying the previously ad-hoc counters,
  ``TimeAverage`` and ``UtilizationTracker`` instruments, exportable
  as CSV.

**Causal forensics** (:mod:`repro.obs.causal`) builds on tracing: a
:class:`CausalTracer` decomposes every request's end-to-end latency
exactly into resource components (conservation invariant: components
sum to the total), keeps bounded top-K tail captures with blame edges,
and :mod:`repro.obs.diff` explains *why two runs differ* by ranking
components against the p50/p99 delta (``fleet explain``).

A third substrate, **telemetry epochs** (:mod:`repro.obs.telemetry`),
samples every registered metric into bounded
:class:`~repro.obs.timeseries.TimeSeries` at a fixed simulated-time
period, keeps a :class:`~repro.obs.flightrec.FlightRecorder` ring of
recent events (dumped to JSON on failure), and feeds the self-contained
HTML/Markdown reports of :mod:`repro.obs.report`
(``python -m repro.experiments <fig> --report out.html``).

Tracing and telemetry are off by default and zero-cost when off:
simulators carry the shared :data:`NULL_TRACER` and a ``None`` probe
until :func:`repro.obs.runtime.enable_tracing` /
:func:`repro.obs.telemetry.enable_telemetry` are called (e.g. by
``python -m repro.experiments <fig> --trace out.json --report out.html``).

Two wall-clock substrates complete the picture (both deliberately
outside the simulated-time determinism contract): the **run journal**
(:mod:`repro.obs.journal`) streams NDJSON lifecycle events beside a
fleet result store for ``python -m repro.fleet watch``, and the
**self-profiler** (:mod:`repro.obs.profiler`) attributes host wall time
per layer (``--profile`` on the CLIs).  Both are off by default and
zero-cost when off, and neither ever perturbs simulated results.
"""

from repro.obs.causal import (
    CHAIN_CAP,
    COMPONENTS,
    KIND_COMPONENT,
    CausalTracer,
    causal_enabled,
    causal_summary,
    causal_tracer_for,
    component_of,
    disable_causal,
    enable_causal,
)
from repro.obs.diff import (
    explain,
    render_explain_html,
    render_explain_markdown,
    write_explain_report,
)
from repro.obs.export import (
    chrome_trace,
    format_breakdown,
    latency_breakdown,
    span_histograms,
    write_chrome_trace,
    write_metrics_csv,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.histogram import LogHistogram
from repro.obs.journal import (
    JOURNAL_NAME,
    RunJournal,
    active_job,
    begin_job,
    end_job,
    journal_path_for,
    wall_now,
)
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, ScopedRegistry
from repro.obs.profiler import (
    WallProfiler,
    attribution,
    attribution_markdown,
    chrome_profile_trace,
    disable_profiling,
    enable_profiling,
    hottest_layers,
    profiler_for,
    profilers,
    profiling_enabled,
    write_profile,
    write_profile_trace,
)
from repro.obs.report import gather, render_html, render_markdown, write_report
from repro.obs.runtime import (
    collect_metrics,
    disable_tracing,
    enable_tracing,
    label_latest_tracer,
    metric_snapshots,
    tracer_for,
    tracers,
    tracing_enabled,
)
from repro.obs.telemetry import (
    TelemetryProbe,
    disable_telemetry,
    enable_telemetry,
    label_latest_probe,
    probe_for,
    probes,
    telemetry_enabled,
)
from repro.obs.timeseries import TimeSeries, sparkline
from repro.obs.tracer import (
    NULL_SPAN_CONTEXT,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    merge_spans,
)

__all__ = [
    "CHAIN_CAP",
    "COMPONENTS",
    "KIND_COMPONENT",
    "CausalTracer",
    "causal_enabled",
    "causal_summary",
    "causal_tracer_for",
    "component_of",
    "disable_causal",
    "enable_causal",
    "explain",
    "render_explain_html",
    "render_explain_markdown",
    "write_explain_report",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "ScopedRegistry",
    "NullTracer",
    "NULL_SPAN_CONTEXT",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "merge_spans",
    "chrome_trace",
    "write_chrome_trace",
    "write_metrics_csv",
    "latency_breakdown",
    "format_breakdown",
    "collect_metrics",
    "disable_tracing",
    "enable_tracing",
    "label_latest_tracer",
    "metric_snapshots",
    "tracer_for",
    "tracers",
    "tracing_enabled",
    "FlightRecorder",
    "JOURNAL_NAME",
    "LogHistogram",
    "RunJournal",
    "TelemetryProbe",
    "TimeSeries",
    "WallProfiler",
    "active_job",
    "attribution",
    "attribution_markdown",
    "begin_job",
    "chrome_profile_trace",
    "disable_profiling",
    "disable_telemetry",
    "enable_profiling",
    "enable_telemetry",
    "end_job",
    "gather",
    "hottest_layers",
    "journal_path_for",
    "profiler_for",
    "profilers",
    "profiling_enabled",
    "wall_now",
    "write_profile",
    "write_profile_trace",
    "label_latest_probe",
    "probe_for",
    "probes",
    "render_html",
    "render_markdown",
    "span_histograms",
    "sparkline",
    "telemetry_enabled",
    "write_report",
]
