"""Self-contained experiment reports (Markdown, or the same as HTML).

``write_report`` collects everything the observability runtime gathered
during a run — epoch time-series from every telemetry probe, one
streaming latency histogram per span kind over every tracer, and the
end-of-run metric snapshot of every traced system — and renders one
artifact with zero external assets, suitable for CI upload or an
experiment log.

The report is GitHub-flavoured Markdown with unicode block sparklines
and text histogram bars; a ``.html``/``.htm`` path gets that Markdown
converted to one page (:func:`repro.common.render.write_document`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.histogram import LogHistogram
from repro.common.render import markdown_table, write_document
from repro.obs.export import span_histograms
from repro.obs.timeseries import TimeSeries, sparkline
from repro.sim.tracer import merge_spans


def gather(title: str) -> Dict:
    """Assemble the report's data model from the runtime collectors."""
    from repro.obs.runtime import metric_snapshots, tracers
    from repro.obs.telemetry import probes

    spans = merge_spans(tracers())
    systems = []
    for probe in probes():
        systems.append({
            "label": probe.label,
            "epoch_ns": probe.epoch_ns,
            "epochs_sampled": probe.epochs_sampled,
            "series": [probe.series[name]
                       for name in sorted(probe.series)],
        })
    return {
        "title": title,
        "systems": systems,
        "histograms": span_histograms(spans),
        "snapshots": metric_snapshots(),
    }


def _md_series_table(series_list: List[TimeSeries]) -> str:
    return markdown_table(
        ["metric", "samples", "min", "max", "last", "trend"], "lrrrrl",
        [[f"`{ts.name}`", ts.total_appends, f"{ts.minimum():.4g}",
          f"{ts.maximum():.4g}", f"{ts.last_value:.4g}",
          f"`{sparkline(ts.values())}`"] for ts in series_list])


def _md_histogram(kind: str, hist: LogHistogram) -> List[str]:
    stats = hist.summary(scale=1e-3)
    lines = [f"### `{kind}` — {hist.count} samples, "
             f"mean {stats['mean']:.1f} µs, p50 {stats['p50']:.1f} / "
             f"p95 {stats['p95']:.1f} / p99 {stats['p99']:.1f} µs "
             f"(±{hist.relative_error:.1%} bucket error)", ""]
    peak = max((n for _lo, _hi, n in hist.buckets()), default=1)
    lines.append("```")
    for lo, hi, n in hist.buckets():
        bar = "█" * max(1, round(n / peak * 40))
        lines.append(f"[{lo / 1000.0:>9.1f}, {hi / 1000.0:>9.1f}) µs "
                     f"{n:>8d} {bar}")
    lines.append("```")
    return lines


def render_markdown(data: Dict) -> str:
    """Render the data model as GitHub-flavoured Markdown."""
    out: List[str] = [f"# {data['title']}", "",
                      "Generated by `repro.obs` telemetry "
                      "(`docs/OBSERVABILITY.md`).", ""]

    out.append("## Epoch time-series")
    out.append("")
    if not data["systems"]:
        out.append("_Telemetry was not enabled; no epoch samples._")
    for system in data["systems"]:
        out.append(f"### {system['label']} — epoch "
                   f"{system['epoch_ns'] / 1000.0:.1f} µs, "
                   f"{system['epochs_sampled']} epochs sampled")
        out.append("")
        out.append(_md_series_table(system["series"]))
        out.append("")

    out.append("## Per-layer latency histograms")
    out.append("")
    if not data["histograms"]:
        out.append("_Tracing was not enabled; no span histograms._")
    for kind in sorted(data["histograms"]):
        out.extend(_md_histogram(kind, data["histograms"][kind]))
        out.append("")

    if data["snapshots"]:
        out.append("## End-of-run metric snapshots")
        out.append("")
        for label, snapshot in data["snapshots"]:
            out.append(f"<details><summary>{label} "
                       f"({len(snapshot)} metrics)</summary>")
            out.append("")
            out.append(markdown_table(
                ["metric", "value"], "lr",
                [[f"`{name}`", f"{snapshot[name]:.6g}"]
                 for name in sorted(snapshot)]))
            out.append("")
            out.append("</details>")
            out.append("")
    return "\n".join(out) + "\n"


def write_report(path: str, title: str = "Simulation run report") -> str:
    """Gather and write the report; the file suffix picks Markdown or HTML."""
    write_document(path, render_markdown(gather(title)), title)
    return path
