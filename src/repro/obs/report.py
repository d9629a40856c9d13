"""Self-contained experiment reports (HTML or Markdown).

``write_report`` collects everything the observability runtime gathered
during a run — epoch time-series from every telemetry probe, per-layer
streaming latency histograms and the span breakdown from every tracer,
end-of-run metric snapshots — and renders one artifact with zero
external assets, suitable for CI upload or an experiment log.

The format follows the file suffix: ``.html``/``.htm`` renders inline
SVG sparklines and styled tables; anything else gets GitHub-flavoured
Markdown with unicode block sparklines.
"""

from __future__ import annotations

import html as _html
from typing import Dict, List

from repro.obs.export import format_breakdown, latency_breakdown, span_histograms
from repro.obs.histogram import LogHistogram
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
        "breakdown": latency_breakdown(spans),
        "histograms": span_histograms(spans),
        "snapshots": metric_snapshots(),
    }


# -- markdown ----------------------------------------------------------------


def _md_series_table(series_list: List[TimeSeries]) -> List[str]:
    lines = ["| metric | samples | min | max | last | trend |",
             "|---|---:|---:|---:|---:|---|"]
    for ts in series_list:
        lines.append(
            f"| `{ts.name}` | {ts.total_appends} | {ts.minimum():.4g} "
            f"| {ts.maximum():.4g} | {ts.last_value:.4g} "
            f"| `{sparkline(ts.values())}` |")
    return lines


def _md_histogram(kind: str, hist: LogHistogram) -> List[str]:
    stats = hist.summary(scale=1e-3)
    lines = [f"### `{kind}` — {hist.count} samples, "
             f"mean {stats['mean']:.1f} µs, p50 {stats['p50']:.1f} / "
             f"p95 {stats['p95']:.1f} / p99 {stats['p99']:.1f} µs "
             f"(±{hist.relative_error:.1%})", ""]
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
        out.extend(_md_series_table(system["series"]))
        out.append("")

    out.append("## Per-layer latency histograms")
    out.append("")
    if not data["histograms"]:
        out.append("_Tracing was not enabled; no span histograms._")
    for kind in sorted(data["histograms"]):
        out.extend(_md_histogram(kind, data["histograms"][kind]))
        out.append("")

    if data["breakdown"]:
        out.append("## Span latency breakdown")
        out.append("")
        out.append("```")
        out.append(format_breakdown(data["breakdown"]))
        out.append("```")
        out.append("")

    if data["snapshots"]:
        out.append("## End-of-run metric snapshots")
        out.append("")
        for label, snapshot in data["snapshots"]:
            out.append(f"<details><summary>{label} "
                       f"({len(snapshot)} metrics)</summary>")
            out.append("")
            out.append("| metric | value |")
            out.append("|---|---:|")
            for name in sorted(snapshot):
                out.append(f"| `{name}` | {snapshot[name]:.6g} |")
            out.append("")
            out.append("</details>")
            out.append("")
    return "\n".join(out) + "\n"


# -- html --------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #1a2330; }
h1 { border-bottom: 2px solid #d7dde5; padding-bottom: .3rem; }
h2 { margin-top: 2.2rem; border-bottom: 1px solid #e4e8ee; }
h3 { margin-bottom: .4rem; }
table { border-collapse: collapse; font-size: .85rem; margin: .5rem 0; }
th, td { border: 1px solid #d7dde5; padding: .2rem .55rem; text-align: right; }
th { background: #f0f3f7; }
td.name, th.name { text-align: left; font-family: ui-monospace, monospace; }
svg.spark { vertical-align: middle; }
.bar { background: #4878b8; height: .75rem; display: inline-block; }
.bucket { font-family: ui-monospace, monospace; font-size: .8rem;
          white-space: nowrap; }
pre { background: #f6f8fa; padding: .8rem; overflow-x: auto; }
details { margin: .6rem 0; }
.note { color: #5a6778; }
"""


def _svg_spark(values: List[float], width: int = 220, height: int = 34) -> str:
    if not values:
        return ""
    if len(values) == 1:
        values = values * 2
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    pts = " ".join(
        f"{i * width / (n - 1):.1f},"
        f"{height - 2 - (v - lo) / span * (height - 4):.1f}"
        for i, v in enumerate(values))
    return (f'<svg class="spark" width="{width}" height="{height}">'
            f'<polyline fill="none" stroke="#4878b8" stroke-width="1.5" '
            f'points="{pts}"/></svg>')


def _html_series_table(series_list: List[TimeSeries]) -> List[str]:
    rows = ['<table><tr><th class="name">metric</th><th>samples</th>'
            '<th>min</th><th>max</th><th>last</th><th>trend</th></tr>']
    for ts in series_list:
        rows.append(
            f'<tr><td class="name">{_html.escape(ts.name)}</td>'
            f"<td>{ts.total_appends}</td><td>{ts.minimum():.4g}</td>"
            f"<td>{ts.maximum():.4g}</td><td>{ts.last_value:.4g}</td>"
            f"<td>{_svg_spark(ts.values())}</td></tr>")
    rows.append("</table>")
    return rows


def _html_histogram(kind: str, hist: LogHistogram) -> List[str]:
    stats = hist.summary(scale=1e-3)
    out = [f"<h3>{_html.escape(kind)}</h3>",
           f'<p class="note">{hist.count} samples — mean '
           f"{stats['mean']:.1f} µs, p50 {stats['p50']:.1f} / "
           f"p95 {stats['p95']:.1f} / p99 {stats['p99']:.1f} µs "
           f"(±{hist.relative_error:.1%} bucket error)</p>",
           "<table><tr><th>bucket (µs)</th><th>count</th>"
           '<th style="text-align:left">share</th></tr>']
    peak = max((n for _lo, _hi, n in hist.buckets()), default=1)
    for lo, hi, n in hist.buckets():
        width = max(1, round(n / peak * 240))
        out.append(
            f'<tr><td class="bucket">[{lo / 1000.0:.1f}, {hi / 1000.0:.1f})'
            f'</td><td>{n}</td><td style="text-align:left">'
            f'<span class="bar" style="width:{width}px"></span></td></tr>')
    out.append("</table>")
    return out


def render_html(data: Dict) -> str:
    """Render the data model as one self-contained HTML page."""
    out = ["<!doctype html>", '<html lang="en"><head>',
           '<meta charset="utf-8">',
           f"<title>{_html.escape(data['title'])}</title>",
           f"<style>{_CSS}</style></head><body>",
           f"<h1>{_html.escape(data['title'])}</h1>",
           '<p class="note">Generated by <code>repro.obs</code> telemetry '
           "(docs/OBSERVABILITY.md).</p>"]

    out.append("<h2>Epoch time-series</h2>")
    if not data["systems"]:
        out.append('<p class="note">Telemetry was not enabled; '
                   "no epoch samples.</p>")
    for system in data["systems"]:
        out.append(f"<h3>{_html.escape(system['label'])}</h3>")
        out.append(f'<p class="note">epoch '
                   f"{system['epoch_ns'] / 1000.0:.1f} µs, "
                   f"{system['epochs_sampled']} epochs sampled</p>")
        out.extend(_html_series_table(system["series"]))

    out.append("<h2>Per-layer latency histograms</h2>")
    if not data["histograms"]:
        out.append('<p class="note">Tracing was not enabled; '
                   "no span histograms.</p>")
    for kind in sorted(data["histograms"]):
        out.extend(_html_histogram(kind, data["histograms"][kind]))

    if data["breakdown"]:
        out.append("<h2>Span latency breakdown</h2>")
        out.append(f"<pre>{_html.escape(format_breakdown(data['breakdown']))}"
                   "</pre>")

    if data["snapshots"]:
        out.append("<h2>End-of-run metric snapshots</h2>")
        for label, snapshot in data["snapshots"]:
            out.append(f"<details><summary>{_html.escape(label)} "
                       f"({len(snapshot)} metrics)</summary>")
            out.append('<table><tr><th class="name">metric</th>'
                       "<th>value</th></tr>")
            for name in sorted(snapshot):
                out.append(f'<tr><td class="name">{_html.escape(name)}</td>'
                           f"<td>{snapshot[name]:.6g}</td></tr>")
            out.append("</table></details>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def write_report(path: str, title: str = "Simulation run report") -> str:
    """Gather and write the report; format follows the file suffix."""
    data = gather(title)
    text = (render_html(data) if path.lower().endswith((".html", ".htm"))
            else render_markdown(data))
    with open(path, "w") as fh:
        fh.write(text)
    return path
