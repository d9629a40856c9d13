"""Merged fleet reports: one artifact summarizing a whole sweep.

``merge_results`` folds every stored job of a sweep into a single
document: a fleet-wide latency histogram (each job's streaming
``LogHistogram`` merges losslessly — no raw samples were ever kept),
p50/p99 tables per axis value, and a per-job row table.  Jobs are read
in sorted-config-hash order and axis groups in spec order, so the
merged document — and both rendered forms — are byte-identical no
matter how many workers produced the store or in which order they
finished (the golden test in ``tests/test_fleet.py`` pins this).

Sparkline trends across big sweeps go through
:class:`repro.obs.timeseries.TimeSeries`, whose deterministic
decimation bounds the points kept per curve, so a 10 000-job sweep
renders the same size report as a 10-job one.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.experiments.golden import canonicalize
from repro.fleet.spec import SweepSpec
from repro.fleet.store import ResultStore
from repro.obs.causal import COMPONENTS
from repro.obs.diff import markdown_to_html, merged_ops
from repro.obs.histogram import LogHistogram
from repro.obs.timeseries import TimeSeries, sparkline

#: scalar metrics surfaced in the per-job and per-group tables
_METRIC_KEYS = ("bandwidth_mbps", "iops", "p50_latency_us", "p99_latency_us")


def _merged_histogram(results: List[Dict]) -> Optional[LogHistogram]:
    """Merge every job's stored latency histogram; None when absent."""
    merged: Optional[LogHistogram] = None
    for result in results:
        encoded = result.get("latency_hist")
        if not encoded:
            continue
        hist = LogHistogram.from_dict(encoded)
        if merged is None:
            merged = hist
        else:
            merged.merge(hist)
    return merged


def _merged_causal(results: List[Dict]) -> Optional[Dict]:
    """Fold embedded causal summaries into per-op component sums.

    Returns ``{op: {count, total_ns, components_ns}}`` across every job
    that ran with ``--causal`` (None when none did).  Because each
    request's components sum exactly to its latency, the folded sums
    remain an exact decomposition of the fleet-wide total.
    """
    combined: Dict[str, Dict] = {}
    seen = False
    for result in results:
        payload = result.get("causal")
        if not payload:
            continue
        seen = True
        for op, agg in merged_ops(payload).items():
            entry = combined.setdefault(
                op, {"count": 0, "total_ns": 0, "components_ns": {}})
            entry["count"] += agg["count"]
            entry["total_ns"] += agg["total_ns"]
            for comp, ns in agg["components_ns"].items():
                entry["components_ns"][comp] = \
                    entry["components_ns"].get(comp, 0) + ns
    return combined if seen else None


def _trend(values: List[float], name: str) -> str:
    """Bounded sparkline over per-job values (TimeSeries decimation)."""
    series = TimeSeries(name, max_points=64)
    for index, value in enumerate(values):
        series.append(index, value)
    return sparkline(series.values())


def merge_results(spec: SweepSpec, store: ResultStore) -> Dict:
    """Fold a sweep's stored results into one report document."""
    planned = sorted(spec.expand(), key=lambda job: job.config_hash)
    rows: List[Dict] = []
    missing: List[str] = []
    for job in planned:
        doc = store.get(job.config_hash)
        if doc is None:
            missing.append(job.config_hash)
            continue
        result = doc["result"]
        row = {"config_hash": job.config_hash,
               "axes": {axis: job.params[axis] for axis in sorted(spec.axes)
                        if axis in job.params},
               "metrics": {key: result[key] for key in _METRIC_KEYS
                           if key in result},
               "result": result}
        rows.append(row)

    fleet_hist = _merged_histogram([row["result"] for row in rows])
    groups: List[Dict] = []
    for axis in sorted(spec.axes):
        for value in spec.axes[axis]:
            members = [row for row in rows if row["axes"].get(axis) == value]
            if not members:
                continue
            group_hist = _merged_histogram(
                [row["result"] for row in members])
            entry: Dict = {"axis": axis, "value": value,
                           "jobs": len(members)}
            bandwidths = [row["metrics"]["bandwidth_mbps"]
                          for row in members
                          if "bandwidth_mbps" in row["metrics"]]
            if bandwidths:
                entry["mean_bandwidth_mbps"] = \
                    sum(bandwidths) / len(bandwidths)
            if group_hist is not None:
                entry["latency"] = group_hist.summary(scale=1e-3)
            groups.append(entry)

    doc = {
        "spec": spec.to_dict(),
        "planned": len(planned),
        "merged": len(rows),
        "missing": missing,
        "jobs": [{key: row[key] for key in ("config_hash", "axes", "metrics")}
                 for row in rows],
        "groups": groups,
    }
    if fleet_hist is not None:
        doc["fleet_latency"] = fleet_hist.summary(scale=1e-3)
        doc["fleet_hist"] = fleet_hist.to_dict()
    causal = _merged_causal([row["result"] for row in rows])
    if causal is not None:
        doc["causal_components"] = causal
    return canonicalize(doc)


def merged_json(doc: Dict) -> str:
    """The merged document as canonical JSON text (byte-stable)."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# -- markdown -----------------------------------------------------------------


def _axis_label(axes: Dict) -> str:
    """Render a job's axis assignment as a stable ``k=v, k=v`` label."""
    return ", ".join(f"{axis}={axes[axis]}" for axis in sorted(axes)) \
        or "(base)"


def _fmt(value) -> str:
    """Format one table cell: floats to 4 significant digits."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_markdown(doc: Dict) -> str:
    """Render the merged document as GitHub-flavoured Markdown."""
    spec = doc["spec"]
    out: List[str] = [
        f"# Fleet report — sweep `{spec['name']}`", "",
        f"Scenario `{spec['scenario']}`, {doc['merged']}/{doc['planned']} "
        "configurations merged"
        + (f" ({len(doc['missing'])} missing)" if doc["missing"] else "")
        + ".  Generated by `repro.fleet` (`docs/FLEET.md`).", ""]

    if "fleet_latency" in doc:
        lat = doc["fleet_latency"]
        out += ["## Fleet-wide latency (all jobs merged)", "",
                "| samples | mean µs | p50 µs | p95 µs | p99 µs | max µs |",
                "|---:|---:|---:|---:|---:|---:|",
                f"| {lat['count']:.0f} | {lat['mean']:.1f} "
                f"| {lat['p50']:.1f} | {lat['p95']:.1f} "
                f"| {lat['p99']:.1f} | {lat['max']:.1f} |", ""]

    if "causal_components" in doc:
        out += ["## Causal components (all jobs merged)", "",
                "| op | component | total µs | mean µs | share |",
                "|---|---|---:|---:|---:|"]
        for op in sorted(doc["causal_components"]):
            entry = doc["causal_components"][op]
            comps = entry["components_ns"]
            ordered = [c for c in COMPONENTS if c in comps] \
                + sorted(set(comps) - set(COMPONENTS))
            for comp in ordered:
                ns = comps[comp]
                share = ns / entry["total_ns"] if entry["total_ns"] else 0.0
                out.append(
                    f"| `{op}` | `{comp}` | {ns / 1000.0:.1f} "
                    f"| {ns / 1000.0 / entry['count']:.2f} "
                    f"| {share * 100:.1f}% |")
        out.append("")

    if doc["groups"]:
        out += ["## Per-axis aggregates", "",
                "| axis | value | jobs | mean MB/s | p50 µs | p99 µs |",
                "|---|---:|---:|---:|---:|---:|"]
        for group in doc["groups"]:
            lat = group.get("latency", {})
            out.append(
                f"| `{group['axis']}` | {_fmt(group['value'])} "
                f"| {group['jobs']} "
                f"| {_fmt(group.get('mean_bandwidth_mbps', ''))} "
                f"| {lat.get('p50', 0.0):.1f} | {lat.get('p99', 0.0):.1f} |")
        out.append("")
        for axis in sorted({g["axis"] for g in doc["groups"]}):
            curve = [g.get("mean_bandwidth_mbps", 0.0)
                     for g in doc["groups"] if g["axis"] == axis]
            if any(curve):
                out.append(f"* `{axis}` bandwidth trend: "
                           f"`{_trend(curve, axis)}`")
        out.append("")

    out += ["## Per-job results", "",
            "| config | axes | MB/s | IOPS | p50 µs | p99 µs |",
            "|---|---|---:|---:|---:|---:|"]
    for row in doc["jobs"]:
        metrics = row["metrics"]
        out.append(
            f"| `{row['config_hash'][:12]}` | {_axis_label(row['axes'])} "
            f"| {_fmt(metrics.get('bandwidth_mbps', ''))} "
            f"| {_fmt(metrics.get('iops', ''))} "
            f"| {_fmt(metrics.get('p50_latency_us', ''))} "
            f"| {_fmt(metrics.get('p99_latency_us', ''))} |")
    if doc["missing"]:
        out += ["", "## Missing configurations", ""]
        out += [f"* `{job_hash}`" for job_hash in doc["missing"]]
    out.append("")
    return "\n".join(out)


# -- html ---------------------------------------------------------------------

def render_html(doc: Dict) -> str:
    """Render the merged document as one self-contained HTML page."""
    return markdown_to_html(render_markdown(doc),
                            f"Fleet report — {doc['spec']['name']}")


def write_fleet_report(path, doc: Dict) -> str:
    """Write the report; format follows the suffix (.html/.htm = HTML)."""
    text = render_html(doc) if str(path).lower().endswith((".html", ".htm")) \
        else render_markdown(doc)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
