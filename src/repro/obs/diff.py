"""Differential run explanation: *why* do two runs have different tails?

Consumes the causal summaries (:func:`repro.obs.runtime.causal_summary`)
embedded in two result documents — normally two jobs pulled from a
fleet :class:`~repro.fleet.store.ResultStore` by ``python -m repro.fleet
explain HASH_A HASH_B`` — and produces a deterministic explain document:
per op kind, the p50/p99/mean end-to-end delta between run B and run A,
decomposed into per-component deltas **ranked by contribution to the
p99 delta** (tie-broken by mean delta, then component name).  Because
the causal components of every request sum exactly to its end-to-end
latency, the per-component *mean* deltas sum exactly to the end-to-end
mean delta — the report is a decomposition, not a correlation.

Blame ledgers ride along: the aggregate simulated time each op spent
blocked behind a specific offender (``gc:<run>``, ``ns:<nsid>``,
``req:<id>``, ``bg``), diffed the same way, so "banded placement cut
the victim's p99" comes with "because gc:* stall time fell by N µs".

Rendering is plain data -> Markdown, which
:func:`repro.common.render.write_document` also converts to one
self-contained HTML page; byte-stable for fixed inputs, which is what
lets CI ``cmp`` explain reports produced from stores built with
different ``--jobs`` counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.histogram import LogHistogram
from repro.common.render import markdown_table, write_document
from repro.obs.causal import COMPONENTS

#: scalar result keys echoed in the explain header when both runs have them
_SCALAR_KEYS = ("iops", "bandwidth_mbps", "mean_latency_us",
                "p50_latency_us", "p99_latency_us", "write_amplification",
                "fairness")


def merged_ops(causal_doc: Dict) -> Dict[str, Dict]:
    """Fold a causal summary's per-system op entries into one per-op map.

    A fleet job usually builds one simulator, but experiments like
    ``noisy_neighbor`` run several labelled systems in one process;
    merging sums counts and component ns, merges the lossless histograms
    and keeps every worst record (slowest first, deterministically).
    """
    ops: Dict[str, Dict] = {}
    for system in causal_doc.get("systems", []):
        for op, entry in system.get("ops", {}).items():
            agg = ops.get(op)
            if agg is None:
                agg = ops[op] = {
                    "count": 0, "total_ns": 0, "components_ns": {},
                    "latency_hist": LogHistogram(),
                    "component_hist": {}, "blame_ns": {}, "worst": [],
                }
            agg["count"] += entry["count"]
            agg["total_ns"] += entry["total_ns"]
            for comp, ns in entry.get("components_ns", {}).items():
                agg["components_ns"][comp] = \
                    agg["components_ns"].get(comp, 0) + ns
            agg["latency_hist"].merge(
                LogHistogram.from_dict(entry["latency_hist"]))
            for comp, encoded in entry.get("component_hist", {}).items():
                hist = agg["component_hist"].get(comp)
                if hist is None:
                    hist = agg["component_hist"][comp] = LogHistogram()
                hist.merge(LogHistogram.from_dict(encoded))
            for holder, ns in entry.get("blame_ns", {}).items():
                agg["blame_ns"][holder] = agg["blame_ns"].get(holder, 0) + ns
            agg["worst"].extend(entry.get("worst", []))
    for agg in ops.values():
        agg["worst"].sort(
            key=lambda rec: (-rec["total_ns"], rec["t_start"], rec["track"]))
    return ops


def _component_order(*maps: Dict) -> List[str]:
    """Taxonomy order first, then any unexpected components, sorted."""
    seen = set()
    for mapping in maps:
        seen.update(mapping)
    ordered = [comp for comp in COMPONENTS if comp in seen]
    ordered += sorted(seen - set(COMPONENTS))
    return ordered


def _op_delta(op: str, a: Optional[Dict], b: Optional[Dict]) -> Dict:
    """The explain entry for one op kind: end-to-end and per-component
    deltas (B minus A, ns), components ranked by |Δp99| then |Δmean|."""
    empty = {"count": 0, "total_ns": 0, "components_ns": {},
             "latency_hist": LogHistogram(), "component_hist": {},
             "blame_ns": {}, "worst": []}
    a = a or empty
    b = b or empty

    def stats(agg: Dict) -> Dict:
        hist = agg["latency_hist"]
        p50, p99 = hist.percentiles([50, 99]) if hist.count else (0.0, 0.0)
        mean = agg["total_ns"] / agg["count"] if agg["count"] else 0.0
        return {"count": agg["count"], "mean_ns": mean,
                "p50_ns": p50, "p99_ns": p99}

    sa, sb = stats(a), stats(b)
    components = []
    for comp in _component_order(a["components_ns"], b["components_ns"],
                                 a["component_hist"], b["component_hist"]):
        def side(agg: Dict, stat: Dict) -> Dict:
            mean = (agg["components_ns"].get(comp, 0) / agg["count"]
                    if agg["count"] else 0.0)
            hist = agg["component_hist"].get(comp)
            p99 = hist.percentile(99) if hist is not None and hist.count \
                else 0.0
            return {"mean_ns": mean, "p99_ns": p99}
        ca, cb = side(a, sa), side(b, sb)
        components.append({
            "component": comp,
            "a": ca, "b": cb,
            "d_mean_ns": cb["mean_ns"] - ca["mean_ns"],
            "d_p99_ns": cb["p99_ns"] - ca["p99_ns"],
        })
    components.sort(key=lambda row: (-abs(row["d_p99_ns"]),
                                     -abs(row["d_mean_ns"]),
                                     row["component"]))
    blame = {}
    for holder in sorted(set(a["blame_ns"]) | set(b["blame_ns"])):
        blame[holder] = {"a_ns": a["blame_ns"].get(holder, 0),
                         "b_ns": b["blame_ns"].get(holder, 0)}
    return {
        "op": op,
        "a": sa, "b": sb,
        "d_mean_ns": sb["mean_ns"] - sa["mean_ns"],
        "d_p50_ns": sb["p50_ns"] - sa["p50_ns"],
        "d_p99_ns": sb["p99_ns"] - sa["p99_ns"],
        "components": components,
        "blame": blame,
    }


def _run_header(doc: Dict) -> Dict:
    """The identifying bits of one result document for the report head."""
    result = doc.get("result", {})
    return {
        "config_hash": doc.get("config_hash", ""),
        "params": {key: value
                   for key, value in sorted(doc.get("params", {}).items())
                   if not isinstance(value, (list, dict))},
        "metrics": {key: result[key] for key in _SCALAR_KEYS
                    if key in result},
    }


def explain(doc_a: Dict, doc_b: Dict) -> Dict:
    """Build the explain document for two stored result documents.

    Each must be a fleet store document (``config_hash``/``params``/
    ``result``) whose result carries a ``"causal"`` summary — i.e. the
    sweep ran with ``--causal``.  Raises ``ValueError`` otherwise.  The
    output is JSON-able and deterministic for fixed inputs.
    """
    causal = []
    for doc in (doc_a, doc_b):
        payload = doc.get("result", {}).get("causal")
        if not payload:
            raise ValueError(
                f"result {doc.get('config_hash', '?')[:12]} has no causal "
                "capture; rerun the sweep with --causal")
        causal.append(payload)
    ops_a, ops_b = merged_ops(causal[0]), merged_ops(causal[1])
    ops = {op: _op_delta(op, ops_a.get(op), ops_b.get(op))
           for op in sorted(set(ops_a) | set(ops_b))}
    return {
        "schema": "repro.explain/1",
        "a": _run_header(doc_a),
        "b": _run_header(doc_b),
        "violations": {
            "a": causal[0].get("violations", 0),
            "b": causal[1].get("violations", 0)},
        "ops": ops,
    }


# -- rendering ----------------------------------------------------------------


def _us(ns: float) -> str:
    """Format a ns quantity as µs with a stable precision."""
    return f"{ns / 1000.0:.2f}"


def _signed_us(ns: float) -> str:
    """Signed µs delta (explicit ``+`` so direction is unmissable)."""
    return f"{ns / 1000.0:+.2f}"


def _axes_label(header: Dict) -> str:
    """Compact ``k=v`` summary of a run's scalar parameters."""
    params = header.get("params", {})
    return ", ".join(f"{key}={params[key]}" for key in sorted(params)) \
        or "(base)"


def render_explain_markdown(doc: Dict) -> str:
    """Render an explain document as GitHub-flavoured Markdown."""
    a, b = doc["a"], doc["b"]
    out: List[str] = [
        "# Run explain — B vs A", "",
        f"* **A** `{a['config_hash'][:12]}` — {_axes_label(a)}",
        f"* **B** `{b['config_hash'][:12]}` — {_axes_label(b)}", ""]
    metrics = sorted(set(a["metrics"]) & set(b["metrics"]))
    if metrics:
        rows = []
        for key in metrics:
            va, vb = a["metrics"][key], b["metrics"][key]
            rows.append([key, f"{va:.4g}", f"{vb:.4g}", f"{vb - va:+.4g}"])
        out += [markdown_table(["metric", "A", "B", "Δ (B−A)"], "lrrr",
                               rows), ""]
    violations = doc.get("violations", {})
    out += [f"Conservation violations: A={violations.get('a', 0)}, "
            f"B={violations.get('b', 0)} (must be 0 — every request's "
            "components sum exactly to its latency).", ""]
    for op, entry in sorted(doc["ops"].items()):
        sa, sb = entry["a"], entry["b"]
        out += [
            f"## Op `{op}`", "",
            f"{sa['count']} requests in A, {sb['count']} in B.  "
            f"Δmean {_signed_us(entry['d_mean_ns'])} µs, "
            f"Δp50 {_signed_us(entry['d_p50_ns'])} µs, "
            f"Δp99 {_signed_us(entry['d_p99_ns'])} µs.", "",
            markdown_table(
                ["component", "A mean µs", "B mean µs", "Δmean µs",
                 "A p99 µs", "B p99 µs", "Δp99 µs"], "lrrrrrr",
                [[f"`{row['component']}`",
                  _us(row["a"]["mean_ns"]), _us(row["b"]["mean_ns"]),
                  _signed_us(row["d_mean_ns"]),
                  _us(row["a"]["p99_ns"]), _us(row["b"]["p99_ns"]),
                  _signed_us(row["d_p99_ns"])]
                 for row in entry["components"]]), ""]
        if entry["blame"]:
            ranked = sorted(entry["blame"].items(),
                            key=lambda item: (-abs(item[1]["b_ns"]
                                                   - item[1]["a_ns"]),
                                              item[0]))
            out += ["Blame ledger (aggregate wait blocked behind each "
                    "offender):", "",
                    markdown_table(
                        ["offender", "A µs", "B µs", "Δ µs"], "lrrr",
                        [[f"`{holder}`", _us(sides["a_ns"]),
                          _us(sides["b_ns"]),
                          _signed_us(sides["b_ns"] - sides["a_ns"])]
                         for holder, sides in ranked]), ""]
    out.append("")
    return "\n".join(out)


def write_explain_report(path, doc: Dict) -> str:
    """Write the explain report; ``.html``/``.htm`` suffix selects HTML,
    ``.json`` the canonical document, anything else Markdown."""
    return write_document(path, render_explain_markdown(doc),
                          "Run explain — B vs A", doc)


# -- single-run causal reports (repro.experiments --explain) ------------------


def _chain_lines(record: Dict, limit: int = 12) -> List[str]:
    """Render one worst-record causal chain as indented span lines."""
    lines = [f"  * `{record['op']}` track {record['track']}: "
             f"{_us(record['total_ns'])} µs total — components "
             + ", ".join(f"`{comp}`={_us(ns)}"
                         for comp, ns in sorted(record["components"].items()))]
    for holder, ns in sorted(record.get("blame", {}).items()):
        lines.append(f"    * blocked {_us(ns)} µs behind `{holder}`")
    chain = record.get("chain", [])
    for kind, t0, t1, args in chain[:limit]:
        holder = f" holder=`{args['holder']}`" if "holder" in args else ""
        lines.append(f"    * `{kind}` [{t0}, {t1}) "
                     f"{_us(t1 - t0)} µs{holder}")
    hidden = len(chain) - limit + record.get("chain_dropped", 0)
    if hidden > 0:
        lines.append(f"    * … {hidden} more spans")
    return lines


def render_causal_markdown(summary: Dict, title: str = "Causal forensics",
                           worst: int = 3) -> str:
    """Render one process's causal summary as Markdown.

    One section per labelled system: a per-op component table (exact ns
    sums — the conservation invariant makes each row a decomposition of
    that op's total) plus the ``worst`` slowest requests with their full
    causal chains and blame edges.  When several systems were captured
    (e.g. the noisy-neighbor variants), each subsequent system is also
    diffed against the first, reusing the explain ranking.
    """
    out: List[str] = [
        f"# {title}", "",
        f"{summary.get('records', 0)} requests decomposed, "
        f"{summary.get('violations', 0)} conservation violations "
        "(must be 0).", ""]
    systems = summary.get("systems", [])
    for system in systems:
        out += [f"## System `{system['label']}`", ""]
        for op, entry in sorted(system.get("ops", {}).items()):
            mean = entry["total_ns"] / entry["count"] if entry["count"] else 0
            comps = entry.get("components_ns", {})
            rows = []
            for comp in _component_order(comps):
                ns = comps[comp]
                share = ns / entry["total_ns"] if entry["total_ns"] else 0.0
                rows.append([f"`{comp}`", _us(ns), _us(ns / entry["count"]),
                             f"{share * 100:.1f}%"])
            out += [f"### Op `{op}` — {entry['count']} requests, "
                    f"mean {_us(mean)} µs", "",
                    markdown_table(["component", "total µs", "mean µs",
                                    "share"], "lrrr", rows), ""]
            records = entry.get("worst", [])[:worst]
            if records:
                out.append(f"Worst {len(records)} of top-K tail capture:")
                out.append("")
                for record in records:
                    out.extend(_chain_lines(record))
                out.append("")
    if len(systems) > 1:
        base = systems[0]
        base_ops = merged_ops({"systems": [base]})
        for system in systems[1:]:
            out += [f"## Delta — `{system['label']}` vs `{base['label']}`",
                    ""]
            sys_ops = merged_ops({"systems": [system]})
            for op in sorted(set(base_ops) | set(sys_ops)):
                entry = _op_delta(op, base_ops.get(op), sys_ops.get(op))
                out += [
                    f"### Op `{op}`: Δmean {_signed_us(entry['d_mean_ns'])} "
                    f"µs, Δp99 {_signed_us(entry['d_p99_ns'])} µs", "",
                    markdown_table(
                        ["component", "Δmean µs", "Δp99 µs"], "lrr",
                        [[f"`{row['component']}`",
                          _signed_us(row["d_mean_ns"]),
                          _signed_us(row["d_p99_ns"])]
                         for row in entry["components"]]), ""]
    out.append("")
    return "\n".join(out)


def write_causal_report(path, summary: Dict,
                        title: str = "Causal forensics") -> str:
    """Write a single-run causal report (suffix selects the format)."""
    return write_document(path, render_causal_markdown(summary, title=title),
                          title, summary)
