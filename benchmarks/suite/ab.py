"""Interleaved A/B: ``python -m benchmarks.suite --ab REF``.

REF's ``src/`` is exported with ``git archive`` into a temporary
directory and removed afterwards; both sides run this tree's benchmark
code, one plain repeat per side per pair, alternating which side goes
first.  Per workload and end-to-end metric the report gives each side's
median and quartiles, the change's win fraction, and a verdict:

* ``better``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
* ``unresolved``: the parent's own spread (IQR / median) exceeds the
  metric's bound, and not every change run beats every parent run;
* ``worse``: the change's median exceeds the parent's by more than the
  bound;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.suite.runner import (
    ROOT,
    SRC,
    git,
    provenance,
    run_worker,
    summarize,
    write_record,
)

WIN_SHARE = 0.9


def export_src(ref: str, dest: Path) -> Path:
    """Extract REF's ``src/`` under ``dest``; returns the new ``src``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref, "src"],
                             cwd=ROOT, capture_output=True, check=True,
                             timeout=120).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # interpreters older than the extraction filters
            tar.extractall(dest)
    return dest / "src"


def verdict(parent: Sequence[float], change: Sequence[float],
            bound: float) -> Dict:
    """Compare paired samples of a lower-is-better metric."""
    parent_stats, change_stats = summarize(parent), summarize(change)
    iqr = parent_stats["p75"] - parent_stats["p25"]
    wins = sum(c < p for p, c in zip(parent, change))
    share = wins / len(parent)
    p_med, c_med = parent_stats["median"], change_stats["median"]
    if share >= WIN_SHARE and p_med - c_med > iqr:
        outcome = "better"
    elif iqr / p_med > bound and not max(change) < min(parent):
        outcome = "unresolved"
    elif c_med > p_med * (1 + bound):
        outcome = "worse"
    else:
        outcome = "within bound"
    return {"parent": parent_stats, "change": change_stats,
            "win_share": share, "verdict": outcome}


def run_ab(ref: str, names: List[str], seed: int, pairs: int, spec: Dict,
           record_path: Optional[Path]) -> int:
    """Run ``pairs`` interleaved pairs per workload and print verdicts."""
    samples: Dict[str, Dict[str, List[Dict]]] = {
        name: {"parent": [], "change": []} for name in names}
    with tempfile.TemporaryDirectory(prefix="suite-ab-") as tmp:
        try:
            trees = {"parent": export_src(ref, Path(tmp)), "change": SRC}
        except (subprocess.CalledProcessError, OSError) as exc:
            print(f"error: cannot export src/ at {ref!r}: {exc}",
                  file=sys.stderr)
            return 2
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 \
                else ("change", "parent")
            for name in names:
                for side in order:
                    samples[name][side].append(
                        run_worker(name, seed, "plain", src=trees[side]))
    report: Dict = {}
    failed = 0
    print(f"A/B: parent = {ref}, change = working tree; {pairs} pairs, "
          f"seed {seed}")
    for name in names:
        sides = samples[name]
        bad = [r for side in sides.values() for r in side
               if "error" in r or r["violations"]]
        failed += len(bad)
        digests = {side: {r.get("digest") for r in runs}
                   for side, runs in sides.items()}
        same = digests["parent"] == digests["change"] \
            and len(digests["parent"]) == 1
        report[name] = {"simulated_identical": same, "failed": len(bad),
                        "metrics": {}}
        print(f"\n== {name}: simulated results "
              f"{'identical' if same else 'DIFFER'}; {len(bad)} failed")
        if bad:
            continue
        print(f"   {'metric':<12} {'parent median [p25, p75]':<34} "
              f"{'change median [p25, p75]':<34} wins  verdict")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            result = verdict([r[key] for r in sides["parent"]],
                             [r[key] for r in sides["change"]],
                             metric["bound"])
            report[name]["metrics"][key] = result
            cells = [f"{s['median']:.5g} [{s['p25']:.5g}, {s['p75']:.5g}]"
                     for s in (result["parent"], result["change"])]
            print(f"   {key:<12} {cells[0]:<34} {cells[1]:<34} "
                  f"{result['win_share']:.0%}  {result['verdict']}")
    path = write_record(record_path, {
        "schema": 1, "kind": "ab", "provenance": provenance(), "ref": ref,
        "ref_rev": git("rev-parse", ref), "seed": seed, "pairs": pairs,
        "samples": samples, "report": report})
    print(f"\nrecord -> {path}")
    print(json.dumps({"failed": failed, "verdicts": {
        name: {key: result["verdict"]
               for key, result in entry["metrics"].items()}
        for name, entry in report.items()}}))
    return 0 if failed == 0 else 1
