"""Run the benchmark suite: ``python -m benchmarks.suite``.

Examples::

    # the default set: 4 workloads x 5 repeats, round-robin (~3 min)
    python -m benchmarks.suite

    # per-layer numbers: adds one traced and one counted repeat each
    python -m benchmarks.suite --trace

    # one workload, repeated for about 20 s, per-layer metrics
    python -m benchmarks.suite --workload randwrite_gc --seconds 20 --trace 1

    # does the Python call count per layer repeat exactly?
    python -m benchmarks.suite --count

    # interleaved A/B of this tree's src/ against another commit's
    python -m benchmarks.suite --ab HEAD~1 --workload kernel_mix

    # re-pin the digests in expected.json after an intended model change
    python -m benchmarks.suite --update-expected

Every repeat runs in a fresh single-threaded interpreter, one at a time.
End-to-end metrics are the median (with p25/p75 and n) over the plain
repeats, or for ``setup_s`` over every set-up those repeats timed; the
metric names, units and bounds are those of
``BENCHMARK.json``.  A repeat fails when it raises, breaks a workload
invariant, or its simulated digest differs from the other repeats or,
at the default seed, from ``expected.json``.  Each run writes a JSON
record (``--record``, default ``benchmarks/suite/out/``) and prints, as
its last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter as clock
from typing import Dict, List, Optional

from benchmarks.suite.runner import (
    OUT_DIR,
    ROOT,
    SRC,
    SUITE_DIR,
    provenance,
    run_worker,
    summarize,
    write_record,
)
from benchmarks.suite.workloads import DEFAULT_SEED, WORKLOADS

EXPECTED = SUITE_DIR / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: repeats per workload without --seconds, and the minimum with it
DEFAULT_REPEATS = 5
MIN_TIMED_REPEATS = 3


def measure(names: List[str], seed: int, repeats: int,
            seconds: Optional[float], trace: bool,
            count: bool) -> Dict[str, List[Dict]]:
    """Run the plain repeats round-robin, then any traced/counted ones."""
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    started = clock()  # simlint: disable=SIM101, SIM110 -- bounds the benchmark's own run length; never enters simulated state
    rounds, last_round = 0, 0.0
    # past the minimum, a round starts only if it should end in time
    while rounds < repeats or (
            seconds is not None
            and clock() - started + last_round <= seconds):  # simlint: disable=SIM101, SIM110 -- bounds the benchmark's own run length; never enters simulated state
        round_started = clock()  # simlint: disable=SIM101, SIM110 -- bounds the benchmark's own run length; never enters simulated state
        for name in names:
            runs[name].append(run_worker(name, seed, "plain"))
        rounds += 1
        last_round = clock() - round_started  # simlint: disable=SIM101, SIM110 -- bounds the benchmark's own run length; never enters simulated state
    for name in names:
        if trace:
            chrome = OUT_DIR / f"trace-{name}-{seed}.json"
            runs[name].append(run_worker(name, seed, "trace",
                                         chrome_trace=chrome))
        # one counted repeat feeds the per-layer metrics; --count runs
        # two to show the count repeats exactly
        for _ in range(2 if count else int(trace)):
            runs[name].append(run_worker(name, seed, "count"))
    return runs


def judge(repeats: List[Dict], pinned: Optional[str]) -> Optional[str]:
    """Mark each failed repeat's ``failure``; returns the reference digest:
    the pinned one when there is one, else the one most repeats share."""
    digests = Counter(r["digest"] for r in repeats if "digest" in r)
    reference = pinned or (digests.most_common(1)[0][0] if digests else None)
    for repeat in repeats:
        if "error" in repeat:
            repeat["failure"] = repeat["error"]
        elif repeat["violations"]:
            repeat["failure"] = "; ".join(repeat["violations"])
        elif repeat["digest"] != reference:
            repeat["failure"] = ("digest differs from "
                                 + ("expected.json" if pinned else
                                    "the other repeats"))
    return reference


def workload_report(repeats: List[Dict], pinned: Optional[str],
                    spec: Dict) -> Dict:
    """Judge one workload's repeats and summarize its metrics."""
    reference = judge(repeats, pinned)
    ok = [r for r in repeats if "failure" not in r]
    plain = [r for r in ok if r["mode"] == "plain"]
    traced = [r for r in ok if r["mode"] == "trace"]
    counted = [r for r in ok if r["mode"] == "count"]
    report: Dict = {"digest": reference, "pinned": pinned is not None,
                    "attempted": len(repeats),
                    "failures": [r["failure"] for r in repeats
                                 if "failure" in r],
                    "end_to_end": {}, "per_layer": {}, "info": {}}
    if plain:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            # set-up samples are pooled: host load comes in bursts, and
            # the pooled groups sit seconds apart
            report["end_to_end"][name] = summarize(
                [s for r in plain for s in r["setup_samples"]]
                if name == "setup_s" else [r[name] for r in plain])
        run_s = report["end_to_end"]["run_s"]["median"]
        first = plain[0]
        report["info"] = {
            "run_wall_s": statistics.median(r["run_wall_s"] for r in plain),
            "setup_wall_s": statistics.median(r["setup_wall_s"]
                                              for r in plain),
            "events_per_s": first["events"] / run_s,
            "completed_per_s": first["completed"] / run_s,
            "host_per_sim_s": run_s / (first["sim_ns"] / 1e9)}
        if first["model_err"] is not None:
            report["info"]["model_err"] = first["model_err"]
    if traced and counted and plain:
        layers = dict(traced[0]["layers"])
        layers["trace.overhead"] = traced[0]["run_s"] / run_s - 1
        layers["setup.precondition_s"] = statistics.median(
            r["precondition_s"] for r in plain)
        layers.update(traced[0]["counters"])
        layers.update(counted[0]["py_calls"])
        report["per_layer"] = layers
    if len(counted) >= 2:
        report["py_calls"] = counted[0]["py_calls"]
        report["count_repeats_exactly"] = all(
            c["py_calls"] == counted[0]["py_calls"] for c in counted[1:])
        if not report["count_repeats_exactly"]:
            report["failures"].append("py_calls differ between count runs")
    report["failed"] = len(report["failures"])
    return report


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(name: str, report: Dict, spec: Dict) -> None:
    print(f"\n== {name}: {WORKLOADS[name].loop}")
    print(f"   digest {report['digest']} "
          f"({'pinned' if report['pinned'] else 'not pinned at this seed'}); "
          f"{report['failed']} failures in {report['attempted']} repeats")
    for failure in report["failures"]:
        print(f"   FAILED: {failure}")
    if report["end_to_end"]:
        print(f"   {'metric':<14} {'unit':<6} {'median':>11} {'p25':>11} "
              f"{'p75':>11} {'n':>4}  bound")
        for metric in spec["end_to_end"]:
            stats = report["end_to_end"][metric["name"]]
            print(f"   {metric['name']:<14} {metric['unit']:<6} "
                  f"{stats['median']:>11.5g} {stats['p25']:>11.5g} "
                  f"{stats['p75']:>11.5g} {stats['n']:>4}  "
                  f"+{metric['bound']:.0%}")
        print("   not gated: " + ", ".join(
            f"{key} {_fmt(value)}" for key, value in report["info"].items()))
    if report["per_layer"]:
        print(f"   {'per-layer metric':<30} {'unit':<6} value")
        for metric in spec["per_layer"]:
            value = report["per_layer"].get(metric["name"])
            if value:
                print(f"   {metric['name']:<30} {metric['unit']:<6} "
                      f"{_fmt(value)}")
        print("   (per-layer metrics not listed are 0)")
    if "count_repeats_exactly" in report:
        print("   py_calls repeat exactly across two runs: "
              + ("yes" if report["count_repeats_exactly"] else "NO"))
        for layer, calls in report["py_calls"].items():
            if calls:
                print(f"   {layer:<30} {calls}")


def result_line(reports: Dict[str, Dict], spec: Dict, trace: bool) -> Dict:
    """The last output line: every end-to-end (or, traced, every
    per-layer) metric, prefixed by workload when there are several."""
    metrics = {}
    for name, report in reports.items():
        for metric in spec["per_layer" if trace else "end_to_end"]:
            if trace:
                value = report["per_layer"].get(metric["name"])
            else:
                value = report["end_to_end"].get(metric["name"], {}) \
                    .get("median")
            if value is None:
                continue
            key = metric["name"] if len(reports) == 1 \
                else f"{name}.{metric['name']}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
    failed = sum(r["failed"] for r in reports.values())
    return {"correct": failed == 0,
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.suite",
        description="run the repo benchmark's fixed-work workloads")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload input seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"keep repeating round-robin while the next "
                             f"round should end within this many seconds "
                             f"(at least "
                             f"{MIN_TIMED_REPEATS} repeats; without it, "
                             f"{DEFAULT_REPEATS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced and one counted repeat per "
                             "workload and report per-layer metrics")
    parser.add_argument("--count", action="store_true",
                        help="count Python calls per layer twice per "
                             "workload and check they repeat exactly")
    parser.add_argument("--ab", metavar="REF",
                        help="interleaved A/B: REF's src/ against this "
                             "tree's, with this tree's benchmark code")
    parser.add_argument("--pairs", type=int, default=10,
                        help="A/B pairs per workload (default 10)")
    parser.add_argument("--update-expected", action="store_true",
                        help="re-pin expected.json from this run's digests "
                             "(default seed only)")
    parser.add_argument("--record", type=Path, default=None,
                        help="where to write the JSON record "
                             "(default benchmarks/suite/out/record-*.json)")
    args = parser.parse_args(argv)
    if args.update_expected and args.seed != DEFAULT_SEED:
        parser.error("--update-expected pins the default seed only")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def _exit_on_sigterm(signum, _frame) -> None:
    # an exception unwinds subprocess.run, which kills and reaps the worker
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file() \
            or not BENCHMARK.is_file():
        print(f"error: {SRC / 'repro'} or {BENCHMARK} is missing; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    names = args.workload or list(WORKLOADS)
    if args.ab:
        from benchmarks.suite.ab import run_ab
        return run_ab(args.ab, names, args.seed, args.pairs, spec,
                      args.record)
    repeats = DEFAULT_REPEATS if args.seconds is None else MIN_TIMED_REPEATS
    runs = measure(names, args.seed, repeats, args.seconds,
                   bool(args.trace), args.count)
    expected = {}
    if args.seed == DEFAULT_SEED and EXPECTED.is_file():
        expected = json.loads(EXPECTED.read_text())
    pins = {} if args.update_expected else expected
    reports = {name: workload_report(runs[name], pins.get(name), spec)
               for name in names}
    for name in names:
        print_report(name, reports[name], spec)
    if args.update_expected:
        expected.update({name: report["digest"]
                         for name, report in reports.items()
                         if report["failed"] == 0})
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
        print(f"\npinned {len(expected)} digests in {EXPECTED}")
    record = {"schema": 1, "provenance": provenance(), "seed": args.seed,
              "argv": sys.argv[1:] if argv is None else list(argv),
              "workloads": {name: {"repeats": runs[name], **reports[name]}
                            for name in names}}
    print(f"\nrecord -> {write_record(args.record, record)}")
    line = result_line(reports, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
