"""Fleet CLI: plan, run, inspect and report declarative sweeps.

Usage::

    python -m repro.fleet plan   --builtin smoke4
    python -m repro.fleet run    --spec sweep.json --store out/ --jobs 4
    python -m repro.fleet run    --builtin smoke4 --store out/ --resume
    python -m repro.fleet watch  --builtin smoke4 --store out/ --out partial.md
    python -m repro.fleet report --builtin smoke4 --store out/ --out fleet.md
    python -m repro.fleet explain HASH_A HASH_B --store out/ --out why.md
    python -m repro.fleet --list

``run --resume`` skips configurations whose hash already has a stored
result; ``run --dry-run`` prints the plan (including what resume would
skip) without simulating.  Runs journal lifecycle events beside the
store by default (``--no-journal`` opts out, ``--profile`` adds
each job's per-layer host self time to the journal); ``watch`` folds
the journal in to tell running and failed jobs apart from
never-started ones and tails it live, optionally rewriting a streaming
partial report that converges byte-identically to the final
``report``, and ``watch --once`` prints one snapshot.  Reports pick
their format from the ``--out`` suffix: ``.html`` is HTML, ``.json``
the canonical merged document, anything else Markdown.
``run --causal`` embeds each job's per-request causal latency
decomposition (:mod:`repro.obs.causal`) in its stored result, and
``explain HASH_A HASH_B`` then renders a deterministic report ranking
the resource components that moved the p50/p99 between the two
configurations.
See ``docs/FLEET.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.fleet.report import merge_results, write_fleet_report
from repro.fleet.runner import run_sweep
from repro.fleet.scenarios import SCENARIOS, builtin_specs, spec_names
from repro.fleet.spec import SweepSpec
from repro.fleet.store import ResultStore
from repro.fleet.watch import watch
from repro.obs.diff import explain, write_explain_report


def _load_spec(args) -> SweepSpec:
    """Resolve --spec FILE / --builtin NAME into a SweepSpec."""
    if args.spec:
        return SweepSpec.load(args.spec)
    if args.builtin:
        specs = builtin_specs()
        if args.builtin not in specs:
            raise SystemExit(f"unknown built-in sweep {args.builtin!r}; "
                             f"choose from {', '.join(spec_names())}")
        return specs[args.builtin]
    raise SystemExit("one of --spec FILE or --builtin NAME is required")


def _add_spec_args(sub) -> None:
    """Attach the shared ``--spec`` / ``--builtin`` options to a subcommand."""
    sub.add_argument("--spec", metavar="FILE",
                     help="JSON sweep-spec file (docs/FLEET.md schema)")
    sub.add_argument("--builtin", metavar="NAME",
                     help=f"built-in sweep: {', '.join(spec_names())}")


def _print_plan(spec: SweepSpec, store: ResultStore | None) -> None:
    """One line per planned job: hash, cached marker, parameters."""
    jobs = sorted(spec.expand(), key=lambda job: job.config_hash)
    print(f"sweep {spec.name!r}: scenario {spec.scenario!r}, "
          f"{len(jobs)} configuration(s)")
    for job in jobs:
        cached = " (cached)" if store is not None and \
            store.has(job.config_hash) else ""
        varying = {key: value for key, value in sorted(job.params.items())
                   if key in spec.axes}
        print(f"  {job.config_hash[:16]}{cached}  {varying}")


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Plan, run and report declarative simulation sweeps.")
    parser.add_argument("--list", action="store_true",
                        help="list built-in sweeps and scenarios")
    sub = parser.add_subparsers(dest="command")

    plan = sub.add_parser("plan", help="expand a spec into its job list")
    _add_spec_args(plan)
    plan.add_argument("--store", metavar="DIR",
                      help="mark jobs already cached in this store")

    run = sub.add_parser("run", help="execute a sweep into a result store")
    _add_spec_args(run)
    run.add_argument("--store", metavar="DIR", required=True,
                     help="content-addressed result store directory")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (default 1: inline)")
    run.add_argument("--resume", action="store_true",
                     help="skip configurations that already have results")
    run.add_argument("--dry-run", action="store_true",
                     help="print the plan without simulating")
    run.add_argument("--no-journal", action="store_true",
                     help="skip the NDJSON run journal beside the store")
    run.add_argument("--heartbeat", type=float, default=2.0, metavar="SEC",
                     help="min wall seconds between journal heartbeats "
                          "(default 2.0)")
    run.add_argument("--profile", action="store_true",
                     help="profile each job with cProfile; per-layer "
                          "host self time lands in the journal")
    run.add_argument("--causal", action="store_true",
                     help="capture per-request causal latency forensics; "
                          "the summary lands in each stored result for "
                          "'fleet explain'")

    watch_cmd = sub.add_parser(
        "watch", help="tail a sweep's journal with streaming partial reports")
    _add_spec_args(watch_cmd)
    watch_cmd.add_argument("--store", metavar="DIR", required=True)
    watch_cmd.add_argument("--interval", type=float, default=2.0,
                           metavar="SEC",
                           help="refresh period (default 2.0)")
    watch_cmd.add_argument("--once", action="store_true",
                           help="print one snapshot and exit")
    watch_cmd.add_argument("--out", metavar="OUT.md|OUT.html",
                           help="rewrite a streaming partial report each "
                                "tick (converges to the final report)")
    watch_cmd.add_argument("--json", action="store_true",
                           help="emit the status document as JSON lines")

    report = sub.add_parser("report", help="merge a sweep into one artifact")
    _add_spec_args(report)
    report.add_argument("--store", metavar="DIR", required=True)
    report.add_argument("--out", metavar="OUT.md|OUT.html|OUT.json",
                        required=True,
                        help="output path; suffix selects the format")

    explain_cmd = sub.add_parser(
        "explain",
        help="why do two stored runs differ? (needs 'run --causal')")
    explain_cmd.add_argument("hash_a", metavar="HASH_A",
                             help="baseline config hash (unique prefix ok)")
    explain_cmd.add_argument("hash_b", metavar="HASH_B",
                             help="comparison config hash (unique prefix ok)")
    explain_cmd.add_argument("--store", metavar="DIR", required=True,
                             help="result store holding both runs")
    explain_cmd.add_argument("--out", metavar="OUT.md|OUT.html|OUT.json",
                             required=True,
                             help="explain report path; suffix selects the "
                                  "format")

    args = parser.parse_args(argv)

    if args.list or not args.command:
        print("built-in sweeps:")
        for name, spec in sorted(builtin_specs().items()):
            print(f"  {name:<24} scenario={spec.scenario:<12} "
                  f"{len(spec.expand())} job(s)")
        print("scenarios:")
        for name in sorted(SCENARIOS):
            print(f"  {name}")
        return 0

    if args.command == "explain":
        store = ResultStore(args.store)
        docs = []
        for prefix in (args.hash_a, args.hash_b):
            matches = [h for h in store.hashes() if h.startswith(prefix)]
            if len(matches) != 1:
                raise SystemExit(
                    f"hash prefix {prefix!r} matches {len(matches)} stored "
                    f"results in {store.root} (need exactly 1)")
            docs.append(store.get(matches[0]))
        try:
            doc = explain(docs[0], docs[1])
        except ValueError as error:
            raise SystemExit(str(error))
        write_explain_report(args.out, doc)
        print(f"[explain: {doc['a']['config_hash'][:12]} vs "
              f"{doc['b']['config_hash'][:12]} -> {args.out}]")
        return 0

    spec = _load_spec(args)

    if args.command == "plan":
        store = ResultStore(args.store) if args.store else None
        _print_plan(spec, store)
        return 0

    store = ResultStore(args.store)

    if args.command == "run":
        if args.dry_run:
            _print_plan(spec, store)
            return 0
        summary = run_sweep(spec, store, jobs=args.jobs, resume=args.resume,
                            progress=lambda msg: print(msg, file=sys.stderr),
                            journal=not args.no_journal,
                            heartbeat_s=args.heartbeat,
                            profile=args.profile, causal=args.causal)
        print(f"{spec.name}: executed {len(summary.executed)}, "
              f"cached {len(summary.skipped)}, "
              f"planned {summary.planned} -> {store.root}")
        return 0

    if args.command == "watch":
        doc = watch(spec, store, emit=print, interval_s=args.interval,
                    once=args.once, partial_out=args.out,
                    as_json=args.json)
        if args.out:
            print(f"[partial report: {doc['done']}/{doc['planned']} configs "
                  f"-> {args.out}]")
        return 0 if not doc["missing"] else 1

    # report
    doc = merge_results(spec, store)
    write_fleet_report(args.out, doc)
    print(f"[fleet report: {doc['merged']}/{doc['planned']} configs "
          f"-> {args.out}]")
    return 0 if not doc["missing"] else 1


if __name__ == "__main__":
    sys.exit(main())
