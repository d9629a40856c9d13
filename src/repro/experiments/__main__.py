"""Run any paper experiment from the command line.

Usage::

    python -m repro.experiments tables
    python -m repro.experiments fig08_09 --full
    python -m repro.experiments fig10 --trace out.json --metrics out.csv
    python -m repro.experiments --list

``--trace`` records a span trace of every simulated system (in
simulated time) and writes Chrome ``trace_event`` JSON loadable at
https://ui.perfetto.dev, plus a per-span-kind latency table on
stdout.  ``--metrics`` dumps the end-of-run metric snapshot of every
traced ``FullSystem`` as CSV.  ``--report`` arms telemetry epochs (and
tracing) and renders time-series, per-kind latency histograms and the
metric snapshots into one self-contained HTML or Markdown artifact;
``--epoch-ns`` tunes the sampling period.  ``--profile BASE`` profiles the experiment's run
with cProfile (:mod:`repro.obs.profiler`) and writes ``BASE.md``, the
host self time per layer, plus the stdlib's ``BASE.prof``.
``--explain OUT.md`` arms per-request causal capture
(:mod:`repro.obs.causal`) and writes the per-system component
decomposition — with worst-request causal chains and blame edges —
without perturbing the experiment's results.  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.obs.diff import write_causal_report
from repro.obs.export import (
    format_span_histograms,
    span_histograms,
    write_chrome_trace,
    write_metrics_csv,
)
from repro.obs.profiler import new_profile, write_profile
from repro.obs.report import write_report
from repro.obs.runtime import (
    causal_summary,
    disable_causal,
    disable_tracing,
    enable_causal,
    enable_tracing,
    metric_snapshots,
    tracers,
)
from repro.obs.telemetry import disable_telemetry, enable_telemetry
from repro.sim.tracer import merge_spans

EXPERIMENTS = {
    "tables": "repro.experiments.tables",
    "fig03_04": "repro.experiments.fig03_04_baselines",
    "fig08_09": "repro.experiments.fig08_09_validation",
    "fig10": "repro.experiments.fig10_blocksize",
    "fig11": "repro.experiments.fig11_overprovision",
    "fig12": "repro.experiments.fig12_os_impact",
    "fig13": "repro.experiments.fig13_mobile",
    "fig14": "repro.experiments.fig14_frequency",
    "fig15": "repro.experiments.fig15_passive_active",
    "fig16": "repro.experiments.fig16_simspeed",
    "noisy": "repro.experiments.noisy_neighbor",
}


def resolve_experiment(name: str):
    """Map a CLI name to an ``EXPERIMENTS`` key.

    Accepts the short key (``fig12``) or the module-style name
    (``fig12_os_impact``); returns ``None`` when neither matches.
    """
    if name in EXPERIMENTS:
        return name
    for key, module in EXPERIMENTS.items():
        if module.rsplit(".", 1)[-1] == name:
            return key
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table or figure of the Amber paper.")
    parser.add_argument("experiment", nargs="?",
                        help=f"one of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--full", action="store_true",
                        help="run the full sweep (default: quick mode)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--trace", metavar="OUT.json",
                        help="record spans and write a Chrome trace "
                             "(open at https://ui.perfetto.dev)")
    parser.add_argument("--metrics", metavar="OUT.csv",
                        help="dump per-system metric snapshots as CSV")
    parser.add_argument("--report", metavar="OUT.html",
                        help="arm telemetry epochs and write a "
                             "self-contained HTML/Markdown run report")
    parser.add_argument("--epoch-ns", type=int, default=100_000,
                        help="telemetry sampling period in simulated ns "
                             "(used with --report; default 100000)")
    parser.add_argument("--profile", metavar="BASE",
                        help="profile host self time per layer; writes "
                             "BASE.md + BASE.prof (repro.obs.profiler)")
    parser.add_argument("--explain", metavar="OUT.md",
                        help="arm causal capture and write the per-system "
                             "latency decomposition (repro.obs.causal)")
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        for name, module in EXPERIMENTS.items():
            print(f"{name:<10} {module}")
        return 0

    experiment = resolve_experiment(args.experiment)
    if experiment is None:
        parser.error(f"unknown experiment {args.experiment!r}; "
                     f"choose from {', '.join(EXPERIMENTS)}")
    args.experiment = experiment

    module = importlib.import_module(EXPERIMENTS[args.experiment])
    observing = bool(args.trace or args.metrics or args.report)
    if observing:
        enable_tracing()
    if args.report:
        enable_telemetry(epoch_ns=args.epoch_ns)
    if args.explain:
        enable_causal()
    try:
        started = time.perf_counter()  # simlint: disable=SIM110 -- wall-clock progress display only; never enters results
        if args.profile:
            profile = new_profile()
            result = profile.runcall(module.run, quick=not args.full)
        else:
            result = module.run(quick=not args.full)
        elapsed = time.perf_counter() - started  # simlint: disable=SIM110 -- wall-clock progress display only; never enters results
        print(module.render(result))
        if args.trace:
            n_events = write_chrome_trace(args.trace, tracers())
            print(f"\n[trace: {n_events} spans from {len(tracers())} "
                  f"system(s) -> {args.trace}]")
            histograms = span_histograms(merge_spans(tracers()))
            if histograms:
                error = next(iter(histograms.values())).relative_error
                print("\nLatency per span kind (simulated time; "
                      f"percentiles ±{error:.1%} bucket error):")
                print(format_span_histograms(histograms))
        if args.metrics:
            rows = write_metrics_csv(args.metrics, metric_snapshots())
            print(f"\n[metrics: {rows} rows -> {args.metrics}]")
        if args.report:
            write_report(args.report,
                         title=f"{EXPERIMENTS[args.experiment]} — run report")
            print(f"\n[report -> {args.report}]")
        if args.profile:
            paths = write_profile(
                args.profile, profile,
                title=f"{EXPERIMENTS[args.experiment]} — host self time")
            print(f"\n[profile -> {', '.join(paths)}]")
        if args.explain:
            summary = causal_summary()
            write_causal_report(
                args.explain, summary,
                title=f"{EXPERIMENTS[args.experiment]} — causal forensics")
            print(f"\n[causal: {summary['records']} requests, "
                  f"{summary['violations']} conservation violations "
                  f"-> {args.explain}]")
    finally:
        if args.explain:
            disable_causal()
        if args.report:
            disable_telemetry()
        if observing:
            disable_tracing()
    print(f"\n[{args.experiment} finished in {elapsed:.1f}s "
          f"({'full' if args.full else 'quick'} mode)]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
