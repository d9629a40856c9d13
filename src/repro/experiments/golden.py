"""Golden result digests: the determinism contract, made executable.

Every experiment here runs a *small config* — the same code paths as the
paper figures, at sizes that finish in seconds — and its full result
dictionary is canonicalized and hashed.  The hashes (and payloads, for
diffability) live in ``tests/golden/*.json``; the tier-1 suite recomputes
them on every run.  Because the simulator is deterministic, any digest
drift means a *behavioural* change: an event reordered, a latency
recomputed differently, a float produced by a different expression.
Performance work must keep every digest bit-identical — that is what
makes a fast-path refactor mergeable (see docs/PERFORMANCE.md).

Wall-clock fields are stripped before hashing (they are the only
legitimately nondeterministic outputs).  Regenerate after an intentional
model change with::

    PYTHONPATH=src python -m repro.experiments.golden --update
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, Dict

from repro.common.render import json_text
from repro.common.units import KB

#: result keys that legitimately differ run-to-run (never hashed)
VOLATILE_KEYS = {"wall_seconds", "events_per_sec"}

DEFAULT_DIR = Path("tests") / "golden"


# -- canonicalization ---------------------------------------------------------

def _canon_key(key) -> str:
    return key if isinstance(key, str) else repr(key)


def canonicalize(obj):
    """Reduce a result tree to JSON-stable form.

    Dict keys become strings (tuples via ``repr``) and are sorted;
    volatile keys are dropped; tuples become lists; any non-JSON leaf
    falls back to ``repr``.  Floats pass through untouched — CPython's
    shortest-repr float serialization is deterministic, so identical
    doubles always canonicalize identically.
    """
    if isinstance(obj, dict):
        items = sorted((_canon_key(k), canonicalize(v))
                       for k, v in obj.items()
                       if _canon_key(k) not in VOLATILE_KEYS)
        return dict(items)
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    return repr(obj)


def digest(result) -> str:
    """SHA-256 over the canonical JSON encoding of ``result``."""
    payload = json.dumps(canonicalize(result), sort_keys=True,
                         separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# -- the small configs --------------------------------------------------------

def _fig03_04():
    """The baseline simulators (Figs 3/4) in quick mode: the only pinned
    run where many timed events share an instant."""
    from repro.experiments import fig03_04_baselines
    return fig03_04_baselines.run(quick=True)


def _fig08_09():
    """A Fig 8/9 validation slice: every real device and pattern at
    depths 1 and 16, 200 I/Os per point, accuracy summary included."""
    from repro.experiments import fig08_09_validation
    return fig08_09_validation.run(quick=True, depths=[1, 16], n_ios=200)


def _fig10():
    from repro.experiments import fig10_blocksize
    return fig10_blocksize.run(quick=True, devices=["intel750"],
                               sizes=[4 * KB, 64 * KB],
                               budgets=(1 << 20, 4 << 20))


def _fig11():
    from repro.experiments import fig11_overprovision
    return fig11_overprovision.run(quick=True, sizes=[4 * KB],
                                   op_ratios=[0.20, 0.05],
                                   stress_multiplier=0.15)


def _fig12():
    from repro.experiments import fig12_os_impact
    return fig12_os_impact.run(quick=True, interfaces=["nvme"], n_ios=80,
                               concurrency=4, workloads=["24HR", "MSNFS"])


def _fig12_sata():
    """Fig 12's SATA leg: the only golden that drives the AHCI path."""
    from repro.experiments import fig12_os_impact
    return fig12_os_impact.run(quick=True, interfaces=["sata"], n_ios=80,
                               concurrency=4, workloads=["24HR", "MSNFS"])


def _fig13():
    from repro.experiments import fig13_mobile
    return fig13_mobile.run(quick=True, n_ios=80, concurrency=4,
                            workloads=["MSNFS"])


def _fig14():
    from repro.experiments import fig14_frequency
    return fig14_frequency.run(quick=True, n_ios=60, freqs=[2])


def _fig15():
    from repro.experiments import fig15_passive_active
    return fig15_passive_active.run(quick=True, n_ios=60, sizes=[4 * KB],
                                    patterns=["randread", "write"])


def _fig16():
    from repro.experiments import fig16_simspeed
    return fig16_simspeed.run(quick=True, n_ios=100)


def _multi_tenant_noisy():
    """The noisy-neighbor suite: namespaces, arbiters, open-loop arrivals.

    One digest covers the whole multi-tenant stack — per-tenant
    namespaces and queues, all arbitration disciplines the variants
    exercise, banded placement, Poisson/Zipfian generators and the
    per-tenant metric rollups.  Any event reorder anywhere in that
    pipeline shifts a latency and drifts this digest.
    """
    from repro.experiments import noisy_neighbor
    return noisy_neighbor.run(quick=True)


def _perf_scenarios():
    """The benchmark scenarios' deterministic facts at smoke size."""
    from repro.bench.scenarios import SCENARIOS
    return {name: runner("smoke").to_dict()
            for name, runner in SCENARIOS.items()}


#: golden case name -> result producer
GOLDEN_CASES: Dict[str, Callable[[], Dict]] = {
    "fig03_04_baselines": _fig03_04,
    "fig08_09_validation": _fig08_09,
    "fig10_blocksize": _fig10,
    "fig11_overprovision": _fig11,
    "fig12_os_impact": _fig12,
    "fig12_sata": _fig12_sata,
    "fig13_mobile": _fig13,
    "fig14_frequency": _fig14,
    "fig15_passive_active": _fig15,
    "fig16_simspeed": _fig16,
    "multi_tenant_noisy": _multi_tenant_noisy,
    "perf_scenarios": _perf_scenarios,
}


# -- recording / checking -----------------------------------------------------

def golden_path(case: str, directory: Path = DEFAULT_DIR) -> Path:
    return Path(directory) / f"{case}.json"


def record_case(case: str, directory: Path = DEFAULT_DIR) -> Dict:
    """Run one case and write its golden file; returns the document."""
    result = GOLDEN_CASES[case]()
    doc = {"case": case, "digest": digest(result),
           "payload": canonicalize(result)}
    path = golden_path(case, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(doc))
    return doc


def check_case(case: str, directory: Path = DEFAULT_DIR) -> bool:
    """Re-run one case and compare against its committed golden digest."""
    expected = json.loads(golden_path(case, directory).read_text())
    return digest(GOLDEN_CASES[case]()) == expected["digest"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.golden",
        description="record or verify the golden result digests")
    parser.add_argument("--update", action="store_true",
                        help="rewrite golden files from the current code")
    parser.add_argument("--case", action="append", choices=GOLDEN_CASES,
                        help="restrict to one case (repeatable)")
    parser.add_argument("--dir", type=Path, default=DEFAULT_DIR,
                        help="golden directory (default tests/golden)")
    parser.add_argument("--causal", action="store_true",
                        help="re-check with per-request causal capture "
                             "armed: digests must stay identical (capture "
                             "is bit-neutral) and the conservation "
                             "invariant must hold for every request")
    args = parser.parse_args(argv)

    from repro.analysis import sanitizer as _sanitizer
    from repro.obs import runtime as _runtime

    sanitize = _sanitizer.sanitizer_enabled()
    failures = []
    try:
        for case in (args.case or GOLDEN_CASES):
            if args.update:
                doc = record_case(case, args.dir)
                print(f"recorded {case}: {doc['digest'][:16]}…",
                      file=sys.stderr)
                continue
            # re-arm per case so the counts below cover only this case
            if args.causal:
                _runtime.enable_causal()
            if sanitize:
                _sanitizer.enable_sanitizer()
            ok = check_case(case, args.dir)
            note = ""
            if args.causal:
                summary = _runtime.causal_summary()
                note = (f"  [causal: {summary['records']} requests, "
                        f"{summary['violations']} violations]")
                if summary["violations"]:
                    ok = False
            if sanitize:
                # a sanitizer that saw no event was never called: the
                # digest check alone would not notice it went missing
                watched = _sanitizer.sanitizers()
                violations = len(_sanitizer.all_violations())
                note += (f"  [sanitizer: {len(watched)} simulators, "
                         f"{violations} violations]")
                if violations or not any(len(s.flight) for s in watched):
                    ok = False
            print(f"{'ok  ' if ok else 'FAIL'} {case}{note}",
                  file=sys.stderr)
            if not ok:
                failures.append(case)
    finally:
        if args.causal:
            _runtime.disable_causal()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
