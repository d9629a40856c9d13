"""CLI for the simulation-safety analyzer.

Usage::

    python -m repro.analysis lint [PATH ...] [--json] [--show-suppressed]
                                  [--exclude FRAGMENT ...]
    python -m repro.analysis rules

``lint`` exits 0 when every finding is suppressed (each suppression must
carry a reason), 1 otherwise — CI gates on exactly this
(docs/ANALYSIS.md).  With no paths it lints ``src/repro`` relative to
the current directory, falling back to the installed package location.
``--exclude`` drops paths containing a fragment (e.g. lint fixtures).

``--json`` emits the versioned ``repro.analysis/1`` document: a single
object with ``schema``, sorted ``findings`` (rule, file:line, message,
witness chain, suppression state) and a ``summary``; key order is
byte-stable (``sort_keys``) so reports diff cleanly across runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.findings import FindingSet
from repro.analysis.registry import all_project_rules, all_rules, lint_paths

#: version tag of the --json document; bump on breaking shape changes
JSON_SCHEMA = "repro.analysis/1"


def _default_paths() -> List[str]:
    candidate = os.path.join("src", "repro")
    if os.path.isdir(candidate):
        return [candidate]
    import repro
    return [os.path.dirname(os.path.abspath(repro.__file__))]


def _print_text(result: FindingSet, show_suppressed: bool) -> None:
    for finding in result.findings:
        if finding.suppressed and not show_suppressed:
            continue
        print(finding.format())
    counts = result.by_rule()
    if counts:
        summary = ", ".join(f"{rule_id}: {n}"
                            for rule_id, n in sorted(counts.items()))
        print(f"simlint: {len(result.unsuppressed)} finding(s) ({summary}), "
              f"{len(result.suppressed)} suppressed", file=sys.stderr)
    else:
        print(f"simlint: clean ({len(result.suppressed)} suppressed "
              "finding(s) with documented reasons)", file=sys.stderr)


def json_document(result: FindingSet) -> dict:
    """The ``repro.analysis/1`` report document (stable order)."""
    return {
        "schema": JSON_SCHEMA,
        "findings": [
            {"rule": f.rule,
             "location": f"{f.path}:{f.line}",
             "path": f.path, "line": f.line, "col": f.col,
             "message": f.message,
             "witness": list(f.witness),
             "suppressed": f.suppressed,
             "reason": f.reason}
            for f in result.findings],
        "summary": {
            "total": len(result.findings),
            "unsuppressed": len(result.unsuppressed),
            "suppressed": len(result.suppressed),
            "by_rule": result.by_rule(),
            "exit_code": result.exit_code(),
        },
    }


def _print_json(result: FindingSet) -> None:
    print(json.dumps(json_document(result), sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: simulation-safety static analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser("lint", help="lint files or directories")
    lint.add_argument("paths", nargs="*", help="files/dirs (default src/repro)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable repro.analysis/1 report")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print suppressed findings")
    lint.add_argument("--exclude", action="append", default=[],
                      metavar="FRAGMENT",
                      help="skip paths containing FRAGMENT "
                           "(repeatable)")

    sub.add_parser("rules", help="list every rule with its rationale")

    args = parser.parse_args(argv)
    if args.command == "rules":
        for rule in all_rules():
            print(f"{rule.id} {rule.name}")
            print(f"    {rule.rationale}")
        for prule in all_project_rules():
            print(f"{prule.id} {prule.name} (whole-project)")
            print(f"    {prule.rationale}")
        return 0

    result = lint_paths(args.paths or _default_paths(),
                        exclude=args.exclude)
    if args.as_json:
        _print_json(result)
    else:
        _print_text(result, args.show_suppressed)
    return result.exit_code()


if __name__ == "__main__":
    raise SystemExit(main())
