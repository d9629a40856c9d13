"""The adoption baseline file for simlint.

A baseline lets a whole directory tree (``tests/``, ``benchmarks/``)
join the lint gate without first fixing — or littering with inline
directives — every historical finding.  It is a plain text file, one
entry per line::

    SIM210 tests/test_fleet.py -- replay harness stores real wall time by design
    SIM201 benchmarks/sweep.py:41 -- legacy us field, converted by its one reader

Grammar: ``RULE path[:line] -- reason``.  Blank lines and ``#``
comments are ignored.  Exactly like inline suppressions, the reason is
**mandatory** — a baseline entry without one is itself reported as
SIM100, and so is a **stale** entry: one whose file was linted in this
run but which matched nothing (the finding was fixed; delete the
line).  Entries for files outside the run's scope are left alone.

Paths match by "/"-normalized suffix, so a baseline written at the
repo root keeps working when lint is invoked from a subdirectory or
with absolute paths.  Line numbers are optional; a file-level entry
(no line) is preferred — it survives unrelated edits to the file.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.analysis.findings import META_RULE, Finding

_ENTRY_RE = re.compile(
    r"^(?P<rule>[A-Z]+[0-9]+)\s+(?P<path>\S+?)(?::(?P<line>\d+))?"
    r"(?:\s+--\s+(?P<reason>\S.*?))?\s*$")


@dataclass(frozen=True)
class BaselineEntry:
    """One parsed baseline line."""

    rule: str
    path: str            # "/"-normalized, suffix-matched
    line: Optional[int]  # None: whole file
    reason: str
    lineno: int          # position in the baseline file itself

    def matches(self, finding: Finding) -> bool:
        if finding.rule != self.rule:
            return False
        if self.line is not None and finding.line != self.line:
            return False
        return _path_matches(finding.path, self.path)

    def in_scope(self, linted_paths: Set[str]) -> bool:
        return any(_path_matches(p, self.path) for p in linted_paths)


def _path_matches(path: str, pattern: str) -> bool:
    normalized = path.replace(os.sep, "/")
    return normalized == pattern or normalized.endswith("/" + pattern)


@dataclass
class Baseline:
    """A parsed baseline file, ready to apply to a finding list."""

    path: str
    entries: List[BaselineEntry]
    malformed: List[Tuple[int, str]]   # (lineno, problem)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, encoding="utf-8") as handle:
            return cls.parse(path, handle.read())

    @classmethod
    def parse(cls, path: str, text: str) -> "Baseline":
        entries: List[BaselineEntry] = []
        malformed: List[Tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            match = _ENTRY_RE.match(line)
            if match is None:
                malformed.append(
                    (lineno, f"unparseable baseline entry: {line!r} "
                             "(expected `RULE path[:line] -- reason`)"))
                continue
            reason = (match.group("reason") or "").strip()
            if not reason:
                malformed.append(
                    (lineno, "baseline entry must carry a reason "
                             "(`RULE path[:line] -- why`)"))
                continue
            line_no = match.group("line")
            entries.append(BaselineEntry(
                rule=match.group("rule").upper(),
                path=match.group("path").replace(os.sep, "/"),
                line=int(line_no) if line_no else None,
                reason=reason, lineno=lineno))
        return cls(path=path, entries=entries, malformed=malformed)

    def apply(self, findings: List[Finding],
              linted_paths: Set[str]) -> List[Finding]:
        """Suppress baselined findings; report malformed/stale entries.

        Returns a new finding list: matches are marked suppressed with
        the entry's reason; every malformed entry, and every entry
        whose file was linted but which silenced nothing, becomes a
        SIM100 finding located in the baseline file itself.
        """
        used: Set[int] = set()
        result: List[Finding] = []
        for finding in findings:
            entry = None
            if not finding.suppressed and finding.rule != META_RULE:
                entry = next((e for e in self.entries
                              if e.matches(finding)), None)
            if entry is None:
                result.append(finding)
                continue
            used.add(entry.lineno)
            result.append(Finding(
                rule=finding.rule, path=finding.path, line=finding.line,
                col=finding.col, message=finding.message, suppressed=True,
                reason=f"baseline: {entry.reason}",
                witness=finding.witness))
        for lineno, problem in self.malformed:
            result.append(Finding(rule=META_RULE, path=self.path,
                                  line=lineno, col=0, message=problem))
        for entry in self.entries:
            if entry.lineno not in used and entry.in_scope(linted_paths):
                result.append(Finding(
                    rule=META_RULE, path=self.path, line=entry.lineno,
                    col=0,
                    message=f"stale baseline entry: {entry.rule} "
                            f"{entry.path} matched no finding in this "
                            "run; delete the line"))
        return result
