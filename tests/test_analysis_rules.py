"""Per-rule simlint fixtures, suppression semantics and the CLI
(docs/ANALYSIS.md, "Rule catalog").

Every rule has bad/good fixture pairs under ``tests/analysis_fixtures``.
Each line of a bad file that must fire ends in an ``# expect: RULE[,
RULE]`` marker, and the file must trip exactly those (line, rule)
pairs; the good file must lint completely clean — so a rule that goes
blind *or* trigger-happy fails here before it reaches the self-check
gate, and so does a single dead case among live ones.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.findings import META_RULE, parse_suppressions
from repro.analysis.registry import (
    all_project_rules,
    all_rules,
    lint_paths,
    lint_source,
)

FIXTURES = Path(__file__).parent / "analysis_fixtures"
ANALYSIS_DOC = Path(__file__).parent.parent / "docs" / "ANALYSIS.md"

#: one row of the docs/ANALYSIS.md rule catalog: ``| ID | name | ...``
_CATALOG_ROW_RE = re.compile(r"^\| (SIM\d+) \| ([a-z-]+) \|", re.MULTILINE)

#: the per-file rules (SIM100 is the meta-rule, tested below)
FILE_RULES = ("SIM102", "SIM103", "SIM104", "SIM106", "SIM107", "SIM109",
              "SIM110")

#: the whole-project (simflow) rules
PROJECT_RULES = ("SIM201", "SIM210", "SIM220")

#: bad/good fixture pairs, named ``simNNN_{bad,good}.py`` after the case
#: they pin: one per rule, plus SIM104's timeout-leak case (``sim105``)
#: and SIM201's flow and raw-literal cases (``sim202``, ``sim203``)
FIXTURE_CASES = ("SIM102", "SIM103", "SIM104", "SIM105", "SIM106", "SIM107",
                 "SIM109", "SIM110")
PROJECT_FIXTURE_CASES = ("SIM201", "SIM202", "SIM203", "SIM210", "SIM220")

#: a path outside the designated wall-clock modules, so SIM110 fires on
#: a clock read and the suppression-semantics tests exercise it and SIM100
_PLAIN_PATH = "repro/model/snippet.py"


#: the marker a bad fixture puts on each line that must fire
_EXPECT_RE = re.compile(r"#\s*expect:\s*(SIM\d+(?:\s*,\s*SIM\d+)*)")


def _rule_ids(findings):
    return {f.rule for f in findings if not f.suppressed}


def _expected_sites(path):
    """The (line, rule) pairs a bad fixture's ``# expect:`` markers name."""
    sites = set()
    for lineno, text in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT_RE.search(text)
        if match:
            sites.update((lineno, rule_id.strip())
                         for rule_id in match.group(1).split(","))
    return sites


# -- registry -----------------------------------------------------------------

class TestRegistry:
    def test_every_rule_registered_once(self):
        rules = all_rules()
        assert [r.id for r in rules] == list(FILE_RULES)

    def test_every_project_rule_registered_once(self):
        rules = all_project_rules()
        assert [r.id for r in rules] == list(PROJECT_RULES)

    def test_rules_carry_name_and_rationale(self):
        for rule in all_rules() + all_project_rules():
            assert rule.name, rule.id
            assert len(rule.rationale) > 20, rule.id

    def test_meta_rule_is_not_registered(self):
        # SIM100 is reserved for the suppression machinery itself
        assert META_RULE not in {r.id for r in all_rules()}
        assert META_RULE not in {r.id for r in all_project_rules()}

    def test_rule_families_share_one_id_space(self):
        ids = [r.id for r in all_rules()] + \
            [r.id for r in all_project_rules()]
        assert len(ids) == len(set(ids))

    def test_docs_catalog_matches_registry(self):
        rows = _CATALOG_ROW_RE.findall(ANALYSIS_DOC.read_text())
        registered = {(r.id, r.name)
                      for r in all_rules() + all_project_rules()}
        assert len(rows) == len(set(rows))
        assert set(rows) == registered | {(META_RULE, "meta")}


# -- fixture pairs ------------------------------------------------------------

class TestFixturePairs:
    @pytest.mark.parametrize("case", FIXTURE_CASES + PROJECT_FIXTURE_CASES)
    def test_bad_fixture_trips_the_rule(self, case):
        path = FIXTURES / f"{case.lower()}_bad.py"
        expected = _expected_sites(path)
        assert expected, f"{path.name} marks no line with `# expect:`"
        fired = {(f.line, f.rule) for f in lint_source(str(path))
                 if not f.suppressed}
        assert fired == expected, \
            f"{path.name}: missing {sorted(expected - fired)}, " \
            f"unexpected {sorted(fired - expected)}"

    @pytest.mark.parametrize("case", FIXTURE_CASES + PROJECT_FIXTURE_CASES)
    def test_good_fixture_is_clean(self, case):
        path = FIXTURES / f"{case.lower()}_good.py"
        findings = [f for f in lint_source(str(path)) if not f.suppressed]
        assert findings == [], \
            "\n".join(f.format() for f in findings)

    def test_fixture_directory_is_paired(self):
        names = {p.name for p in FIXTURES.glob("sim*.py")}
        expected = set()
        for case in FIXTURE_CASES + PROJECT_FIXTURE_CASES:
            assert f"{case.lower()}_bad.py" in names
            assert f"{case.lower()}_good.py" in names
            expected |= {rule_id for _line, rule_id in _expected_sites(
                FIXTURES / f"{case.lower()}_bad.py")}
        assert set(FILE_RULES + PROJECT_RULES) <= expected, \
            "every rule must be pinned by some bad fixture"

    @pytest.mark.parametrize("case", PROJECT_FIXTURE_CASES)
    def test_project_findings_carry_witness(self, case):
        path = FIXTURES / f"{case.lower()}_bad.py"
        hits = [f for f in lint_source(str(path))
                if f.rule in PROJECT_RULES and not f.suppressed]
        assert hits and all(f.witness for f in hits), \
            f"{path.name}: project findings should explain themselves"

    def test_one_node_one_unit_finding_with_both_hints(self):
        """The flow check and the raw-literal check both fire on
        ``timeout(nbytes * 3)``; one SIM201 finding carries both."""
        path = FIXTURES / "sim203_bad.py"
        line = next(number for number, text
                    in enumerate(path.read_text().splitlines(), 1)
                    if "nbytes * 3" in text)
        hits = [f for f in lint_source(str(path)) if f.line == line]
        assert len(hits) == 1
        assert "changes units" in hits[0].message
        assert "raw-literal time math" in hits[0].message
        assert any("bare literal 3" in hop for hop in hits[0].witness)


class TestHoldIsAnAcquire:
    """``Resource.hold`` waits for a unit as ``acquire`` does but returns
    it when its timer fires: SIM220 orders its wait, and holds nothing
    after it (``sim220_good.py``'s ``Relay``), and SIM106 asks no
    release of it (``sim106_good.py``'s ``held``)."""

    def test_sim220_sees_an_inversion_made_of_holds(self):
        hits = [f for f in lint_source(str(FIXTURES / "sim220_bad.py"))
                if f.rule == "SIM220" and not f.suppressed
                and "Bridge.left" in f.message]
        assert len(hits) == 1
        assert any(".hold()` at" in hop for hop in hits[0].witness)


# -- suppression semantics ----------------------------------------------------

class TestSuppressions:
    def test_reasoned_suppression_silences_and_is_marked(self):
        source = ("import time\n"
                  "wall = time.time()  "
                  "# simlint: disable=SIM110 -- measuring lint speed\n")
        findings = lint_source(_PLAIN_PATH, source)
        assert _rule_ids(findings) == set()
        suppressed = [f for f in findings if f.suppressed]
        assert len(suppressed) == 1
        assert suppressed[0].rule == "SIM110"
        assert suppressed[0].reason == "measuring lint speed"

    def test_bare_suppression_is_flagged_sim100(self):
        source = ("import time\n"
                  "wall = time.time()  # simlint: disable=SIM110\n")
        findings = lint_source(_PLAIN_PATH, source)
        assert _rule_ids(findings) == {META_RULE}

    def test_useless_suppression_is_flagged_sim100(self):
        source = "x = 1  # simlint: disable=SIM110 -- nothing here\n"
        findings = lint_source(_PLAIN_PATH, source)
        assert _rule_ids(findings) == {META_RULE}
        assert "useless suppression" in findings[0].message

    def test_sim100_itself_cannot_be_suppressed(self):
        source = ("import time\n"
                  "wall = time.time()  # simlint: disable=SIM110, SIM100\n")
        findings = lint_source(_PLAIN_PATH, source)
        assert META_RULE in _rule_ids(findings)

    def test_multi_rule_suppression_covers_both(self):
        source = ("import time, random\n"
                  "x = time.time() + random.random()  "
                  "# simlint: disable=SIM102, SIM110 -- fixture\n")
        findings = lint_source(_PLAIN_PATH, source)
        assert _rule_ids(findings) == set()
        assert {f.rule for f in findings if f.suppressed} == \
            {"SIM102", "SIM110"}

    def test_directive_in_docstring_is_not_a_suppression(self):
        source = ('"""Example: # simlint: disable=SIM110 -- docs only."""\n'
                  "import time\n"
                  "wall = time.time()\n")
        assert parse_suppressions(source) == {}
        assert _rule_ids(lint_source(_PLAIN_PATH, source)) == {"SIM110"}

    def test_unparsable_file_reports_meta_finding(self):
        findings = lint_source("broken.py", "def oops(:\n")
        assert [f.rule for f in findings] == [META_RULE]
        assert "does not parse" in findings[0].message


# -- the CLI ------------------------------------------------------------------

def _run_cli(*args):
    src_dir = Path(repro.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=env, timeout=120)


class TestCli:
    def test_lint_bad_fixture_exits_nonzero(self):
        proc = _run_cli("lint", str(FIXTURES / "sim110_bad.py"))
        assert proc.returncode == 1
        assert "SIM110" in proc.stdout

    def test_lint_good_fixture_exits_zero(self):
        proc = _run_cli("lint", str(FIXTURES / "sim110_good.py"))
        assert proc.returncode == 0
        assert "clean" in proc.stderr

    def test_lint_json_output_parses(self):
        proc = _run_cli("lint", "--json", str(FIXTURES / "sim107_bad.py"))
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "repro.analysis/1"
        assert any(f["rule"] == "SIM107" for f in doc["findings"])
        assert doc["summary"]["exit_code"] == 1

    def test_rules_subcommand_lists_catalog(self):
        proc = _run_cli("rules")
        assert proc.returncode == 0
        listed = re.findall(r"^(SIM\d+) ", proc.stdout, re.MULTILINE)
        assert listed == list(FILE_RULES + PROJECT_RULES)
        for retired in ("SIM101", "SIM105", "SIM108", "SIM202", "SIM203"):
            assert retired not in proc.stdout


# -- lint_paths over the fixture tree -----------------------------------------

def test_lint_paths_walks_directories():
    result = lint_paths([str(FIXTURES)])
    rules_hit = {f.rule for f in result.unsuppressed}
    assert set(FILE_RULES + PROJECT_RULES) <= rules_hit
    assert result.exit_code() == 1
