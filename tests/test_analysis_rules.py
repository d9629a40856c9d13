"""Per-rule simlint fixtures, suppression semantics and the CLI
(docs/ANALYSIS.md, "Rule catalog").

Every rule has a bad/good fixture pair under ``tests/analysis_fixtures``:
the bad file must trip exactly that rule, the good file must lint
completely clean — so a rule that goes blind *or* trigger-happy fails
here before it reaches the self-check gate.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import all_rules, lint_paths, lint_source
from repro.analysis.findings import META_RULE, parse_suppressions
from repro.analysis.registry import all_project_rules

FIXTURES = Path(__file__).parent / "analysis_fixtures"

#: rules with a bad/good file pair (SIM100 is the meta-rule, tested below)
FIXTURE_RULES = ("SIM101", "SIM102", "SIM103", "SIM104",
                 "SIM105", "SIM106", "SIM107", "SIM109", "SIM110")

#: whole-project (simflow) rules, also covered by bad/good pairs
PROJECT_FIXTURE_RULES = ("SIM201", "SIM202", "SIM203", "SIM210", "SIM220")

#: a path inside a designated wall-clock module (SIM110 allowlist), so
#: suppression-semantics tests exercise SIM101/SIM100 in isolation
_BENCH_PATH = "repro/bench/snippet.py"


def _rule_ids(findings):
    return {f.rule for f in findings if not f.suppressed}


# -- registry -----------------------------------------------------------------

class TestRegistry:
    def test_every_rule_registered_once(self):
        rules = all_rules()
        assert [r.id for r in rules] == sorted(FIXTURE_RULES)

    def test_every_project_rule_registered_once(self):
        rules = all_project_rules()
        assert [r.id for r in rules] == sorted(PROJECT_FIXTURE_RULES)

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


# -- fixture pairs ------------------------------------------------------------

class TestFixturePairs:
    @pytest.mark.parametrize("rule_id",
                             FIXTURE_RULES + PROJECT_FIXTURE_RULES)
    def test_bad_fixture_trips_the_rule(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_bad.py"
        findings = lint_source(str(path))
        assert rule_id in _rule_ids(findings), \
            f"{path.name} did not trigger {rule_id}"

    @pytest.mark.parametrize("rule_id",
                             FIXTURE_RULES + PROJECT_FIXTURE_RULES)
    def test_good_fixture_is_clean(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_good.py"
        findings = [f for f in lint_source(str(path)) if not f.suppressed]
        assert findings == [], \
            "\n".join(f.format() for f in findings)

    def test_fixture_directory_is_paired(self):
        names = {p.name for p in FIXTURES.glob("sim*.py")}
        for rule_id in FIXTURE_RULES + PROJECT_FIXTURE_RULES:
            assert f"{rule_id.lower()}_bad.py" in names
            assert f"{rule_id.lower()}_good.py" in names

    @pytest.mark.parametrize("rule_id", PROJECT_FIXTURE_RULES)
    def test_project_findings_carry_witness(self, rule_id):
        path = FIXTURES / f"{rule_id.lower()}_bad.py"
        hits = [f for f in lint_source(str(path))
                if f.rule == rule_id and not f.suppressed]
        assert hits and all(f.witness for f in hits), \
            f"{rule_id} findings should explain themselves"


# -- suppression semantics ----------------------------------------------------

class TestSuppressions:
    def test_reasoned_suppression_silences_and_is_marked(self):
        source = ("import time\n"
                  "wall = time.time()  "
                  "# simlint: disable=SIM101 -- measuring lint speed\n")
        findings = lint_source(_BENCH_PATH, source)
        assert _rule_ids(findings) == set()
        suppressed = [f for f in findings if f.suppressed]
        assert len(suppressed) == 1
        assert suppressed[0].rule == "SIM101"
        assert suppressed[0].reason == "measuring lint speed"

    def test_bare_suppression_is_flagged_sim100(self):
        source = ("import time\n"
                  "wall = time.time()  # simlint: disable=SIM101\n")
        findings = lint_source(_BENCH_PATH, source)
        assert _rule_ids(findings) == {META_RULE}

    def test_useless_suppression_is_flagged_sim100(self):
        source = "x = 1  # simlint: disable=SIM101 -- nothing here\n"
        findings = lint_source(_BENCH_PATH, source)
        assert _rule_ids(findings) == {META_RULE}
        assert "useless suppression" in findings[0].message

    def test_sim100_itself_cannot_be_suppressed(self):
        source = ("import time\n"
                  "wall = time.time()  # simlint: disable=SIM101, SIM100\n")
        findings = lint_source(_BENCH_PATH, source)
        assert META_RULE in _rule_ids(findings)

    def test_multi_rule_suppression_covers_both(self):
        source = ("import time, random\n"
                  "x = time.time() + random.random()  "
                  "# simlint: disable=SIM101, SIM102 -- fixture\n")
        findings = lint_source(_BENCH_PATH, source)
        assert _rule_ids(findings) == set()
        assert {f.rule for f in findings if f.suppressed} == \
            {"SIM101", "SIM102"}

    def test_directive_in_docstring_is_not_a_suppression(self):
        source = ('"""Example: # simlint: disable=SIM101 -- docs only."""\n'
                  "import time\n"
                  "wall = time.time()\n")
        assert parse_suppressions(source) == {}
        assert _rule_ids(lint_source(_BENCH_PATH, source)) == {"SIM101"}

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
        proc = _run_cli("lint", str(FIXTURES / "sim101_bad.py"))
        assert proc.returncode == 1
        assert "SIM101" in proc.stdout

    def test_lint_good_fixture_exits_zero(self):
        proc = _run_cli("lint", str(FIXTURES / "sim101_good.py"))
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
        for rule_id in FIXTURE_RULES + PROJECT_FIXTURE_RULES:
            assert rule_id in proc.stdout
        assert "SIM108" not in proc.stdout


# -- lint_paths over the fixture tree -----------------------------------------

def test_lint_paths_walks_directories():
    result = lint_paths([str(FIXTURES)])
    rules_hit = {f.rule for f in result.unsuppressed}
    assert set(FIXTURE_RULES) <= rules_hit
    assert result.exit_code() == 1
