"""The fleet sweep engine: spec expansion, config hashes, the
content-addressed store, resume semantics, and the determinism
guarantee — a 1-worker and an N-worker run of the same spec produce
byte-identical stores and byte-identical merged reports
(``docs/FLEET.md``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.histogram import LogHistogram
from repro.common.render import json_text, markdown_to_html
from repro.fleet import (
    ResultStore,
    SCENARIOS,
    SweepSpec,
    builtin_specs,
    config_hash,
    derive_seed,
    journal_status,
    merge_results,
    render_markdown,
    run_scenario,
    run_sweep,
)

#: the smoke4 job CI also runs — any drift in the hash scheme (key
#: canonicalization, separators, digest choice) invalidates every
#: content-addressed store in the wild, so it is pinned here
PINNED_PARAMS = {"scenario": "fio", "preset": "intel750", "rw": "randread",
                 "bs": 4096, "iodepth": 8, "total_ios": 160, "channels": 4}
PINNED_HASH = ("dc0f1687f242c83ea6912c4d2bb58bd9"
               "f64811c15ff7790f8162ad91d5a0e992")

#: tiny two-config sweep used for the runner/report/resume tests
TINY = SweepSpec(
    name="tiny", scenario="fio",
    base={"preset": "intel750", "rw": "randread", "total_ios": 60,
          "iodepth": 4, "bs": 4096},
    axes={"channels": (2, 4)})


# -- config hashes and seeds --------------------------------------------------

class TestConfigHash:
    def test_pinned_hash(self):
        assert config_hash(PINNED_PARAMS) == PINNED_HASH

    def test_key_order_does_not_matter(self):
        shuffled = dict(reversed(list(PINNED_PARAMS.items())))
        assert config_hash(shuffled) == PINNED_HASH

    def test_any_value_change_changes_the_hash(self):
        for key in PINNED_PARAMS:
            changed = dict(PINNED_PARAMS)
            changed[key] = "something-else"
            assert config_hash(changed) != PINNED_HASH, key

    def test_derived_seed_is_stable_and_per_job(self):
        other = config_hash(dict(PINNED_PARAMS, bs=8192))
        assert derive_seed(PINNED_HASH) == derive_seed(PINNED_HASH)
        assert derive_seed(PINNED_HASH) != derive_seed(other)
        assert derive_seed(PINNED_HASH, stream=1) != derive_seed(PINNED_HASH)


# -- spec expansion -----------------------------------------------------------

class TestSweepSpec:
    def test_grid_expansion_is_deterministic(self):
        jobs_a = TINY.expand()
        jobs_b = TINY.expand()
        assert [j.config_hash for j in jobs_a] == \
            [j.config_hash for j in jobs_b]
        assert len(jobs_a) == 2
        assert {j.params["channels"] for j in jobs_a} == {2, 4}
        for job in jobs_a:
            assert job.params["scenario"] == "fio"
            assert job.config_hash == config_hash(job.params)

    def test_grid_is_the_full_product(self):
        spec = SweepSpec(name="g", scenario="fio",
                         axes={"a": (1, 2, 3), "b": ("x", "y")})
        jobs = spec.expand()
        assert len(jobs) == 6
        assert len({j.config_hash for j in jobs}) == 6

    def test_random_mode_is_seed_deterministic_and_deduped(self):
        spec = SweepSpec(name="r", scenario="fio",
                         axes={"a": (1, 2), "b": (3, 4)},
                         mode="random", samples=40, sample_seed=7)
        jobs = spec.expand()
        assert jobs == spec.expand()
        hashes = [j.config_hash for j in jobs]
        assert len(hashes) == len(set(hashes)) <= 4
        other = SweepSpec(name="r", scenario="fio",
                          axes={"a": (1, 2), "b": (3, 4)},
                          mode="random", samples=2, sample_seed=8)
        assert other.expand() != jobs[:2]

    def test_spec_name_is_not_part_of_the_hash(self):
        renamed = SweepSpec(name="renamed", scenario=TINY.scenario,
                            base=TINY.base, axes=TINY.axes)
        assert [j.config_hash for j in renamed.expand()] == \
            [j.config_hash for j in TINY.expand()]

    def test_roundtrip_through_dict_and_file(self, tmp_path):
        doc = TINY.to_dict()
        assert SweepSpec.from_dict(doc).expand() == TINY.expand()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        assert SweepSpec.load(path).expand() == TINY.expand()

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="at least one value"):
            SweepSpec(name="bad", scenario="fio", axes={"a": ()})
        with pytest.raises(ValueError, match="also appears in base"):
            SweepSpec(name="bad", scenario="fio", base={"a": 1},
                      axes={"a": (1, 2)})
        with pytest.raises(ValueError, match="mode"):
            SweepSpec(name="bad", scenario="fio", mode="mystery")
        with pytest.raises(ValueError, match="unknown spec keys"):
            SweepSpec.from_dict({"name": "x", "scenario": "fio",
                                 "grid": {}})

    def test_builtins_expand_and_name_real_scenarios(self):
        for name, spec in builtin_specs().items():
            assert spec.scenario in SCENARIOS, name
            assert len(spec.expand()) >= 3, name
        assert len(builtin_specs()["smoke4"].expand()) == 4


# -- the result store ---------------------------------------------------------

class TestResultStore:
    def test_roundtrip_and_fanout(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert not store.has(PINNED_HASH)
        path = store.put(PINNED_HASH, PINNED_PARAMS, {"bw": 1.5})
        assert path.parent.name == PINNED_HASH[:2]
        assert store.has(PINNED_HASH)
        doc = store.get(PINNED_HASH)
        assert doc["params"]["preset"] == "intel750"
        assert doc["result"] == {"bw": 1.5}
        assert store.hashes() == [PINNED_HASH]
        assert store.delete(PINNED_HASH) and not store.has(PINNED_HASH)

    def test_writes_are_byte_stable(self, tmp_path):
        store = ResultStore(tmp_path)
        result = {"bw": 123.456, "hist": {"buckets": [[1, 2, 3]]}}
        first = store.put(PINNED_HASH, PINNED_PARAMS, result).read_bytes()
        second = store.put(PINNED_HASH, PINNED_PARAMS, result).read_bytes()
        assert first == second
        assert not list(Path(tmp_path).rglob("*.tmp"))

    def test_missing_store_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "nowhere")
        assert store.hashes() == [] and store.get("00" * 32) is None


# -- histogram round trip (what makes fleet merging possible) -----------------

class TestHistogramRoundtrip:
    def test_from_dict_preserves_everything(self):
        hist = LogHistogram()
        for value in [3, 17, 900, 4096, 70000, 70001, 1 << 22]:
            hist.record(value)
        clone = LogHistogram.from_dict(hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.summary() == hist.summary()

    def test_rebuilt_histograms_merge(self):
        left, right = LogHistogram(), LogHistogram()
        for value in range(0, 2000, 7):
            left.record(value)
        for value in range(1, 4000, 13):
            right.record(value)
        merged = LogHistogram.from_dict(left.to_dict())
        merged.merge(LogHistogram.from_dict(right.to_dict()))
        reference = LogHistogram()
        for value in range(0, 2000, 7):
            reference.record(value)
        for value in range(1, 4000, 13):
            reference.record(value)
        assert merged.to_dict() == reference.to_dict()


# -- scenarios ----------------------------------------------------------------

class TestScenarios:
    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario({"scenario": "teleport"}, 1)

    def test_unknown_fio_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fio-scenario"):
            run_scenario(dict(PINNED_PARAMS, warp_factor=9), 1)

    def test_unknown_experiment_is_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_scenario({"scenario": "experiment",
                          "experiment": "fig99"}, 1)


# -- the runner: determinism, resume ------------------------------------------

@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One inline run of the tiny sweep: (store, summary, merged doc)."""
    store = ResultStore(tmp_path_factory.mktemp("fleet-j1"))
    summary = run_sweep(TINY, store, jobs=1, resume=True)
    return store, summary, merge_results(TINY, store)


class TestRunner:
    def test_inline_run_executes_every_job(self, baseline):
        store, summary, doc = baseline
        assert summary.planned == 2
        assert sorted(summary.executed) == store.hashes()
        assert summary.skipped == []
        assert doc["merged"] == 2 and doc["missing"] == []
        assert doc["fleet_latency"]["count"] > 0

    def test_n_workers_are_byte_identical_to_one(self, baseline,
                                                 tmp_path_factory):
        """The golden determinism pin: stores AND reports, byte for byte."""
        store_j1, _summary, doc_j1 = baseline
        store_j2 = ResultStore(tmp_path_factory.mktemp("fleet-j2"))
        run_sweep(TINY, store_j2, jobs=2, resume=True)
        assert store_j1.hashes() == store_j2.hashes()
        for job_hash in store_j1.hashes():
            assert store_j1.path_for(job_hash).read_bytes() == \
                store_j2.path_for(job_hash).read_bytes(), job_hash
        doc_j2 = merge_results(TINY, store_j2)
        assert json_text(doc_j1) == json_text(doc_j2)
        assert render_markdown(doc_j1) == render_markdown(doc_j2)
        assert markdown_to_html(render_markdown(doc_j1), "fleet") == \
            markdown_to_html(render_markdown(doc_j2), "fleet")

    def test_resume_runs_only_missing_jobs(self, baseline, tmp_path):
        """Half-empty store + --resume => only the hole is re-simulated,
        and the merged report comes back byte-identical."""
        store_j1, _summary, doc_before = baseline
        partial = ResultStore(tmp_path / "partial")
        hashes = store_j1.hashes()
        kept, dropped = hashes[0], hashes[1]
        partial.put(kept, store_j1.get(kept)["params"],
                    store_j1.get(kept)["result"])
        summary = run_sweep(TINY, partial, jobs=1, resume=True)
        assert summary.skipped == [kept]
        assert summary.executed == [dropped]
        assert json_text(merge_results(TINY, partial)) == \
            json_text(doc_before)

    def test_resume_false_reexecutes_everything(self, baseline, tmp_path):
        store_j1, _summary, doc_before = baseline
        copy = ResultStore(tmp_path / "copy")
        for job_hash in store_j1.hashes():
            doc = store_j1.get(job_hash)
            copy.put(job_hash, doc["params"], doc["result"])
        summary = run_sweep(TINY, copy, jobs=1, resume=False)
        assert sorted(summary.executed) == store_j1.hashes()
        assert summary.skipped == []
        assert json_text(merge_results(TINY, copy)) == \
            json_text(doc_before)

    def test_status_reports_missing(self, baseline, tmp_path):
        store_j1, _summary, _doc = baseline
        state = journal_status(TINY, store_j1)
        assert state["done"] == 2 and state["missing"] == []
        empty = journal_status(TINY, ResultStore(tmp_path / "none"))
        assert empty["done"] == 0 and len(empty["missing"]) == 2

    def test_report_marks_missing_configs(self, baseline, tmp_path):
        store_j1, _summary, _doc = baseline
        partial = ResultStore(tmp_path / "gappy")
        kept = store_j1.hashes()[0]
        partial.put(kept, store_j1.get(kept)["params"],
                    store_j1.get(kept)["result"])
        doc = merge_results(TINY, partial)
        assert doc["merged"] == 1 and len(doc["missing"]) == 1
        assert doc["missing"][0] in render_markdown(doc)

    def test_jobs_must_be_positive(self, baseline, tmp_path):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(TINY, ResultStore(tmp_path), jobs=0)


class TestReportRendering:
    def test_markdown_has_every_section(self, baseline):
        _store, _summary, doc = baseline
        text = render_markdown(doc)
        assert "Fleet-wide latency" in text
        assert "Per-axis aggregates" in text
        assert "Per-job results" in text
        assert "`channels`" in text

    def test_html_is_selfcontained_and_escaped(self, baseline):
        _store, _summary, doc = baseline
        page = markdown_to_html(render_markdown(doc), "fleet")
        assert page.startswith("<!DOCTYPE html>")
        assert "<table>" in page and "</html>" in page
        assert "<script" not in page and "http" not in page


# -- the CLI ------------------------------------------------------------------

def _run_cli(*args):
    src_dir = Path(repro.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run(
        [sys.executable, "-m", "repro.fleet", *args],
        capture_output=True, text=True, env=env, timeout=300)


class TestCli:
    def test_list_names_builtins_and_scenarios(self):
        proc = _run_cli("--list")
        assert proc.returncode == 0
        assert "smoke4" in proc.stdout and "fio" in proc.stdout

    def test_plan_prints_hashes(self):
        proc = _run_cli("plan", "--builtin", "smoke4")
        assert proc.returncode == 0
        assert PINNED_HASH[:16] in proc.stdout

    def test_dry_run_simulates_nothing(self, tmp_path):
        store = tmp_path / "store"
        proc = _run_cli("run", "--builtin", "smoke4", "--store", str(store),
                        "--jobs", "2", "--dry-run")
        assert proc.returncode == 0
        assert not store.exists()

    def test_run_status_report_from_a_spec_file(self, tmp_path):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(TINY.to_dict()))
        store = tmp_path / "store"
        proc = _run_cli("run", "--spec", str(spec_path),
                        "--store", str(store), "--jobs", "1", "--resume")
        assert proc.returncode == 0, proc.stderr
        assert "executed 2" in proc.stdout

        proc = _run_cli("watch", "--once", "--spec", str(spec_path),
                        "--store", str(store))
        assert proc.returncode == 0
        assert "2/2 done" in proc.stdout

        out = tmp_path / "fleet.md"
        proc = _run_cli("report", "--spec", str(spec_path),
                        "--store", str(store), "--out", str(out))
        assert proc.returncode == 0
        assert "Fleet report" in out.read_text()

    def test_report_json_suffix_writes_the_merged_document(self, baseline,
                                                          tmp_path):
        """``--out X.json`` writes the canonical merged JSON, byte for
        byte the document ``merge_results`` builds."""
        store, _summary, doc = baseline
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(json.dumps(TINY.to_dict()))
        out = tmp_path / "fleet.json"
        proc = _run_cli("report", "--spec", str(spec_path),
                        "--store", str(store.root), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text(encoding="utf-8") == json_text(doc)
        assert json.loads(out.read_text())["merged"] == 2

    def test_status_of_empty_store_fails(self, tmp_path):
        proc = _run_cli("watch", "--once", "--builtin", "smoke4",
                        "--store", str(tmp_path / "none"))
        assert proc.returncode == 1
        assert "0/4 done" in proc.stdout

    def test_unknown_builtin_is_an_error(self):
        proc = _run_cli("plan", "--builtin", "warp9")
        assert proc.returncode != 0
        assert "unknown built-in" in proc.stderr
