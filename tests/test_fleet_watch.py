"""The live-observability layer: the NDJSON run journal, the
journal-aware ``watch`` with its ``--once`` snapshot and streaming
partial reports, and the invariants that keep all of it outside the
determinism contract — result payloads byte-identical with journaling
on or off, and a partial report that converges byte-identically to the
final one (``docs/FLEET.md``, ``docs/OBSERVABILITY.md``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.fleet import (
    ResultStore,
    SweepSpec,
    journal_status,
    merge_results,
    render_status,
    run_sweep,
    watch,
    write_fleet_report,
    write_partial_report,
)
from repro.fleet.runner import run_one_job
from repro.fleet.scenarios import SCENARIOS, builtin_specs
from repro.fleet.spec import Job, config_hash
from repro.obs import journal as journal_mod
from repro.obs.journal import (
    JOURNAL_NAME,
    RunJournal,
    active_job,
    journal_path_for,
)
from repro.sim import Simulator

#: tiny two-config sweep, same shape as tests/test_fleet.py
TINY = SweepSpec(
    name="tiny", scenario="fio",
    base={"preset": "intel750", "rw": "randread", "total_ios": 60,
          "iodepth": 4, "bs": 4096},
    axes={"channels": (2, 4)})

EVENT_KINDS = ("job_started", "heartbeat", "epoch_sampled",
               "job_completed", "job_failed")


# -- the journal itself -------------------------------------------------------

class TestRunJournal:
    def test_append_and_read_roundtrip(self, tmp_path):
        journal = RunJournal(tmp_path / "j.ndjson")
        journal.append("job_started", job="abc", pid=1)
        journal.append("job_completed", job="abc", pid=1)
        events = journal.events()
        assert [e["event"] for e in events] == \
            ["job_started", "job_completed"]
        assert all("wall_ts" in e for e in events)

    def test_lines_are_single_json_documents(self, tmp_path):
        journal = RunJournal(tmp_path / "j.ndjson")
        journal.append("heartbeat", job="abc", sim_ns=5)
        for line in journal.path.read_text().splitlines():
            assert json.loads(line)["job"] == "abc"

    def test_reader_skips_torn_trailing_line(self, tmp_path):
        journal = RunJournal(tmp_path / "j.ndjson")
        journal.append("job_started", job="abc")
        with open(journal.path, "a") as handle:
            handle.write('{"event": "job_comp')     # killed mid-write
        assert [e["event"] for e in journal.events()] == ["job_started"]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert RunJournal(tmp_path / "nope.ndjson").events() == []

    def test_journal_path_sits_at_store_root(self, tmp_path):
        assert journal_path_for(tmp_path) == tmp_path / JOURNAL_NAME


# -- journaled sweeps ---------------------------------------------------------

@pytest.fixture(scope="module")
def journaled(tmp_path_factory):
    """One journaled inline run (heartbeat_s=0: every epoch emits)."""
    store = ResultStore(tmp_path_factory.mktemp("watch-j1"))
    summary = run_sweep(TINY, store, jobs=1, heartbeat_s=0.0)
    return store, summary


class TestJournaledSweep:
    def test_all_lifecycle_kinds_are_emitted(self, journaled):
        store, _summary = journaled
        events = RunJournal(journal_path_for(store.root)).events()
        kinds = {e["event"] for e in events}
        assert {"job_started", "heartbeat", "epoch_sampled",
                "job_completed"} <= kinds
        assert all(e["event"] in EVENT_KINDS for e in events)

    def test_events_carry_both_clocks(self, journaled):
        store, _summary = journaled
        events = RunJournal(journal_path_for(store.root)).events()
        for event in events:
            assert isinstance(event["wall_ts"], float), event
        beats = [e for e in events if e["event"] == "heartbeat"]
        assert beats and all(e["sim_ns"] > 0 and e["events"] > 0
                             for e in beats)

    def test_completed_events_record_deterministic_facts(self, journaled):
        store, _summary = journaled
        events = RunJournal(journal_path_for(store.root)).events()
        completed = [e for e in events if e["event"] == "job_completed"]
        assert len(completed) == 2
        for event in completed:
            stored = store.get(event["job"])["result"]
            assert event["events_processed"] == stored["events_processed"]
            assert event["sim_time_ns"] == stored["sim_time_ns"]
            assert event["wall_duration_s"] >= 0.0

    def test_journal_never_enters_store_hashes(self, journaled):
        store, _summary = journaled
        assert journal_path_for(store.root).is_file()
        assert len(store.hashes()) == 2      # journal is invisible

    def test_payloads_identical_with_journal_off(self, journaled,
                                                 tmp_path):
        """The golden invariance pin: journaling cannot touch results."""
        store_on, _summary = journaled
        store_off = ResultStore(tmp_path / "no-journal")
        run_sweep(TINY, store_off, jobs=1, journal=False)
        assert not journal_path_for(store_off.root).exists()
        assert store_on.hashes() == store_off.hashes()
        for job_hash in store_on.hashes():
            assert store_on.path_for(job_hash).read_bytes() == \
                store_off.path_for(job_hash).read_bytes(), job_hash

    def test_payloads_identical_with_profiler_on(self, journaled,
                                                 tmp_path):
        store_on, _summary = journaled
        store_prof = ResultStore(tmp_path / "profiled")
        run_sweep(TINY, store_prof, jobs=1, heartbeat_s=0.0, profile=True)
        for job_hash in store_on.hashes():
            assert store_on.path_for(job_hash).read_bytes() == \
                store_prof.path_for(job_hash).read_bytes(), job_hash
        completed = [e for e
                     in RunJournal(journal_path_for(store_prof.root)).events()
                     if e["event"] == "job_completed"]
        assert completed and all("profile" in e for e in completed)
        assert all(sum(e["profile"].values()) > 0 for e in completed)

    def test_no_context_leaks_after_a_sweep(self, journaled):
        assert active_job() is None
        assert journal_mod._context is None


# -- worker crash post-mortems ------------------------------------------------

def _boom(params, seed):
    """Scenario that fails inside the engine, mid-process."""
    sim = Simulator()

    def proc():
        yield sim.timeout(10)
        raise RuntimeError("injected crash")

    sim.run_process(proc())


class TestFailurePath:
    @pytest.fixture()
    def boom_job(self):
        SCENARIOS["boom"] = _boom
        params = {"scenario": "boom"}
        yield Job(params=params, config_hash=config_hash(params))
        del SCENARIOS["boom"]

    def test_crash_writes_journal_event_and_flightrec(self, boom_job,
                                                      tmp_path):
        journal_path = tmp_path / JOURNAL_NAME
        with pytest.raises(RuntimeError, match="injected crash"):
            run_one_job(boom_job, journal_path=journal_path)
        events = RunJournal(journal_path).events()
        assert [e["event"] for e in events][-1] == "job_failed"
        failed = events[-1]
        assert failed["error"] == "RuntimeError"
        assert "injected crash" in failed["message"]
        assert failed["flightrec"], "no post-mortem recorded"
        for name in failed["flightrec"]:
            dump = json.loads((tmp_path / name).read_text())
            assert dump["error"]["type"] == "RuntimeError"

    def test_crash_leaves_no_global_state(self, boom_job, tmp_path):
        from repro.obs.telemetry import telemetry_enabled
        with pytest.raises(RuntimeError):
            run_one_job(boom_job, journal_path=tmp_path / JOURNAL_NAME)
        assert active_job() is None
        assert not telemetry_enabled()

    def test_failed_job_shows_in_journal_status(self, boom_job, tmp_path):
        spec = SweepSpec(name="boomsweep", scenario="boom",
                         base={"scenario": "boom"}, axes={})
        store = ResultStore(tmp_path)
        with pytest.raises(RuntimeError):
            run_one_job(boom_job, journal_path=journal_path_for(store.root))
        doc = journal_status(spec, store)
        assert doc["done"] == 0 and doc["pending"] == []
        assert [f["job"] for f in doc["failed"]] == [boom_job.config_hash]
        assert "RuntimeError" in render_status(doc)


# -- journal-aware status and watch -------------------------------------------

class TestJournalStatus:
    def test_running_vs_pending_vs_done(self, journaled, tmp_path):
        store_done, _summary = journaled
        hashes = store_done.hashes()
        store = ResultStore(tmp_path)
        # one job done, one "running" (started, no terminal event)
        done_hash, running_hash = hashes
        doc_done = store_done.get(done_hash)
        store.put(done_hash, doc_done["params"], doc_done["result"])
        journal = RunJournal(journal_path_for(store.root))
        journal.append("job_started", job=running_hash, pid=4242, sim_ns=0)
        journal.append("heartbeat", job=running_hash, pid=4242,
                       sim_ns=1234, events=56)
        doc = journal_status(TINY, store)
        assert doc["done"] == 1 and doc["pending"] == []
        assert [r["job"] for r in doc["running"]] == [running_hash]
        runner = doc["running"][0]
        assert runner["pid"] == 4242 and runner["sim_ns"] == 1234
        assert runner["beat_age_s"] >= 0.0
        text = render_status(doc)
        assert "1/2 done" in text and "RUN" in text

    def test_store_trumps_stale_journal(self, journaled):
        """A resumed sweep's store beats an old running/failed record."""
        store, _summary = journaled
        job_hash = store.hashes()[0]
        journal = RunJournal(journal_path_for(store.root))
        journal.append("job_failed", job=job_hash, error="OldError",
                       message="stale")
        doc = journal_status(TINY, store)
        assert doc["done"] == 2 and doc["failed"] == []

    def test_unknown_jobs_in_journal_are_ignored(self, journaled):
        store, _summary = journaled
        journal = RunJournal(journal_path_for(store.root))
        journal.append("job_started", job="f00d" * 16, pid=1)
        doc = journal_status(TINY, store)
        assert doc["done"] == 2 and doc["running"] == []

    def test_eta_extrapolates_from_completed_durations(self, tmp_path):
        store = ResultStore(tmp_path)
        journal = RunJournal(journal_path_for(store.root))
        hashes = sorted(job.config_hash for job in TINY.expand())
        journal.append("job_completed", job=hashes[0], wall_duration_s=3.0)
        doc = journal_status(TINY, store)
        assert doc["eta_s"] == pytest.approx(6.0)    # 2 pending x 3s


class TestWatch:
    def test_watch_once_snapshot(self, journaled, capsys):
        store, _summary = journaled
        doc = watch(TINY, store, emit=print, once=True)
        assert doc["done"] == 2
        assert "2/2 done" in capsys.readouterr().out

    def test_watch_loops_until_settled(self, journaled):
        store, _summary = journaled
        lines = []
        naps = []
        doc = watch(TINY, store, emit=lines.append,
                    sleep=naps.append, interval_s=0.5)
        assert doc["done"] == 2
        assert len(lines) == 1 and naps == []    # already settled

    def test_watch_json_lines_parse(self, journaled):
        store, _summary = journaled
        lines = []
        watch(TINY, store, emit=lines.append, once=True, as_json=True)
        assert json.loads(lines[0])["done"] == 2

    def test_watch_json_schema_is_pinned(self, journaled):
        """The stable fleet.watch/1 document: fixed key set, sorted-key
        encoding, journal path and an always-present eta_s."""
        store, _summary = journaled
        lines = []
        watch(TINY, store, emit=lines.append, once=True, as_json=True)
        doc = json.loads(lines[0])
        assert doc["schema"] == "fleet.watch/1"
        assert set(doc) == {"schema", "spec", "planned", "journal", "done",
                            "running", "failed", "pending", "missing",
                            "eta_s"}
        assert doc["journal"] == str(journal_path_for(store.root))
        assert doc["eta_s"] is None          # settled sweep: nothing left
        assert lines[0] == json.dumps(doc, sort_keys=True)  # sorted keys

    def test_eta_s_is_none_until_a_job_completes(self, tmp_path):
        doc = journal_status(TINY, ResultStore(tmp_path))
        assert doc["eta_s"] is None
        assert set(doc["pending"]) == set(doc["missing"])


# -- partial-report convergence -----------------------------------------------

class TestPartialConvergence:
    def test_partial_converges_byte_identically(self, journaled, tmp_path):
        """The tentpole pin: a watch partial taken mid-sweep, regenerated
        once the store completes, equals the final report byte-for-byte."""
        store_full, _summary = journaled
        store = ResultStore(tmp_path / "store")
        hashes = store_full.hashes()
        first = store_full.get(hashes[0])
        store.put(hashes[0], first["params"], first["result"])

        mid = tmp_path / "partial.md"
        doc_mid = write_partial_report(TINY, store, mid)
        assert doc_mid["merged"] == 1 and len(doc_mid["missing"]) == 1
        mid_bytes = mid.read_bytes()

        second = store_full.get(hashes[1])
        store.put(hashes[1], second["params"], second["result"])
        write_partial_report(TINY, store, mid)
        final = tmp_path / "final.md"
        write_fleet_report(final, merge_results(TINY, store))
        assert mid.read_bytes() == final.read_bytes()
        assert mid.read_bytes() != mid_bytes     # it really did stream

    def test_watch_writes_the_partial_artifact(self, journaled, tmp_path):
        store, _summary = journaled
        out = tmp_path / "live.md"
        watch(TINY, store, emit=lambda _line: None, once=True,
              partial_out=out)
        final = tmp_path / "final.md"
        write_fleet_report(final, merge_results(TINY, store))
        assert out.read_bytes() == final.read_bytes()


# -- the CLI surface ----------------------------------------------------------

def _run_cli(*args):
    src_dir = Path(repro.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run(
        [sys.executable, "-m", "repro.fleet", *args],
        capture_output=True, text=True, env=env, timeout=600)


class TestCli:
    def test_run_journals_and_watch_once_reports(self, tmp_path):
        store = tmp_path / "store"
        proc = _run_cli("run", "--builtin", "smoke4", "--store", str(store),
                        "--jobs", "2")
        assert proc.returncode == 0, proc.stderr
        assert (store / JOURNAL_NAME).is_file()

        out = tmp_path / "partial.md"
        proc = _run_cli("watch", "--builtin", "smoke4", "--store",
                        str(store), "--once", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "4/4 done" in proc.stdout
        assert out.is_file()

    def test_status_separates_failed_from_pending(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        journal = RunJournal(journal_path_for(store))
        some_hash = sorted(
            job.config_hash
            for job in builtin_specs()["smoke4"].expand())[0]
        journal.append("job_failed", job=some_hash, error="RuntimeError",
                       message="injected", flightrec=[])
        proc = _run_cli("watch", "--once", "--builtin", "smoke4",
                        "--store", str(store))
        assert proc.returncode == 1
        assert "1 failed" in proc.stdout
        assert "3 pending" in proc.stdout
        assert "RuntimeError" in proc.stdout

    def test_run_no_journal_opts_out(self, tmp_path):
        store = tmp_path / "store"
        proc = _run_cli("run", "--builtin", "smoke4", "--store", str(store),
                        "--jobs", "1", "--no-journal")
        assert proc.returncode == 0, proc.stderr
        assert not (store / JOURNAL_NAME).exists()
