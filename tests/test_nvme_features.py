"""Optional NVMe features: SGL transfers, WRR queue priorities, CLI."""

import json
import pstats

import pytest

from repro.core.fio import FioJob
from repro.core.system import FullSystem
from repro.ssd.config import HILConfig


class TestSgl:
    def test_sgl_mode_wires_through(self, tiny_config):
        system = FullSystem(device=tiny_config, interface="nvme",
                            nvme_transfer_mode="sgl", data_emulation=True)
        assert system.adapter.identify()["transfer_mode"] == "sgl"

        def scenario():
            data = FullSystem.pattern_data(0, 16)
            yield from system.write(0, 16, data)
            got = yield from system.read(0, 16)
            assert got == data

        system.run_process(scenario())

    def test_unknown_transfer_mode_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            FullSystem(device=tiny_config, interface="nvme",
                       nvme_transfer_mode="bounce")

    def test_sgl_writes_more_descriptor_bytes_than_prp(self, tiny_config):
        """SGL writes one 16 B descriptor per segment; PRP keeps the first
        two pointers inside the SQE."""
        moved = {}
        for mode in ("prp", "sgl"):
            system = FullSystem(device=tiny_config, interface="nvme",
                                nvme_transfer_mode=mode)
            system.run_fio(FioJob(rw="randread", bs=8192, iodepth=2,
                                  total_ios=50))
            moved[mode] = system.memory.bytes_moved
        assert moved["sgl"] >= moved["prp"]


class TestWrrArbitration:
    def test_high_priority_queue_sees_lower_latency(self, tiny_config):
        device = tiny_config.with_overrides(
            hil=HILConfig(arbitration="wrr", wrr_weights=(8, 2, 1)))
        # queue 1 = high priority (class 0), others low (class 2)
        system = FullSystem(device=device, interface="nvme")
        system.controller.queue_priorities.update({1: 0, 2: 2, 3: 2, 4: 2})
        system.precondition()
        result = system.run_fio(FioJob(rw="randread", bs=2048, iodepth=8,
                                       numjobs=4, total_ios=150, seed=3))
        assert result.total_ios == 600
        # behavioural check happens at the device: commands from the
        # high-priority queue were fetched (no starvation / crash)
        assert system.ssd.hil.commands_completed == 600

    def test_wrr_weights_accepted_by_validation(self, tiny_config):
        device = tiny_config.with_overrides(
            hil=HILConfig(arbitration="wrr"))
        device.validate()


class TestExperimentCli:
    def test_list_experiments(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig08_09" in out and "tables" in out

    def test_run_tables(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table IV" in out

    def test_unknown_experiment_errors(self):
        from repro.experiments.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_fig16_report_and_profile_artifacts(self, tmp_path):
        """The two commands CI uploads its bench-smoke artifacts from."""
        from repro.experiments.__main__ import main
        report = tmp_path / "report.html"
        assert main(["fig16", "--report", str(report)]) == 0
        page = report.read_text()
        assert page.lower().startswith("<!doctype html>")
        assert "<table>" in page
        assert any(block in page for block in "▁▂▃▄▅▆▇█")
        base = tmp_path / "attr"
        assert main(["fig16", "--profile", str(base)]) == 0
        markdown = (tmp_path / "attr.md").read_text()
        assert "hottest layers" in markdown
        rows = [row.split(" | ") for row in markdown.splitlines()
                if row.startswith("| `") and row.endswith("% |")]
        shares = {cells[0].strip("| `"): float(cells[3].rstrip(" |%"))
                  for cells in rows}
        assert shares["ssd.ftl"] > 0
        # each share is rounded to 0.1 %
        assert sum(shares.values()) == \
            pytest.approx(100.0, abs=0.06 * len(shares))
        assert pstats.Stats(str(tmp_path / "attr.prof")).total_calls > 0

    def test_fig14_trace_and_metrics_outputs(self, tmp_path, capsys):
        """``--trace`` writes Chrome JSON and prints the per-kind table;
        ``--metrics`` has rows for each of fig14's three FullSystems
        (its device-level point is a bare Simulator: spans, no rows)."""
        from repro.experiments.__main__ import main
        trace, metrics = tmp_path / "t.json", tmp_path / "m.csv"
        assert main(["fig14", "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        events = json.loads(trace.read_text())["traceEvents"]
        assert {event["pid"] for event in events} == {0, 1, 2, 3}
        assert any(event["ph"] == "X" for event in events)
        assert "Latency per span kind" in out
        assert any(line.startswith("io.submit ") and "|" in line
                   for line in out.splitlines())
        lines = metrics.read_text().splitlines()
        assert lines[0] == "system,metric,value"
        systems = {line.split(",", 1)[0] for line in lines[1:]}
        assert systems == {"system1", "system2", "system3"}
        assert all(f"{system},sim.now_ns," in metrics.read_text()
                   for system in sorted(systems))


class TestAdminCommands:
    def _system(self, tiny_config, **kwargs):
        return FullSystem(device=tiny_config, interface="nvme", **kwargs)

    def test_identify_reports_controller_data(self, tiny_config):
        from repro.interfaces.nvme.structures import NvmeOpcode
        system = self._system(tiny_config)

        def scenario():
            result = yield from system.adapter.admin_command(
                NvmeOpcode.IDENTIFY)
            return result

        info = system.run_process(scenario())
        assert info["model"] == tiny_config.name
        assert info["capacity_sectors"] == tiny_config.logical_sectors
        assert system.sim.now > 0   # the round trip took simulated time

    def test_get_log_page_returns_smart(self, tiny_config):
        from repro.interfaces.nvme.structures import NvmeOpcode
        system = self._system(tiny_config)

        def scenario():
            yield from system.write(0, 8)
            smart = yield from system.adapter.admin_command(
                NvmeOpcode.GET_LOG_PAGE)
            return smart

        smart = system.run_process(scenario())
        assert "percentage_used" in smart
        assert smart["host_writes_pages"] >= 0

    def test_create_and_delete_io_queues(self, tiny_config):
        from repro.interfaces.nvme.structures import NvmeOpcode
        system = self._system(tiny_config)
        before = system.adapter.n_io_queues

        def scenario():
            yield from system.adapter.admin_command(
                NvmeOpcode.CREATE_SQ, qid=before + 1, depth=64)
            assert system.adapter.n_io_queues == before + 1
            yield from system.adapter.admin_command(
                NvmeOpcode.DELETE_SQ, qid=before + 1)

        system.run_process(scenario())
        assert system.adapter.n_io_queues == before

    def test_duplicate_queue_rejected(self, tiny_config):
        system = self._system(tiny_config)
        with pytest.raises(ValueError, match="already exists"):
            system.adapter.create_io_queue_pair(1)

    def test_format_nvm_deallocates_everything(self, tiny_config):
        from repro.interfaces.nvme.structures import NvmeOpcode
        system = self._system(tiny_config, data_emulation=True)

        def scenario():
            data = FullSystem.pattern_data(0, 16)
            yield from system.write(0, 16, data)
            got = yield from system.read(0, 16)
            assert got == data
            yield from system.adapter.admin_command(NvmeOpcode.FORMAT_NVM)
            wiped = yield from system.read(0, 16)
            return wiped

        assert system.run_process(scenario()) == bytes(16 * 512)

    def test_unsupported_admin_opcode_raises(self, tiny_config):
        from repro.interfaces.nvme.structures import NvmeOpcode
        system = self._system(tiny_config)

        def scenario():
            yield from system.adapter.admin_command(NvmeOpcode.READ)

        with pytest.raises(ValueError, match="unsupported admin"):
            system.run_process(scenario())
