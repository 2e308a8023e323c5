"""CLI surface of the telemetry subsystem.

Pins the same contracts the other observability flags carry:
``--telemetry-dir`` is threaded (never silently dropped), the
``report`` subcommand renders from a run directory on stdout, and a
CLI run with the flag leaves a complete run directory behind.
"""

import pytest

from repro.cli import MSED_EXPERIMENTS, build_parser, run
from repro.telemetry import EVENT_LOG_NAME, MANIFEST_NAME, PROM_NAME


class TestTelemetryDirThreading:
    def _capture(self, monkeypatch, module, argv):
        captured = {}

        def fake_main(**kwargs):
            captured.update(kwargs)
            return ""

        monkeypatch.setattr(module, "main", fake_main)
        assert run(build_parser().parse_args(argv)) == 0
        return captured

    @pytest.mark.parametrize("experiment", MSED_EXPERIMENTS)
    def test_flag_threaded_to_every_telemetry_experiment(
        self, monkeypatch, experiment
    ):
        from repro import cli

        module = {
            "table4": cli.table4,
            "ablation-shuffle": cli.ablation_shuffle,
            "ablation-frontier": cli.ablation_frontier,
        }[experiment]
        captured = self._capture(
            monkeypatch, module, [experiment, "--telemetry-dir", "/tmp/tel"]
        )
        assert captured["telemetry_dir"] == "/tmp/tel"

    def test_flag_rejected_where_it_would_be_dropped(self, capsys):
        args = build_parser().parse_args(
            ["table3", "--telemetry-dir", "/tmp/tel"]
        )
        assert run(args) == 2
        assert "--telemetry-dir" in capsys.readouterr().err

    def test_all_gets_per_experiment_subdirs(self, monkeypatch, tmp_path):
        """The sweep mirrors --checkpoint-dir: one subdir per
        experiment, so two event logs can never interleave."""
        import os

        import repro.cli as cli

        captured = []
        monkeypatch.setattr(
            cli, "run_all", lambda tasks, **_: captured.extend(tasks)
        )
        tel = str(tmp_path / "tel")
        assert run(build_parser().parse_args(["all", "--telemetry-dir", tel])) == 0
        dirs = {
            task.name: dict(task.kwargs).get("telemetry_dir")
            for task in captured
            if task.name in MSED_EXPERIMENTS
        }
        assert dirs == {
            name: os.path.join(tel, name) for name in MSED_EXPERIMENTS
        }


class TestReportSubcommand:
    def test_report_without_rundir_is_a_usage_error(self, capsys):
        args = build_parser().parse_args(["report"])
        assert run(args) == 2
        assert "RUNDIR" in capsys.readouterr().err

    def test_rundir_without_report_is_a_usage_error(self, capsys):
        args = build_parser().parse_args(["table3", "/tmp/somewhere"])
        assert run(args) == 2
        assert "report" in capsys.readouterr().err

    def test_end_to_end_run_then_report(self, tmp_path, capsys):
        """A real (tiny) table4 run with --telemetry-dir leaves a full
        run directory, and ``repro-muse report`` summarises it."""
        run_dir = tmp_path / "tel"
        args = build_parser().parse_args(
            ["table4", "--trials", "40", "--telemetry-dir", str(run_dir)]
        )
        assert run(args) == 0
        capsys.readouterr()  # drop the table itself
        for name in (EVENT_LOG_NAME, PROM_NAME, MANIFEST_NAME):
            assert (run_dir / name).exists()
        assert run(build_parser().parse_args(["report", str(run_dir)])) == 0
        out = capsys.readouterr().out
        assert f"telemetry report: {run_dir}" in out
        assert "run: experiment=table4" in out
        assert "time in stage:" in out
        assert "decode_chunk" in out
