"""Experiment-runner and CLI integration tests (fast settings)."""

import pytest

from repro.cli import build_parser, run
from repro.engine import available_backends
from repro.experiments import (
    ablation_shuffle,
    figure1b,
    pim,
    table1,
    table3,
)


class TestRunners:
    def test_table1_reports_exact_match(self):
        report = table1.main()
        assert report.count("exact list") == 4
        assert "4065" in report and "821" in report

    def test_figure1b_report(self):
        report = figure1b.main()
        assert "sequential" in report and "shuffled" in report

    def test_table3_all_match(self):
        report = table3.main()
        assert report.count("yes") == 4
        assert "NO" not in report.replace("NO\n", "")  # no mismatches

    def test_pim_report(self):
        report = pim.main(coverage_trials=200)
        assert "2.67x" in report
        assert "100.0%" in report

    def test_ablation_shuffle_reproduces_appendix_g(self):
        rows = ablation_shuffle.sweep()
        r13 = next(r for r in rows if r.label == "C8A/80b" and r.r == 13)
        # sequential finds 0, the Eq.5 shuffle finds exactly m=5621.
        assert r13.sequential_found == 0
        assert r13.shuffled_found == 1

    def test_ablation_shuffle_msed_covers_all_80bit_codes(self):
        rows = ablation_shuffle.msed_sweep(trials=600, seed=2)
        assert [r.code_name for r in rows] == [
            "MUSE(80,69)", "MUSE(80,67)", "MUSE(80,70)",
        ]
        assert [r.layout for r in rows] == ["sequential", "shuffled", "shuffled"]
        assert all(0.0 < r.msed_percent <= 100.0 for r in rows)


class TestCli:
    def test_parser_accepts_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_parallel_flags_parse_with_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["table4"])
        assert args.jobs == 1
        assert args.chunk_size is None
        assert args.seed is None
        args = parser.parse_args(
            ["table4", "--jobs", "4", "--chunk-size", "4096", "--seed", "7"]
        )
        assert (args.jobs, args.chunk_size, args.seed) == (4, 4096, 7)

    def test_parser_rejects_unknown(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table99"])

    def test_trial_budget_flag_is_gone(self, capsys):
        """A campaign-wide budget no longer exists: argparse refuses
        the old flag with its usage error."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                ["table4", "--adaptive", "--trial-budget", "1000"]
            )
        assert exit_info.value.code == 2
        assert "--trial-budget" in capsys.readouterr().err

    def test_backend_flag_parses_and_defaults_to_auto(self):
        parser = build_parser()
        assert parser.parse_args(["table4"]).backend == "auto"
        args = parser.parse_args(["table4", "--backend", "scalar"])
        assert args.backend == "scalar"
        with pytest.raises(SystemExit):
            parser.parse_args(["table4", "--backend", "cuda"])

    def test_every_backend_disabled_exits_2(self, monkeypatch, capsys):
        """With every rung switched off, ``auto`` names the switch and
        the CLI exits 2 instead of dying with a traceback."""
        from repro.cli import main
        from repro.engine import DISABLE_ENV

        monkeypatch.setenv(DISABLE_ENV, "scalar,numpy,native")
        assert main(["table4", "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and DISABLE_ENV in err

    def test_run_quick_experiment(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["table3"])
        assert run(args) == 0
        assert "4065" in capsys.readouterr().out

    def test_quick_flag_shrinks_settings(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["pim", "--quick"])
        assert run(args) == 0


class TestCliDispatch:
    """The dispatch layer forwards every flag it claims to support."""

    def _capture(self, monkeypatch, module, argv):
        captured = {}

        def fake_main(**kwargs):
            captured.update(kwargs)
            return ""

        monkeypatch.setattr(module, "main", fake_main)
        args = build_parser().parse_args(argv)
        assert run(args) == 0
        return captured

    def test_extension_double_device_receives_trials(self, monkeypatch):
        """Regression: dispatch used to call main(backend=...) only,
        silently dropping --trials and --quick for this experiment."""
        from repro import cli

        captured = self._capture(
            monkeypatch,
            cli.extension_double_device,
            ["extension-double-device", "--trials", "7"],
        )
        assert captured["trials"] == 7

    def test_quick_never_grows_an_experiment(self, monkeypatch):
        """--quick takes min(FAST_SETTINGS, published default): it
        shrinks table4's 10k trials but must not inflate
        extension-double-device's 400 to 2000."""
        from repro import cli

        captured = self._capture(
            monkeypatch,
            cli.extension_double_device,
            ["extension-double-device", "--quick"],
        )
        assert captured["trials"] == cli.extension_double_device.DEFAULT_TRIALS
        captured = self._capture(
            monkeypatch, cli.table4, ["table4", "--quick"]
        )
        assert captured["trials"] == cli.FAST_SETTINGS["trials"]

    @pytest.mark.parametrize(
        "experiment",
        ["table4", "ablation-shuffle", "ablation-frontier",
         "extension-double-device"],
    )
    def test_monte_carlo_flags_threaded(self, monkeypatch, experiment):
        from repro import cli

        module = {
            "table4": cli.table4,
            "ablation-shuffle": cli.ablation_shuffle,
            "ablation-frontier": cli.ablation_frontier,
            "extension-double-device": cli.extension_double_device,
        }[experiment]
        captured = self._capture(
            monkeypatch,
            module,
            [experiment, "--seed", "9", "--jobs", "3",
             "--chunk-size", "128", "--trials", "50"],
        )
        assert captured["seed"] == 9
        assert captured["jobs"] == 3
        assert captured["chunk_size"] == 128
        assert captured["trials"] == 50

    @pytest.mark.parametrize(
        "experiment", ["table4", "ablation-shuffle", "ablation-frontier"]
    )
    def test_adaptive_flags_threaded(self, monkeypatch, experiment):
        from repro import cli

        module = {
            "table4": cli.table4,
            "ablation-shuffle": cli.ablation_shuffle,
            "ablation-frontier": cli.ablation_frontier,
        }[experiment]
        captured = self._capture(
            monkeypatch,
            module,
            [experiment, "--adaptive", "--ci-target", "0.2",
             "--max-trials", "5000"],
        )
        assert captured["adaptive"] is True
        assert captured["ci_target"] == 0.2
        assert captured["max_trials"] == 5000

    def test_adaptive_not_forced_without_flag(self, monkeypatch):
        from repro import cli

        captured = self._capture(monkeypatch, cli.table4, ["table4"])
        assert "adaptive" not in captured

    def test_adaptive_rejected_for_non_msed_experiments(self, capsys):
        args = build_parser().parse_args(
            ["extension-double-device", "--adaptive"]
        )
        assert run(args) == 2
        assert "--adaptive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["table4", "--ci-target", "0.2"], ["table4", "--max-trials", "500"]],
    )
    def test_adaptive_tuning_flags_require_adaptive(self, capsys, argv):
        """Regression (same class as the extension --trials bug): the
        tuning flags must refuse, not silently run fixed-budget."""
        assert run(build_parser().parse_args(argv)) == 2
        assert "--adaptive" in capsys.readouterr().err

    def test_trials_rejected_with_adaptive(self, capsys):
        """Mirror guard: --adaptive ignores a fixed budget, so an
        explicit --trials must refuse and point at --max-trials."""
        args = build_parser().parse_args(
            ["table4", "--adaptive", "--trials", "500"]
        )
        assert run(args) == 2
        assert "--max-trials" in capsys.readouterr().err

    def test_quick_adaptive_caps_the_ceiling(self, monkeypatch):
        """--quick must stay a preview in adaptive mode: without an
        explicit --max-trials the ceiling is the quick trial budget,
        not the 10^6 default."""
        from repro import cli

        captured = self._capture(
            monkeypatch, cli.table4, ["table4", "--quick", "--adaptive"]
        )
        assert captured["adaptive"] is True
        assert captured["max_trials"] == cli.FAST_SETTINGS["trials"]
        captured = self._capture(
            monkeypatch,
            cli.table4,
            ["table4", "--quick", "--adaptive", "--max-trials", "9999"],
        )
        assert captured["max_trials"] == 9999  # explicit flag wins

    def test_figure_traces_receive_seed(self, monkeypatch):
        """--seed also reseeds the trace-sampling figures, not just the
        Monte-Carlo experiments (same flag-dropping class as the
        extension --trials regression)."""
        from repro.experiments import figure6

        captured = self._capture(
            monkeypatch, figure6, ["figure6", "--seed", "42"]
        )
        assert captured["seed"] == 42

    def test_defaults_left_to_each_experiment(self, monkeypatch):
        """Without flags, per-experiment published defaults apply (no
        trials/seed/chunk_size kwargs are forced on the experiment)."""
        from repro import cli

        captured = self._capture(
            monkeypatch, cli.extension_double_device,
            ["extension-double-device"],
        )
        assert "trials" not in captured
        assert "seed" not in captured
        assert "chunk_size" not in captured
        assert captured["jobs"] == 1


class TestTable4Report:
    """Regression: reports print 'rate [lo, hi] @ 95%' with trial
    counts, never bare rates, in both fixed and adaptive modes."""

    def test_fixed_budget_report_includes_intervals(self, capsys):
        from repro.experiments import table4

        report, details = table4.main(trials=300, seed=2)
        assert "@95%" in report
        assert "[" in report and "]" in report
        assert "n=300" in report
        assert details["total_trials"] == 3000  # 10 points x 300
        for point in details["points"]:
            assert point["trials_used"] == 300
            lo, hi = point["msed_ci_95"]
            assert 0.0 <= lo <= point["msed_percent"] / 100.0 <= hi <= 1.0
            lo, hi = point["failure_ci_95"]
            assert 0.0 <= lo <= hi <= 1.0

    def test_adaptive_report_shows_trials_spent(self):
        from repro.experiments import table4
        from repro.reliability.sampling.sequential import AdaptivePolicy

        policy = AdaptivePolicy(
            ci_target=0.5, metric="failure", initial_trials=100,
            max_trials=400,
        )
        table = table4.build(seed=2, adaptive=policy)
        report = table4.render(table)
        assert "adaptive sampling" in report
        assert "ceiling 400" in report
        details = table4.details(table)
        assert details["adaptive"]["max_trials"] == 400
        assert {p["converged"] for p in details["points"]} <= {True, False}

    def test_adaptive_stopping_decisions_are_pinned(self):
        """The campaign's per-point stopping decisions at the CLI's
        ``--adaptive --ci-target 0.3 --max-trials 4000``, literally: a
        scheduler edit that moves any point's ``n=`` fails here."""
        from repro.experiments import table4
        from repro.reliability.sampling.sequential import policy_from_cli

        table = table4.build(seed=2022, adaptive=policy_from_cli(0.3, 4000))
        used = [p["trials_used"] for p in table4.details(table)["points"]]
        assert used == [
            2393, 2521, 1805, 1000, 1000, 1000,  # MUSE +0..5b
            4000, 1975, 1000, 1000,  # RS +0/2/4/6b
        ]
        assert sum(used) == 17_694

    @pytest.mark.parametrize(
        "shape",
        [
            *(
                pytest.param({"backend": backend}, id=f"backend-{backend}")
                for backend in available_backends()
            ),
            pytest.param({"jobs": 2, "chunk_size": 517}, id="jobs2-chunk517"),
            pytest.param({"distribute": "local:2"}, id="local2"),
        ],
    )
    def test_stopping_decisions_match_on_every_path(self, shape):
        """The pinned decisions above hold on every backend, over a
        process pool with an odd chunk size, and on a 2-worker
        loopback fleet: allocation reads only the folded tallies."""
        from repro.experiments import table4
        from repro.reliability.sampling.sequential import policy_from_cli

        table = table4.build(
            seed=2022, adaptive=policy_from_cli(0.3, 4000), **shape
        )
        used = [p["trials_used"] for p in table4.details(table)["points"]]
        assert used == [
            2393, 2521, 1805, 1000, 1000, 1000,  # MUSE +0..5b
            4000, 1975, 1000, 1000,  # RS +0/2/4/6b
        ]

    def test_zero_event_points_run_to_the_ceiling_at_a_loose_target(self):
        """rowfail's RS +0b and +4b points flag every failed row, so
        their failure tallies stay at 0 events: at a relative target of
        0.5 they still double to the ceiling, and the footer counts
        them as having hit it."""
        from repro.experiments import table4
        from repro.reliability.sampling.sequential import policy_from_cli

        table = table4.build(
            adaptive=policy_from_cli(0.5, 20_000), scenario="rowfail"
        )
        report = table4.render(table)
        ceiling = [
            (p["family"], p["extra_bits"])
            for p in table4.details(table)["points"]
            if p["trials_used"] == 20_000 and not p["converged"]
        ]
        assert ceiling == [("RS", 0), ("RS", 4)]
        assert report.rstrip().endswith("8 converged, 2 hit the ceiling")
        assert "out of budget" not in report

    def test_ablation_reports_include_intervals(self):
        from repro.experiments import ablation_shuffle

        rows = ablation_shuffle.msed_sweep(trials=400, seed=2)
        text = ablation_shuffle.render_msed(rows)
        assert "[lo, hi] @95%" in text
        assert all(row.trials == 400 for row in rows)
        assert all(
            row.msed_lo <= row.msed_percent <= row.msed_hi for row in rows
        )


def run_probe(probe: str) -> str:
    """Run ``probe`` in a fresh interpreter on this checkout's source;
    its stdout, stripped."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={
            **os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else ""),
        },
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.strip()


def loaded_after(statement: str, modules: tuple[str, ...]) -> str:
    """Which of ``modules`` (each with its submodules) a fresh
    interpreter holds after running ``statement``, as a sorted list."""
    return run_probe(
        "import sys\n"
        f"{statement}\n"
        f"wanted = {modules!r}\n"
        "print(sorted(name for name in sys.modules if any(\n"
        "    name == w or name.startswith(w + '.') for w in wanted)))\n"
    )


#: The packages whose exports load their modules on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.orchestrate",
    "repro.reliability",
    "repro.reliability.sampling",
    "repro.telemetry",
    "repro.distribute",
)


requires_native = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler, or disabled)",
)


class TestImports:
    def test_table4_import_loads_no_other_experiment(self):
        """``import repro.experiments.table4`` — what every library
        caller and the benchmark's set-up probe pay — loads Table IV's
        stack alone: not the other experiments, and not the Figure-6
        CPU simulator behind them."""
        loaded = loaded_after(
            "import repro.experiments.table4",
            ("repro.experiments.figure6", "repro.perf.simulator"),
        )
        assert loaded == "[]"

    def test_table4_import_loads_no_fleet_sweep_or_campaign(self):
        """A plain Table-IV run uses none of the fleet, the sweep, the
        adaptive campaign or a process pool, so importing it loads none
        of them."""
        loaded = loaded_after(
            "import repro.experiments.table4",
            (
                "repro.distribute",
                "repro.orchestrate.sweep",
                "repro.reliability.sampling.scheduler",
                "concurrent.futures.process",
                "socketserver",
            ),
        )
        assert loaded == "[]"

    def test_worker_import_loads_no_coordinator_journal_or_cache(self):
        """A loopback or remote worker runs chunks: it never loads the
        coordinator, the checkpoint journal or the result cache."""
        loaded = loaded_after(
            "import repro.distribute.worker",
            (
                "repro.distribute.coordinator",
                "repro.distribute.checkpoint",
                "repro.distribute.cache",
            ),
        )
        assert loaded == "[]"

    @requires_native
    @pytest.mark.parametrize("scenario", ["msed", "mbu"])
    def test_fused_native_table4_run_never_imports_numpy(self, scenario):
        """A native ``table4`` run whose chunks all run fused (msed and
        mbu at k = 2) computes nothing on ndarrays: its tables, stream
        keys and counts are stdlib buffers, so it never imports numpy."""
        loaded = loaded_after(
            "import contextlib, io\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['table4', '--trials', '1000', '--backend',\n"
            f"                 'native', '--scenario', {scenario!r}]) == 0",
            ("numpy",),
        )
        assert loaded == "[]"

    @requires_native
    def test_fused_worker_chunk_never_imports_numpy(self):
        """A fleet worker pays no numpy import for a fused chunk."""
        loaded = loaded_after(
            "import repro.distribute.worker\n"
            "from repro.orchestrate.plan import Chunk\n"
            "from repro.orchestrate.rng import derive_key\n"
            "from repro.orchestrate.worker import (\n"
            "    ChunkTask, CodeRef, MuseSimSpec, run_chunk_task)\n"
            "spec = MuseSimSpec(CodeRef(\n"
            "    'repro.reliability.monte_carlo:muse_design_point', (1,)),\n"
            "    backend='native')\n"
            "_, _, tally = run_chunk_task(\n"
            "    ChunkTask(0, spec, Chunk(0, 4096), derive_key(2022)))\n"
            "assert tally.trials == 4096, tally",
            ("numpy",),
        )
        assert loaded == "[]"

    def test_every_lazy_export_resolves(self):
        """In a fresh interpreter, every name in each lazy package's
        ``__all__`` (and each experiment the CLI exposes) resolves and
        is listed by ``dir()``, an alias is its source's object, and an
        unknown name is an AttributeError."""
        probe = (
            "import importlib\n"
            f"for package in {LAZY_PACKAGES!r} + ('repro.cli',):\n"
            "    module = importlib.import_module(package)\n"
            "    names = getattr(module, '__all__', (\n"
            "        'table4', 'ablation_shuffle', 'ablation_frontier',\n"
            "        'extension_double_device'))\n"
            "    for name in names:\n"
            "        getattr(module, name)\n"
            "        assert name in dir(module), (package, name)\n"
            "    try:\n"
            "        module.no_such_export\n"
            "    except AttributeError as exc:\n"
            "        assert 'no_such_export' in str(exc)\n"
            "    else:\n"
            "        raise SystemExit(package + ' resolved an unknown name')\n"
            "import repro.core.naming\n"
            "assert repro.core.parse_error_class is repro.core.naming.parse\n"
            "print('ok')\n"
        )
        assert run_probe(probe) == "ok"
