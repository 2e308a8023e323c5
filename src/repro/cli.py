"""Command-line entry point: ``repro-muse <experiment> [options]``.

Examples
--------
::

    repro-muse table1                      # regenerate Table I searches
    repro-muse table4 --trials 1000000 --jobs 8   # rare-tail Table IV
    repro-muse table4 --chunk-size 65536 --seed 7 # streamed, reseeded
    repro-muse table4 --adaptive --ci-target 0.1  # stop when CIs tighten
    repro-muse table4 --adaptive --cache-dir cache  # reuse earlier chunks
    repro-muse figure6 --quick             # 3-benchmark, short-trace preview
    repro-muse all --jobs 4 --results-dir results  # concurrent sweep
    repro-muse table4 --distribute local:4 # loopback coordinator + 4 workers
    repro-muse coordinator --run table4 --port 7000 --trials 100000000 \\
        --checkpoint-dir ckpt              # serve chunks to remote workers
    repro-muse worker --connect host:7000  # join a coordinator's queue
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from repro._lazy import lazy_exports
from repro.engine import BACKENDS
from repro.orchestrate.sweep import (
    EXPERIMENT_TARGETS,
    ExperimentTask,
    resolve_experiment,
    run_all,
)

# An experiment's module loads when its run first needs it, so
# ``repro-muse table4`` never imports the ablations.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.experiments": (
        "ablation_frontier",
        "ablation_shuffle",
        "extension_double_device",
        "table4",
    ),
})

FAST_SETTINGS = {
    "trials": 2000,
    "mem_ops": 20_000,
    "attempts": 40_000,
    "benchmarks": 3,
}

#: The experiments whose Monte-Carlo loops accept the streaming /
#: sharding options (--trials/--seed/--jobs/--chunk-size).
MONTE_CARLO_EXPERIMENTS = (
    "table4", "ablation-shuffle", "ablation-frontier", "extension-double-device",
)


def published_trials(name: str) -> int:
    """A Monte-Carlo experiment's published per-point trial default,
    its module's ``DEFAULT_TRIALS`` (--quick takes the smaller of
    FAST_SETTINGS and it — a preview never does more work)."""
    module_name = EXPERIMENT_TARGETS[name].partition(":")[0]
    return importlib.import_module(module_name).DEFAULT_TRIALS

#: The MSED experiments: their chunk grids run through the shared
#: design-point runner, so they alone accept the adaptive campaign
#: (--adaptive/--ci-target/--max-trials), a coordinator/worker session
#: (--distribute/--checkpoint-dir/--resume; their MsedTally specs are
#: wire-registered), --scenario, --cache-dir, --progress and
#: --telemetry-dir.  extension-double-device tallies erasure
#: recoveries, not MSED rates, so it takes none of them.
MSED_EXPERIMENTS = ("table4", "ablation-shuffle", "ablation-frontier")

#: The flags only MSED_EXPERIMENTS (or 'all') accept, in the order the
#: guards check them: a flag on any other experiment would silently do
#: nothing, so it refuses instead.
MSED_ONLY_FLAGS = (
    "--distribute", "--scenario", "--progress", "--adaptive",
    "--cache-dir", "--telemetry-dir",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-muse",
        description=(
            "Regenerate the tables and figures of 'Revisiting Residue "
            "Codes for Modern Memories' (MICRO 2022)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1", "figure1b", "table3", "table4", "table5",
            "figure6", "figure7", "rowhammer", "pim",
            "ablation-shuffle", "ablation-frontier",
            "extension-double-device", "all",
            "coordinator", "worker", "report",
        ],
        help=(
            "which paper artifact to regenerate — or 'coordinator' / "
            "'worker', the two halves of a distributed run, or "
            "'report', the post-hoc telemetry summary of a run "
            "directory"
        ),
    )
    parser.add_argument(
        "target", nargs="?", default=None, metavar="RUNDIR",
        help=(
            "(report) the telemetry run directory (a --telemetry-dir "
            "from an earlier run) to summarise"
        ),
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help=(
            "Monte-Carlo trials per design point (table4, ablations, "
            "extension-double-device; default: each experiment's "
            "published setting)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help=(
            "master Monte-Carlo seed for the trial streams (default: "
            "each experiment's published seed); tallies at a fixed seed "
            "are independent of --jobs/--chunk-size/--backend"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help=(
            "worker processes: fans design-point chunks (table4, "
            "ablations, extension-double-device) or whole experiments "
            "('all') over a process pool"
        ),
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help=(
            "trials per streamed chunk (default 65536); bounds peak "
            "memory — a 10^6-trial run only ever materialises one "
            "chunk per worker"
        ),
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help=(
            "drive the MSED Monte-Carlo by statistical need instead of "
            "a fixed budget: each design point stops once its failure-"
            "rate confidence interval is tight (table4, ablations); "
            "ignores --trials"
        ),
    )
    parser.add_argument(
        "--ci-target", type=float, default=None,
        help=(
            "adaptive stopping tolerance: relative 95%% CI half-width "
            "on the target rate (default 0.1, i.e. +-10%% of the rate)"
        ),
    )
    parser.add_argument(
        "--max-trials", type=int, default=None,
        help=(
            "adaptive trial ceiling per design point (default 1000000); "
            "points whose interval never tightens stop here"
        ),
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "cross-run result cache keyed by (seed stream, spec "
            "fingerprint): chunks computed by any earlier run fold "
            "straight from disk with zero new trials, fixed-budget or "
            "--adaptive, in process, with --jobs or --distribute "
            "(table4, ablations; backend-portable, since all backends "
            "tally byte-identically)"
        ),
    )
    from repro.scenarios import scenario_names

    parser.add_argument(
        "--scenario",
        choices=scenario_names(),
        default=None,
        help=(
            "fault scenario for the MSED Monte-Carlo (table4, "
            "ablations; the table in repro.scenarios): 'msed' is the "
            "paper's transient k-symbol model; "
            "'mbu'/'stuck'/'rowfail'/'scrub'/'wear' "
            "inject correlated bursts, permanent faults, row "
            "failures, scrub-interval accumulation, and wear-dependent "
            "flips; every scenario tallies byte-identically across "
            "--backend/--chunk-size/--jobs/--distribute at a fixed seed"
        ),
    )
    parser.add_argument(
        "--mem-ops", type=int, default=120_000,
        help="memory operations per workload trace (figure6/figure7)",
    )
    parser.add_argument(
        "--attempts", type=int, default=200_000,
        help="attack attempts per hash width (rowhammer)",
    )
    parser.add_argument(
        "--benchmarks", type=int, default=None,
        help="limit figure6/figure7 to the first N workloads",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small trial counts and traces for a fast preview",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", *BACKENDS],
        default="auto",
        help=(
            "decode engine for the Monte-Carlo experiments ('scalar' is "
            "the big-int reference path, 'numpy' vectorises batches, "
            "'native' runs self-compiled fused C kernels); 'auto' picks "
            "the fastest backend that can run each code on this host (table4, "
            "ablations, extension-double-device; also the worker "
            "subcommand's engine override)"
        ),
    )
    parser.add_argument(
        "--results-dir", default=None,
        help=(
            "directory for rendered reports + summary.json ('all'; "
            "created if missing)"
        ),
    )
    parser.add_argument(
        "--distribute", default=None, metavar="SPEC",
        help=(
            "fan the Monte-Carlo chunk grid over a coordinator/worker "
            "session: 'local:N' spawns N loopback worker subprocesses, "
            "'listen:PORT' (or 'listen:HOST:PORT') waits for external "
            "'repro-muse worker' processes (table4, ablations; 'all' "
            "supports local:N only); tallies stay byte-identical to "
            "--jobs 1"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help=(
            "journal every folded chunk to this directory (atomic "
            "writes; requires --distribute) so an interrupted run can "
            "--resume; 'all' gives each experiment a subdirectory"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=(
            "resume from --checkpoint-dir: completed chunks replay from "
            "the journal and the final tally is byte-identical to an "
            "uninterrupted run"
        ),
    )
    parser.add_argument(
        "--progress", action="store_true",
        help=(
            "print progress to stderr, the same lines on every path "
            "(in process, --jobs, --distribute): computed chunks done "
            "/ total and elapsed time, at most once a second, plus "
            "each --adaptive round's per-point trial allocation "
            "(table4, ablations); stdout reports are unchanged"
        ),
    )
    parser.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help=(
            "deterministic fault injection for distributed runs (also "
            "settable via REPRO_CHAOS): comma-separated rules like "
            "'seed=7,reset=0.1,torn=0.05,crash=@2,hang=0.1:0.5,"
            "dup=0.2,journal=@3' — probabilities fire per event, @K "
            "fires once on the K-th event; tallies stay byte-identical "
            "to --jobs 1 under every fault class"
        ),
    )
    parser.add_argument(
        "--telemetry-dir", default=None,
        help=(
            "record the run's telemetry there: an append-only CRC'd "
            "events.jsonl, a Prometheus textfile (metrics.prom), and "
            "an end-of-run run-manifest.json (table4, ablations, "
            "coordinator, worker; 'all' gives each experiment a "
            "subdirectory); summarise later with 'repro-muse report "
            "DIR'; never changes tallies"
        ),
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="(worker) coordinator address to pull chunk tasks from",
    )
    parser.add_argument(
        "--run", default=None, choices=MSED_EXPERIMENTS,
        help="(coordinator) which experiment to serve",
    )
    parser.add_argument(
        "--host", default="0.0.0.0",
        help="(coordinator) bind address (default 0.0.0.0)",
    )
    parser.add_argument(
        "--port", type=int, default=None,
        help="(coordinator) port to serve the chunk queue on",
    )
    return parser


def experiment_kwargs(args: argparse.Namespace) -> dict[str, dict]:
    """Per-experiment keyword arguments from the parsed namespace.

    ``None`` values are omitted so each experiment keeps its own
    published defaults (e.g. extension-double-device's 400 trials vs
    table4's 10,000) unless the user overrides them.
    """
    mem_ops = FAST_SETTINGS["mem_ops"] if args.quick else args.mem_ops
    attempts = FAST_SETTINGS["attempts"] if args.quick else args.attempts
    benchmarks = FAST_SETTINGS["benchmarks"] if args.quick else args.benchmarks

    def monte_carlo(name: str) -> dict:
        kw = {"backend": args.backend}
        if args.quick:
            kw["trials"] = min(FAST_SETTINGS["trials"], published_trials(name))
        elif args.trials is not None:
            kw["trials"] = args.trials
        if args.seed is not None:
            kw["seed"] = args.seed
        if args.chunk_size is not None:
            kw["chunk_size"] = args.chunk_size
        if name not in MSED_EXPERIMENTS:
            return kw
        if args.distribute is not None:
            kw["distribute"] = args.distribute
            if args.checkpoint_dir is not None:
                # An 'all' sweep journals each experiment in its own
                # subdirectory so the journals can never collide.
                kw["checkpoint_dir"] = (
                    os.path.join(args.checkpoint_dir, name)
                    if args.experiment == "all"
                    else args.checkpoint_dir
                )
                if args.resume:
                    kw["resume"] = True
        if args.progress:
            kw["progress"] = True
        if args.cache_dir is not None:
            # One shared directory is safe (and useful) across
            # experiments: cells are keyed by (stream key, spec
            # fingerprint), so different experiments can never collide
            # but identical design points are shared.
            kw["cache_dir"] = args.cache_dir
        if args.scenario is not None:
            kw["scenario"] = args.scenario
        if args.telemetry_dir is not None:
            # Like --checkpoint-dir: an 'all' sweep gives each
            # experiment its own run directory so two event logs can
            # never interleave.
            kw["telemetry_dir"] = (
                os.path.join(args.telemetry_dir, name)
                if args.experiment == "all"
                else args.telemetry_dir
            )
        if args.adaptive:
            kw["adaptive"] = True
            if args.ci_target is not None:
                kw["ci_target"] = args.ci_target
            if args.max_trials is not None:
                kw["max_trials"] = args.max_trials
            elif args.quick:
                # A preview must stay a preview: without an explicit
                # ceiling, cap the adaptive run at the quick budget
                # instead of the 10^6-trial default.
                kw["max_trials"] = kw["trials"]
        return kw

    trace = {"mem_ops": mem_ops}
    if args.seed is not None:
        trace["seed"] = args.seed  # figure6/figure7 sample traces too
    if benchmarks is not None:
        trace["benchmarks"] = benchmarks

    return {
        "table1": {},
        "figure1b": {},
        "table3": {},
        "table4": monte_carlo("table4"),
        "table5": {},
        "figure6": dict(trace),
        "figure7": dict(trace),
        "rowhammer": {"attempts": attempts},
        "pim": {},
        "ablation-shuffle": monte_carlo("ablation-shuffle"),
        "ablation-frontier": monte_carlo("ablation-frontier"),
        "extension-double-device": monte_carlo("extension-double-device"),
    }


def run(args: argparse.Namespace) -> int:
    if args.experiment == "report":
        if args.target is None:
            print(
                "error: report mode needs a RUNDIR (a --telemetry-dir "
                "from an earlier run)",
                file=sys.stderr,
            )
            return 2
        from repro.telemetry import render_report

        print(render_report(args.target))
        return 0
    if args.target is not None:
        print(
            "error: the RUNDIR positional only applies to "
            "'repro-muse report'",
            file=sys.stderr,
        )
        return 2
    if args.chaos is not None:
        from repro.distribute import parse_chaos

        try:
            parse_chaos(args.chaos)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.experiment == "worker":
        return _run_worker(args)
    if args.experiment == "coordinator":
        if args.run is None or args.port is None:
            print(
                "error: coordinator mode needs --run EXPERIMENT and "
                "--port PORT",
                file=sys.stderr,
            )
            return 2
        # A coordinator is just the named experiment serving its chunk
        # queue to external workers instead of spawning loopback ones.
        args.experiment = args.run
        args.distribute = f"listen:{args.host}:{args.port}"
    elif args.connect is not None:
        print(
            "error: --connect only applies to 'repro-muse worker'",
            file=sys.stderr,
        )
        return 2
    elif args.run is not None or args.port is not None:
        print(
            "error: --run/--port only apply to 'repro-muse coordinator'",
            file=sys.stderr,
        )
        return 2
    if args.experiment not in MSED_EXPERIMENTS + ("all",):
        for flag in MSED_ONLY_FLAGS:
            if getattr(args, flag[2:].replace("-", "_")) not in (None, False):
                print(
                    f"error: {flag} applies to "
                    f"{', '.join(MSED_EXPERIMENTS)} (or 'all'), "
                    f"not {args.experiment}",
                    file=sys.stderr,
                )
                return 2
    if (
        args.experiment == "all"
        and args.distribute is not None
        and args.distribute.startswith("listen")
    ):
        # Workers exit when an experiment's session shuts down and do
        # not reconnect (yet — see ROADMAP), so a listen-mode sweep
        # would hang waiting for a fleet that already left after the
        # first experiment.
        print(
            "error: 'all' cannot use --distribute listen:... (workers "
            "do not reconnect between experiments); use --distribute "
            "local:N, or run experiments individually via "
            "'repro-muse coordinator --run ...'",
            file=sys.stderr,
        )
        return 2
    if args.chaos is not None and args.distribute is None:
        # Chaos wraps the distributed transport/worker loop; without a
        # session there is nothing to inject into — refuse rather than
        # silently running clean (the flag-dropping regression class).
        print(
            "error: --chaos requires --distribute (or the worker/"
            "coordinator subcommands)",
            file=sys.stderr,
        )
        return 2
    if args.chaos is not None:
        from repro.distribute import CHAOS_ENV

        # The environment variable is the one channel every consumer
        # reads — the coordinator session, and (by inheritance) every
        # worker subprocess the loopback fleet spawns.  Set only after
        # the guards pass so a refused invocation leaves no trace.
        os.environ[CHAOS_ENV] = args.chaos
    if args.checkpoint_dir is not None and args.distribute is None:
        print(
            "error: --checkpoint-dir requires --distribute (use "
            "'--distribute local:1' for a single-host resumable run)",
            file=sys.stderr,
        )
        return 2
    if args.resume and args.checkpoint_dir is None:
        print(
            "error: --resume requires --checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    if not args.adaptive and (
        args.ci_target is not None or args.max_trials is not None
    ):
        # The same flag-dropping class the extension --trials regression
        # fixed: refuse rather than silently run fixed-budget.
        print(
            "error: --ci-target/--max-trials only apply with --adaptive",
            file=sys.stderr,
        )
        return 2
    if args.adaptive and args.trials is not None:
        # Mirror image of the guard above: adaptive mode ignores a fixed
        # trial budget, so an explicit --trials would silently do nothing.
        print(
            "error: --trials does not apply with --adaptive; "
            "use --max-trials for the per-point ceiling",
            file=sys.stderr,
        )
        return 2
    kwargs = experiment_kwargs(args)

    if args.experiment == "all":
        # Experiments parallelise across the pool; each runs its own
        # Monte-Carlo single-process (no nested pools).  Reports stream
        # as experiments finish — held back only as long as needed to
        # keep presentation order — so a long sweep shows progress and
        # a mid-sweep failure keeps everything already completed.
        tasks = [
            ExperimentTask.make(name, kwargs[name]) for name in EXPERIMENT_TARGETS
        ]
        order = [task.name for task in tasks]
        ready: dict[str, str] = {}
        emitted = 0

        def header(name: str) -> str:
            return f"\n=== {name} " + "=" * max(0, 60 - len(name))

        def emit(outcome) -> None:
            nonlocal emitted
            ready[outcome.name] = outcome.report
            while emitted < len(order) and order[emitted] in ready:
                name = order[emitted]
                print(header(name))
                print(ready.pop(name))
                emitted += 1

        from repro.distribute import (
            DistributedDegraded,
            DistributedInterrupted,
        )

        try:
            run_all(
                tasks,
                jobs=args.jobs,
                results_dir=args.results_dir,
                on_outcome=emit,
            )
        except DistributedInterrupted as exc:
            print(
                f"interrupted: {exc}\nre-run with --resume to continue "
                f"from the checkpoint",
                file=sys.stderr,
            )
            return 3
        except DistributedDegraded as exc:
            print(f"degraded: {exc}", file=sys.stderr)
            return 4
        finally:
            # Only non-empty when a failure interrupted the sweep:
            # completed experiments held back for presentation order
            # still get shown, just marked out of order.
            for name in order[emitted:]:
                if name in ready:
                    print(header(name) + " (out of order)")
                    print(ready.pop(name))
        if args.results_dir is not None:
            print(f"\nreports + summary.json written to {args.results_dir}/")
        return 0

    call_kwargs = kwargs[args.experiment]
    if args.experiment in MONTE_CARLO_EXPERIMENTS:
        call_kwargs["jobs"] = args.jobs
    from repro.distribute import DistributedDegraded, DistributedInterrupted

    try:
        # One registry (sweep.EXPERIMENT_TARGETS) backs both direct
        # dispatch and the 'all' sweep, so an experiment can't exist in
        # one but not the other.
        resolve_experiment(args.experiment)(**call_kwargs)
    except DistributedInterrupted as exc:
        print(
            f"interrupted: {exc}\nre-run with --resume to continue from "
            f"the checkpoint",
            file=sys.stderr,
        )
        return 3
    except DistributedDegraded as exc:
        # Exit 4 ≠ exit 3: degraded means the *fleet or a chunk* failed
        # (not an operator interrupt), but the partial-results report +
        # checkpoint make the run finishable with --resume.
        print(f"degraded: {exc}", file=sys.stderr)
        return 4
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    """``repro-muse worker --connect HOST:PORT``: serve one worker."""
    if args.connect is None:
        print(
            "error: worker mode needs --connect HOST:PORT",
            file=sys.stderr,
        )
        return 2
    host, sep, port = args.connect.rpartition(":")
    if not sep or not host or not port.isdigit():
        print(
            f"error: bad --connect address {args.connect!r}; expected "
            f"HOST:PORT",
            file=sys.stderr,
        )
        return 2
    from repro.distribute import serve_worker
    from repro.telemetry import telemetry_session

    # An external worker gets its own (operator-chosen, per-worker)
    # run directory: its decode spans and engine builds land there,
    # while its counters still flow to the coordinator over the wire.
    with telemetry_session(
        args.telemetry_dir,
        experiment="worker",
        backend=args.backend,
        connect=args.connect,
    ):
        executed = serve_worker(
            host, int(port), backend=args.backend, chaos=args.chaos
        )
    print(f"worker done: {executed} chunks executed", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.engine import BackendUnavailableError

    try:
        return run(args)
    except BackendUnavailableError as exc:
        # Unavailable backends stay listed in --backend choices (the
        # list is host-independent); an explicit request for one fails
        # here with the availability story instead of a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
