"""Table-IV benchmark: trials/s, set-up and fidelity, untraced or traced.

    python3 perfbench/run.py --workload table4-msed --seed 2022 \
        --seconds 25 --trace 0

Workloads (each a full Table-IV build over the 10 design points, load
from one process): ``table4-msed`` (fused draw->decode->tally kernels),
``table4-mbu`` (scenario generate-then-decode) and ``table4-fleet``
(the msed build over a loopback ``local:2`` fleet with a fsync'd
checkpoint journal).  ``--trace 0`` prints the end-to-end metrics
measured with tracing off; ``--trace 1`` runs the builds again with
benchmark-side spans and prints the per-layer metrics.  The last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a wrong output makes the exit code 1, a host whose auto
backend is not ``native`` exits 3 (not comparable, not scored), and a
directory without the program's ``src/`` exits 2.

Everything the run writes stays under ``.perfbench/`` beside
``perfbench/``: the compiled-kernel cache, per-run scratch (removed at
exit), ``results/*.json`` (environment record + every metric) and
``traces/*.jsonl`` (spans of traced runs).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Local modules; each imports the program (``repro``) only inside
# functions, after prepare_environment() has put ``src/`` on the path.
import layers
from envinfo import environment
from tracing import LAYERS, Tracer
from workloads import (
    FLEET_WORKERS,
    POINTS,
    WORKLOADS,
    Builder,
    Checks,
    build_seed,
    check_backends,
    check_fidelity,
    check_identical,
    check_sums,
    digest,
    fastest_tenth,
    msed_err_pp,
    peak_rss_mb,
    pooled_msed_percent,
    run_builds,
)

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
STATE = ROOT_DIR / ".perfbench"

DEFAULT_SEED = 2022
SETUP_REPEATS = 7
SPAWN_REPEATS = 2
#: Fresh-process builds whose largest VmHWM is peak_rss_mb.
RSS_BUILDS = 5
PROBE_TIMEOUT_S = 120
#: Trials per point of the warm-up build that fills caches first.
WARMUP_TRIALS = 20_000

END_TO_END = {
    "trials_per_s": "1/s",
    "cpu_s_per_mtrial": "s/Mtrial",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "msed_err_pp": "pp",
}

SETUP_LAYERS = (
    "import.repro_s",
    "reliability.design_points_s",
    "engine.probe_s",
    "engine.build_s",
)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SETUP_LAYERS}
    units["engine.cc_compile_cold_s"] = "s"
    units["distribute.spawn_s"] = "s"
    units["engine.muse_fused_ns_per_trial"] = "ns/trial"
    units["rs.fused_ns_per_trial"] = "ns/trial"
    units["engine.fused_hit_frac"] = "frac"
    for label in POINTS:
        units[f"point.{label}.ns_per_trial"] = "ns/trial"
    units["scenarios.generate_ns_per_trial"] = "ns/trial"
    units["engine.decode_batch_ns_per_trial"] = "ns/trial"
    units["rs.decode_batch_ns_per_trial"] = "ns/trial"
    units["reliability.fold_ns_per_chunk"] = "ns/chunk"
    units["distribute.chunk_gap_ms.p50"] = "ms"
    units["distribute.chunk_gap_ms.p99"] = "ms"
    units["distribute.overhead_frac"] = "frac"
    units["distribute.wire_us_per_task"] = "us/task"
    units["distribute.journal_us_per_chunk"] = "us/chunk"
    for counter in ("requeues", "rejoins", "protocol_errors"):
        units[f"distribute.{counter}"] = "count"
    for layer in LAYERS:
        units[f"selftime.{layer}_frac"] = "frac"
    units["trace.coverage_frac"] = "frac"
    units["trace.untraced_trials_per_s"] = "1/s"
    units["trace.traced_trials_per_s"] = "1/s"
    units["trace.overhead_frac"] = "frac"
    units["telemetry.cpu_overhead_frac"] = "frac"
    units["telemetry.noise_floor_frac"] = "frac"
    units["failed_frac"] = "frac"
    return units


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare_environment() -> None:
    """Point imports, subprocesses and caches at this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    for sub in ("native-cache", "tmp"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    os.environ["REPRO_NATIVE_CACHE"] = str(STATE / "native-cache")
    os.environ["TMPDIR"] = str(STATE / "tmp")
    os.environ["REPRO_LOG"] = "silent"
    sys.path.insert(0, str(SRC))


def setup_probe(fleet: bool, journal: Path, build: str | None = None, seed: int = 0) -> tuple[float, dict, float | None]:
    """Fresh interpreter until ready to dispatch: (wall s, phases, and
    with ``build`` the peak RSS MiB of one build of that workload)."""
    command = [sys.executable, str(HERE / "setup_probe.py"), "--seed", str(seed)]
    if fleet:
        command += ["--fleet", "--journal", str(journal)]
    env = None
    if build:
        command += ["--build", build]
        # Whether numpy's huge-page advice gets an array a huge page
        # depends on where the address space lands, and moves a build's
        # high-water mark by about 5 MiB from process to process.
        env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env) as child:
        line = child.stdout.readline()
        wall = time.perf_counter() - start
        rest = child.stdout.read()
        code = child.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited {code}")
    peak = json.loads(rest)["peak_rss_mb"] if build else None
    return wall, json.loads(line)["phases"], peak


def measure_setup(fleet: bool, repeats: int, scratch: Path, build: str | None = None, seed: int = 0):
    """``repeats`` set-up probes after one unmeasured warm-up probe
    (which fills the bytecode and kernel caches of a fresh checkout).
    The last RSS_BUILDS probes then also run one ``build``, each at its
    own build seed; the peak is the largest of theirs (how high a build's
    heap reaches moves by about 5 MiB with the seed on ``table4-mbu``).
    Returns (walls, phases, peak)."""
    walls, phases, peaks = [], [], []
    for index in range(repeats + 1):
        measure_rss = build is not None and index > repeats - RSS_BUILDS
        wall, phase, peak = setup_probe(
            fleet,
            scratch / f"probe-journal-{fleet}-{index}",
            build if measure_rss else None,
            build_seed(seed, index),
        )
        if index:
            walls.append(wall)
            phases.append(phase)
        if peak is not None:
            peaks.append(peak)
    return walls, phases, max(peaks, default=None)


def median_phases(phases: list[dict]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in phases) for name in phases[0]}


def run(args: argparse.Namespace, scratch: Path) -> dict:
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    seed = args.seed
    walls, phases, peak = measure_setup(workload.fleet, SETUP_REPEATS, scratch, workload.name, seed)
    setup_layers = median_phases(phases)
    if trace and not workload.fleet:
        spawn = measure_setup(True, SPAWN_REPEATS, scratch)[1]
        setup_layers["distribute.spawn_s"] = median_phases(spawn)["distribute.spawn_s"]

    tracer = Tracer() if trace else None
    with Builder(workload, scratch) as builder:
        builder.build(build_seed(seed, 0), trials=WARMUP_TRIALS)
        traced = layers.traced_build(builder, tracer) if trace else None
        records = run_builds(builder, seed, args.seconds, traced)
        peak_in_run = max([peak_rss_mb()] + [peak_rss_mb(pid) for pid in builder.worker_pids()])
        counters = builder.fleet_counters()

    checks = Checks()
    check_sums(records, workload, checks)
    check_backends(workload, seed, checks)
    kernel = tracer
    if workload.fleet:
        # The same chunks in process, at build 0's seed: the tallies
        # must match the fleet's byte for byte.  Traced, it also gives
        # the kernel-level numbers the worker processes hide.
        local = Builder(dataclasses.replace(workload, fleet=False), scratch)
        if trace:
            kernel = Tracer()
            reference = layers.traced_build(local, kernel)(records[0].seed, [])
        else:
            reference = local.build(records[0].seed)
        check_identical(records[0].table, reference, workload, checks)
    faults = sum(counters.values())
    if faults:
        # Each requeue, rejoin or protocol error is one more attempt
        # that failed.
        checks.attempted += faults
        checks.fail(faults, f"fleet faults: {counters}")
    measured = pooled_msed_percent(records)
    check_fidelity(measured, workload, checks)

    untraced = [r for r in records if not r.traced]
    fast = fastest_tenth(untraced)
    end_to_end = {
        "trials_per_s": statistics.median(r.trials / r.wall_s for r in fast),
        "cpu_s_per_mtrial": sum(r.cpu_s for r in fast) / sum(r.trials for r in fast) * 1e6,
        "setup_s": statistics.median(walls),
        "peak_rss_mb": peak,
        "msed_err_pp": msed_err_pp(measured),
    }
    failed_frac = checks.failed / checks.attempted
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": args.seconds,
        "builds": len(records),
        "build_trials_per_s": [round(r.trials / r.wall_s) for r in records],
        "trials_per_s_overall": sum(r.trials for r in untraced) / sum(r.wall_s for r in untraced),
        "trials_per_point_per_build": workload.trials,
        "chunk_size": workload.chunk_size,
        "build0_digest": digest(records[0].table),
        "msed_percent": measured,
        "end_to_end": end_to_end,
        "failed_frac": failed_frac,
        "setup_walls_s": walls,
        "peak_rss_mb_measured_phase": peak_in_run,
        "problems": checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
    }
    if trace:
        probe = Tracer()
        layers.probe_layers(workload, seed, probe)
        per_layer = dict(setup_layers)
        per_layer.update(layers.kernel_metrics(kernel, probe))
        per_layer.update(
            layers.trace_metrics(tracer, records, kernel, FLEET_WORKERS if workload.fleet else 1)
        )
        per_layer.update(layers.micro_metrics(workload, seed, records[0].table, scratch))
        per_layer.update({f"distribute.{name}": value for name, value in counters.items()})
        per_layer["failed_frac"] = failed_frac
        report["per_layer"] = per_layer
        tracer.write(STATE / "traces" / f"{workload.name}-seed{seed}-{os.getpid()}.jsonl")
    return report


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    prepare_environment()
    env = environment(ROOT_DIR)
    if env["auto_backend"] != "native":
        print(json.dumps({"comparable": False, "env": env}), file=sys.stderr)
        print(
            f"error: auto backend is {env['auto_backend']!r}, not 'native'; "
            "this host's figures are not comparable, so the run is not scored",
            file=sys.stderr,
        )
        return 3
    scratch = STATE / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        report = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["env"] = env
    report["comparable"] = True
    units = per_layer_units() if args.trace else END_TO_END
    metrics = metric_block(report["per_layer"] if args.trace else report["end_to_end"], units)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json", "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {report['builds']} builds, "
          f"build-0 digest {report['build0_digest']}, failed_frac {report['failed_frac']:g} "
          f"({report['failed']}/{report['attempted']} chunks)")
    for name, block in metrics.items():
        print(f"  {name:<44} {block['value']:>16.6g} {block['unit']}")
    correct = not report["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
