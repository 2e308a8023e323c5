"""Per-layer measurements of the traced run.

Three sources, all outside ``src/``:

* spans around the public calls a Table-IV build makes (see
  :mod:`tracing`), from the traced builds that interleave with the
  untraced ones -- for the fleet, from an in-process reference build of
  the same chunks, since the kernels run inside worker processes;
* a probe of one sampled chunk per point for a layer the workload's
  builds never enter (the fused kernels on ``table4-mbu``, batch
  generation and decode on the msed workloads), so every layer has a
  number on every workload;
* micro-benchmarks of the fleet's per-chunk transport and journal, the
  cold C compile, and the program's own telemetry overhead.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from tracing import LAYERS, ROOT, Tracer, instrument
from workloads import POINTS, Builder, BuildRecord, Workload, build_seed, fastest_tenth, sampled_chunks

WIRE_FRAMES = 2000
JOURNAL_RECORDS = 64
#: Short paired builds: a pair spans well under a second, so the host's
#: slow stretches mostly hit both sides of it alike.
TELEMETRY_PAIRS = 16
TELEMETRY_TRIALS = 50_000


def traced_build(builder: Builder, tracer: Tracer) -> Callable:
    """A build function that records spans and chunk-completion gaps."""

    def run(seed: int, gaps: list[float]):
        last = [time.perf_counter()]

        def progress(done: int, total: int) -> None:
            now = time.perf_counter()
            if done > 1:  # the first completion also carries set-up
                gaps.append(now - last[0])
            last[0] = now

        with instrument(tracer):
            with tracer.span(ROOT, seed=seed):
                return builder.build(seed, progress=progress)

    return run


def probe_layers(workload: Workload, seed: int, tracer: Tracer) -> None:
    """Run every kernel path once on one sampled chunk per point."""
    from repro.orchestrate.rng import derive_key
    from repro.reliability import monte_carlo
    from repro.scenarios import resolve_scenario

    key = derive_key(seed)
    scenario = resolve_scenario(workload.scenario)
    chunks = sampled_chunks(workload, seed)
    with instrument(tracer):
        for extra, chunk in zip(range(6), chunks[:6]):
            code = monte_carlo.muse_design_point(extra)
            engine = monte_carlo.get_engine(code, "auto")
            engine.fused_chunk_counts(chunk, key, 2)
            words = monte_carlo.muse_scenario_chunk(scenario, code, chunk, key, 2)
            engine.decode_batch(words).counts()
        for extra, chunk in zip((0, 2, 4, 6), chunks[6:]):
            code = monte_carlo.rs_design_point(extra)
            engine = monte_carlo.get_rs_engine(code, "auto")
            engine.fused_chunk_counts(chunk, key, 2)
            words = monte_carlo.rs_scenario_chunk(scenario, code, chunk, key, 2)
            engine.decode_batch(words).counts()


def _ns_per_trial(tracer: Tracer, name: str) -> float | None:
    trials = tracer.attr_sum(name, "trials")
    return tracer.total(name) / trials * 1e9 if trials else None


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def kernel_metrics(kernel: Tracer, probe: Tracer) -> dict[str, float]:
    """Per-trial kernel, generation, decode and fold costs."""
    out = {}
    for metric, name in (
        ("engine.muse_fused_ns_per_trial", "engine.muse_fused"),
        ("rs.fused_ns_per_trial", "rs.fused"),
        ("scenarios.generate_ns_per_trial", "scenarios.generate"),
        ("engine.decode_batch_ns_per_trial", "engine.decode_batch"),
        ("rs.decode_batch_ns_per_trial", "rs.decode_batch"),
    ):
        value = _ns_per_trial(kernel, name)
        out[metric] = value if value is not None else _ns_per_trial(probe, name)
    chunks = kernel.by_name("reliability.run_chunk")
    hits = sum(1 for span in kernel.by_name("engine.muse_fused") + kernel.by_name("rs.fused") if span.attrs.get("hit"))
    out["engine.fused_hit_frac"] = hits / len(chunks)
    out["reliability.fold_ns_per_chunk"] = kernel.total("reliability.fold") / len(chunks) * 1e9
    for label in POINTS:
        spans = [span for span in chunks if span.attrs["point"] == label]
        trials = sum(span.attrs["trials"] for span in spans)
        out[f"point.{label}.ns_per_trial"] = sum(span.seconds for span in spans) / trials * 1e9
    return out


def trace_metrics(
    tracer: Tracer,
    records: list[BuildRecord],
    kernel: Tracer,
    workers: int,
) -> dict[str, float]:
    """Self-time shares, coverage, chunk gaps and overheads."""
    out = {}
    self_s = tracer.layer_self_seconds()
    wall = tracer.total(ROOT)
    for layer in LAYERS:
        out[f"selftime.{layer}_frac"] = self_s[layer] / wall
    out["trace.coverage_frac"] = 1.0 - self_s[ROOT] / wall
    for side, traced in (("untraced", False), ("traced", True)):
        fast = fastest_tenth([r for r in records if r.traced == traced])
        out[f"trace.{side}_trials_per_s"] = statistics.median(r.trials / r.wall_s for r in fast)
    out["trace.overhead_frac"] = 1.0 - out["trace.traced_trials_per_s"] / out["trace.untraced_trials_per_s"]
    gaps = [gap * 1e3 for r in records if r.traced for gap in r.gaps_s]
    out["distribute.chunk_gap_ms.p50"] = statistics.median(gaps)
    out["distribute.chunk_gap_ms.p99"] = _quantile(gaps, 0.99)
    # 1 - (in-process compute of the chunks) / (workers x wall): the
    # share of the workers' time not spent inside a chunk.
    compute_per_trial = kernel.total("reliability.run_chunk") / kernel.attr_sum("reliability.run_chunk", "trials")
    wall_per_trial = wall / sum(r.trials for r in records if r.traced)
    out["distribute.overhead_frac"] = 1.0 - compute_per_trial / (workers * wall_per_trial)
    return out


def chunk_tasks(workload: Workload, seed: int) -> list:
    """The ``ChunkTask`` list a distributed build at ``seed`` ships."""
    from repro.orchestrate.plan import plan_chunks
    from repro.orchestrate.rng import derive_key
    from repro.orchestrate.worker import ChunkTask, CodeRef, MuseSimSpec, RsSimSpec

    target = "repro.reliability.monte_carlo:{}_design_point"
    specs = [
        MuseSimSpec(CodeRef(target.format("muse"), (extra,)), scenario=workload.scenario)
        for extra in range(6)
    ] + [
        RsSimSpec(CodeRef(target.format("rs"), (extra,)), scenario=workload.scenario)
        for extra in (0, 2, 4, 6)
    ]
    key = derive_key(seed)
    chunks = plan_chunks(workload.trials, workload.chunk_size)
    return [ChunkTask(group, spec, chunk, key) for group, spec in enumerate(specs) for chunk in chunks]


def wire_us_per_task(tasks: list, table) -> float:
    """JSON-line round trip of every task frame and its result frame
    (the task list repeated to about WIRE_FRAMES frames)."""
    from repro.distribute import from_wire, to_wire
    from repro.reliability.metrics import MsedTally

    results = [MsedTally().merge(point.result) for point in table.points]
    frames = tasks * max(1, WIRE_FRAMES // len(tasks))
    start = time.perf_counter()
    for index, task in enumerate(frames):
        frame = json.dumps({"op": "task", "id": index, "task": to_wire(task)}, separators=(",", ":"))
        back = from_wire(json.loads(frame)["task"])
        frame = json.dumps({"op": "result", "id": index, "tally": to_wire(results[task.group])}, separators=(",", ":"))
        tally = from_wire(json.loads(frame)["tally"])
    elapsed = time.perf_counter() - start
    if back != frames[-1] or tally != results[frames[-1].group]:
        raise RuntimeError("wire round trip changed a task or tally")
    return elapsed / len(frames) * 1e6


def journal_us_per_chunk(tasks: list, table, directory: Path) -> float:
    """``CheckpointJournal.record`` + ``flush`` per chunk (fsync'd)."""
    from repro.distribute import CheckpointJournal
    from repro.distribute.checkpoint import spec_fingerprint

    journal = CheckpointJournal.open(directory, key=tasks[0].key)
    sample = [tasks[index % len(tasks)] for index in range(JOURNAL_RECORDS)]
    results = [point.result for point in table.points]
    start = time.perf_counter()
    for task in sample:
        journal.record(task.group, task.chunk, results[task.group], spec_fingerprint(task.spec))
        journal.flush()
    return (time.perf_counter() - start) / len(sample) * 1e6


def cc_compile_cold_s(directory: Path) -> float:
    """``cc.load_library()`` in a fresh process against an empty cache."""
    program = (
        "import time; start = time.perf_counter()\n"
        "from repro.engine.cc import load_library\n"
        "if load_library() is None:\n"
        "    raise SystemExit('native kernels failed to build')\n"
        "print(time.perf_counter() - start)\n"
    )
    env = dict(os.environ, REPRO_NATIVE_CACHE=str(directory))
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=150, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def telemetry_overhead(seed: int, directory: Path) -> dict[str, float]:
    """CPU time of ``table4.build`` (msed) with ``telemetry_dir`` on vs off.

    Pairs at one seed each, alternating which side runs first.  The
    overhead is the median per-pair ratio minus one; the noise floor is
    the quartile distance of those ratios, the figure an overhead must
    exceed to count as measured rather than noise.
    """
    from repro.experiments import table4

    ratios: list[float] = []
    for index in range(TELEMETRY_PAIRS):
        cpu = {}
        for enabled in (False, True) if index % 2 == 0 else (True, False):
            telemetry_dir = str(directory / f"telemetry-{index}") if enabled else None
            start = time.process_time()
            table4.build(trials=TELEMETRY_TRIALS, seed=build_seed(seed, index), telemetry_dir=telemetry_dir)
            cpu[enabled] = time.process_time() - start
        ratios.append(cpu[True] / cpu[False])
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {
        "telemetry.cpu_overhead_frac": statistics.median(ratios) - 1.0,
        "telemetry.noise_floor_frac": q3 - q1,
    }


def micro_metrics(workload: Workload, seed: int, table, scratch: Path) -> dict[str, float]:
    tasks = chunk_tasks(workload, seed)
    out = {
        "distribute.wire_us_per_task": wire_us_per_task(tasks, table),
        "distribute.journal_us_per_chunk": journal_us_per_chunk(tasks, table, scratch / "journal-micro"),
        "engine.cc_compile_cold_s": cc_compile_cold_s(scratch / "cold-native-cache"),
    }
    out.update(telemetry_overhead(seed, scratch))
    return out
