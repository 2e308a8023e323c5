"""Bench: single- vs multi-process sharded Table IV wall-clock.

The orchestrator contract this file pins and records:

* a sharded ``build_table_iv`` run tallies **byte-identically** at
  ``jobs=1`` and ``jobs=2`` (and across chunk sizes) — parallelism
  never changes the table;
* the measured single- vs multi-process wall-clock (and the derived
  speedup) is recorded to ``benchmarks/BENCH_parallel.json`` so the
  scaling trajectory is tracked run over run (CI uploads it alongside
  ``BENCH_table4.json``).  The speedup tracks the cores actually
  available — ~1x on a single-CPU container, >1x on multi-core CI —
  so the artifact records ``cpus`` next to the timings;
* a streamed large-trial run stays memory-flat: its tally equals the
  fold of its chunks while only one chunk of arrays is ever alive per
  worker, and the observed peak RSS is recorded for the trajectory.
"""

import json
import os
import resource
import time
from pathlib import Path

from repro.orchestrate import CodeRef, DEFAULT_CHUNK_SIZE
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    build_table_iv,
    muse_design_point,
)

ARTIFACT = Path(__file__).parent / "BENCH_parallel.json"

# Sized so the serial build computes for about a second on the fused
# native backend and pool spin-up stays small next to it; at 100k
# trials/point the serial build took 0.12-0.16 s and spin-up decided
# the ratio.  Per-task IPC does not shrink with size (the task count
# grows with the trials): at 4096 trials a task costs about as much to
# ship to a worker as to compute.
TRIALS = 1_000_000
SEED = 2022
CHUNK_SIZE = 4_096


def test_table_iv_parallel_parity_and_bench():
    """jobs=2 equals jobs=1 byte-for-byte; both timings go to the
    artifact with the derived multi-process speedup."""
    build_table_iv(trials=200, seed=SEED)  # warm caches (searches, engines)

    start = time.perf_counter()
    single = build_table_iv(
        trials=TRIALS, seed=SEED, jobs=1, chunk_size=CHUNK_SIZE
    )
    single_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded = build_table_iv(
        trials=TRIALS, seed=SEED, jobs=2, chunk_size=CHUNK_SIZE
    )
    sharded_seconds = time.perf_counter() - start

    assert [p.result for p in sharded.points] == [
        p.result for p in single.points
    ]
    assert [p.label for p in sharded.points] == [p.label for p in single.points]

    speedup = single_seconds / sharded_seconds
    # With a single available core the pool can only break even minus
    # spin-up; the recorded number is the trajectory, but a collapse
    # below half the serial throughput means sharding itself broke.
    assert speedup > 0.5, (
        f"2-process table4 collapsed to {speedup:.2f}x of single-process "
        f"({single_seconds:.3f}s vs {sharded_seconds:.3f}s at {TRIALS} trials)"
    )

    ARTIFACT.write_text(
        json.dumps(
            {
                "experiment": "table4-parallel",
                "trials": TRIALS,
                "seed": SEED,
                "chunk_size": CHUNK_SIZE,
                "jobs1_seconds": round(single_seconds, 4),
                "jobs2_seconds": round(sharded_seconds, 4),
                "speedup": round(speedup, 2),
                "cpus": len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count(),
                "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "points": [
                    {
                        "family": p.family,
                        "extra_bits": p.extra_bits,
                        "label": p.label,
                        "msed_percent": round(p.result.msed_percent, 2),
                    }
                    for p in sharded.points
                ],
            },
            indent=2,
        )
        + "\n"
    )


def test_streamed_run_is_memory_flat():
    """A large streamed run never materialises (trials, limbs) arrays:
    a small-chunk run tallies identically to a large-chunk run while
    peak traced allocation stays bounded by the chunk, not the run."""
    import tracemalloc

    # Pin the numpy backend: the fused native chunk kernels never
    # materialise batch arrays at any chunk size, which would make this
    # comparison vacuous — the contract under test is that the *batched*
    # generate-then-decode path streams one chunk at a time.
    simulator = MuseMsedSimulator(
        muse_design_point(4),
        code_ref=CodeRef(
            "repro.reliability.monte_carlo:muse_design_point", (4,)
        ),
        backend="numpy",
    )
    trials, seed, small_chunk = 120_000, 3, 4_096

    tracemalloc.start()
    small = simulator.run(trials, seed, chunk_size=small_chunk)
    _, small_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    tracemalloc.start()
    large = simulator.run(trials, seed, chunk_size=DEFAULT_CHUNK_SIZE)
    _, large_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert small == large  # chunking changed memory, never the tally
    # The 4096-trial chunking should peak far below the 65536-trial
    # chunking (~16x less batch memory; allow generous slack for
    # interpreter noise).
    assert small_peak < large_peak / 3, (
        f"small-chunk peak {small_peak} not flat vs {large_peak}"
    )
