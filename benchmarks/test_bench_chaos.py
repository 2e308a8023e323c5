"""Bench: chaos-hardened loopback Table IV — fault-path parity + cost.

What this file pins and records:

* a ``--distribute local:2`` table4 run under an injected fault
  cocktail (connection resets, duplicated results, torn frames)
  tallies **byte-identical** to the clean loopback run — the recovery
  machinery moves work around failures, never results;
* the wall-clock cost of surviving that cocktail goes to
  ``benchmarks/BENCH_chaos.json`` (CI artifact), so the price of the
  reconnect/steal/exactly-once paths is tracked run over run instead
  of silently growing.

The chaos seed is fixed, so the injected fault schedule — and
therefore the timing story — is the same on every run.
"""

import os
import time
from pathlib import Path

from artifacts import merge_artifact
from repro.distribute import DistributedSession
from repro.engine import resolve_backend
from repro.reliability.monte_carlo import build_table_iv

ARTIFACT = Path(__file__).parent / "BENCH_chaos.json"

# Compute-dominated sizing (see test_bench_distributed): the overhead
# ratio below compares recovery cost, not worker-spawn cost.
TRIALS = 100_000
SEED = 2022
CHUNK_SIZE = 4_096
CHAOS = "seed=7,reset=0.05,dup=0.1,torn=0.03"


def test_chaos_table_iv_parity_and_overhead():
    build_table_iv(trials=200, seed=SEED)  # warm caches (searches, engines)

    start = time.perf_counter()
    with DistributedSession(local_workers=2) as session:
        clean = build_table_iv(
            trials=TRIALS, seed=SEED, chunk_size=CHUNK_SIZE, executor=session
        )
    clean_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with DistributedSession(local_workers=2, chaos=CHAOS) as session:
        chaotic = build_table_iv(
            trials=TRIALS, seed=SEED, chunk_size=CHUNK_SIZE, executor=session
        )
        rejoins = session.rejoins
        protocol_errors = session.protocol_errors
        requeues = session._queue.requeues
    chaos_seconds = time.perf_counter() - start

    assert [p.result for p in chaotic.points] == [
        p.result for p in clean.points
    ], "tally diverged under injected chaos"

    # Recovery is work-stealing plus a few reconnect backoffs; it must
    # not turn a survivable fault rate into a different complexity
    # class.  The bound is loose (CI containers share cores with the
    # rejoining workers) — the artifact tracks the real trajectory.
    overhead = chaos_seconds / clean_seconds
    assert overhead < 6.0, (
        f"chaos run took {overhead:.2f}x the clean loopback time "
        f"({chaos_seconds:.3f}s vs {clean_seconds:.3f}s)"
    )

    merge_artifact(
        ARTIFACT,
        {
            "experiment": "table4-chaos",
            "trials": TRIALS,
            "seed": SEED,
            "chunk_size": CHUNK_SIZE,
            "chaos": CHAOS,
            "backend": resolve_backend("auto"),
            "clean_seconds": round(clean_seconds, 4),
            "chaos_seconds": round(chaos_seconds, 4),
            "chaos_overhead": round(overhead, 2),
            "rejoins": rejoins,
            "protocol_errors": protocol_errors,
            "requeues": requeues,
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "note": (
                "fixed chaos seed: the injected fault schedule is "
                "identical on every run, so timing drift is real drift"
            ),
        },
    )
