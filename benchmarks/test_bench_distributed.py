"""Bench: loopback distributed Table IV — parity + worker-count scaling.

What this file pins and records:

* a ``--distribute local:N`` table4 run tallies **byte-identical** to
  the ``jobs=1`` in-process run (the transport moves work, never
  results);
* wall-clock at 1 vs 2 loopback workers goes to
  ``benchmarks/BENCH_distributed.json`` (CI artifact) so the transport
  overhead and scaling trajectory are tracked run over run.  Like
  ``BENCH_parallel.json``, the speedup tracks the cores actually
  available — ~1x (minus socket/JSON overhead) on a single-CPU
  container, >1x on multi-core hosts — so ``cpus`` is recorded next to
  the timings.

Both sides are timed warm: the in-process side after a 200-trial
build, each fleet after its workers have joined and run the same
200-trial build.  Worker spawn is a fixed cost of its own (about half a
second), recorded separately rather than charged to the transport.

One build takes tens of milliseconds on the fused native kernels, so a
single wall-clock sample per side is mostly scheduling noise on a
shared host.  The transport bound is therefore judged on the median of
``PAIRS`` warm pairs (one in-process and one 1-worker loopback build
each, alternating which runs first), and every pair's ratio lands in
the artifact, which is written before the bound is checked.
"""

import json
import os
import statistics
import time
from pathlib import Path

from artifacts import merge_artifact
from repro.distribute import DistributedSession
from repro.engine import resolve_backend
from repro.reliability.monte_carlo import build_table_iv

ARTIFACT = Path(__file__).parent / "BENCH_distributed.json"

# 100k trials in chunks of 4096: about 250 chunks, so the ratio
# asserted below weighs per-chunk transport against the fused kernels'
# compute.
TRIALS = 100_000
SEED = 2022
CHUNK_SIZE = 4_096
#: The warm-up build both sides run before the timed ones.
WARM_TRIALS = 200
JOIN_TIMEOUT_S = 60.0
#: Warm (in-process, 1-worker loopback) pairs behind the median ratio.
PAIRS = 7
#: The bound on the median pair ratio, loopback over in-process.
MAX_OVERHEAD = 4.0


def wait_for_workers(session: DistributedSession, workers: int) -> None:
    deadline = time.perf_counter() + JOIN_TIMEOUT_S
    while session.workers_connected < workers:
        assert time.perf_counter() < deadline, (
            f"{workers} loopback workers did not join"
        )
        time.sleep(0.002)


def timed(build):
    """``(seconds, table)`` of one ``build()``."""
    start = time.perf_counter()
    table = build()
    return time.perf_counter() - start, table


def test_distributed_table_iv_parity_and_scaling():
    build_table_iv(trials=WARM_TRIALS, seed=SEED)  # searches, engines

    def in_process():
        return build_table_iv(
            trials=TRIALS, seed=SEED, jobs=1, chunk_size=CHUNK_SIZE
        )

    single = in_process()

    timings = {}
    spawns = {}
    tables = {}
    pairs = []  # (in-process seconds, 1-worker loopback seconds)
    for workers in (1, 2):
        start = time.perf_counter()
        with DistributedSession(local_workers=workers) as session:
            wait_for_workers(session, workers)
            spawns[workers] = time.perf_counter() - start
            # Workers import, build the design points and their engines.
            build_table_iv(trials=WARM_TRIALS, seed=SEED, executor=session)

            def loopback():
                return build_table_iv(
                    trials=TRIALS,
                    seed=SEED,
                    chunk_size=CHUNK_SIZE,
                    executor=session,
                )

            timings[workers], tables[workers] = timed(loopback)
            if workers == 1:
                for index in range(PAIRS):
                    builds = (in_process, loopback)
                    if index % 2:
                        builds = builds[::-1]
                    seconds = {build: timed(build)[0] for build in builds}
                    pairs.append((seconds[in_process], seconds[loopback]))

    for workers, table in tables.items():
        assert [p.result for p in table.points] == [
            p.result for p in single.points
        ], f"distributed tally diverged at {workers} workers"

    ratios = [loop / local for local, loop in pairs]
    overhead = statistics.median(ratios)
    ARTIFACT.write_text(
        json.dumps(
            {
                "experiment": "table4-distributed",
                "trials": TRIALS,
                "seed": SEED,
                "chunk_size": CHUNK_SIZE,
                "backend": resolve_backend("auto"),
                "in_process_seconds": round(
                    statistics.median(local for local, _ in pairs), 4
                ),
                "workers1_seconds": round(
                    statistics.median(loop for _, loop in pairs), 4
                ),
                "workers1_pair_ratios": [round(r, 3) for r in ratios],
                "workers1_median_ratio": round(overhead, 3),
                "max_median_ratio": MAX_OVERHEAD,
                "workers2_seconds": round(timings[2], 4),
                "workers1_spawn_seconds": round(spawns[1], 4),
                "workers2_spawn_seconds": round(spawns[2], 4),
                "workers2_speedup_vs_workers1": round(
                    timings[1] / timings[2], 2
                ),
                "cpus": len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count(),
                "note": (
                    "warm timings, spawn recorded apart; in-process and "
                    "workers1 are medians over the alternating pairs; "
                    "speedup tracks available cores; a single-CPU "
                    "container shows ~1x plus transport overhead"
                ),
            },
            indent=2,
        )
        + "\n"
    )

    # The transport must not collapse throughput: chunks of 4096 trials
    # amortise the JSON round-trips, so even loopback-on-one-CPU stays
    # within a modest factor of in-process.
    assert overhead < MAX_OVERHEAD, (
        f"1-worker loopback builds took a median {overhead:.2f}x the "
        f"in-process time over {PAIRS} pairs "
        f"(ratios {[round(r, 2) for r in ratios]})"
    )


def test_wire_memo_encoding_bench():
    """Micro-bench the spec-fragment encode memo on the lease hot path.

    A big run dispatches thousands of leases whose ``spec`` is one of
    ~10 values; ``to_wire`` memoises those subtrees, so only the
    per-lease ``Chunk``/group fields are re-walked.  Runs *after* the
    parity bench (which rewrites the artifact wholesale) and merges its
    numbers in.
    """
    from repro.core.codes import muse_80_69
    from repro.distribute import wire
    from repro.orchestrate.plan import Chunk
    from repro.orchestrate.worker import ChunkTask, CodeRef

    from repro.reliability.monte_carlo import MuseMsedSimulator

    spec = MuseMsedSimulator(
        muse_80_69(), code_ref=CodeRef("repro.core.codes:muse_80_69")
    )._task_spec()
    tasks = [
        ChunkTask("bench", spec, Chunk(i * 4096, 4096), 12345)
        for i in range(2_000)
    ]

    def encode_all() -> int:
        return sum(len(json.dumps(wire.to_wire(task))) for task in tasks)

    def best_of(runs: int, *, memoised: bool) -> float:
        best = float("inf")
        for _ in range(runs):
            wire._ENCODED_MEMO.clear()
            start = time.perf_counter()
            if memoised:
                encode_all()
            else:
                for task in tasks:  # clearing per task forces a full re-walk
                    wire._ENCODED_MEMO.clear()
                    json.dumps(wire.to_wire(task))
            best = min(best, time.perf_counter() - start)
        return best

    # Identical bytes either way — the memo is invisible on the wire.
    wire._ENCODED_MEMO.clear()
    cold_payload = json.dumps(wire.to_wire(tasks[0]))
    warm_payload = json.dumps(wire.to_wire(tasks[0]))
    assert cold_payload == warm_payload

    cold = best_of(3, memoised=False)
    warm = best_of(3, memoised=True)
    assert warm <= cold * 1.10, (
        f"memoised encode slower than fresh encode: {warm:.4f}s vs {cold:.4f}s"
    )

    merge_artifact(
        ARTIFACT,
        {
            "wire_memo": {
                "messages": len(tasks),
                "fresh_encode_seconds": round(cold, 4),
                "memoised_encode_seconds": round(warm, 4),
                "speedup": round(cold / warm, 2) if warm else None,
                "note": (
                    "per-lease ChunkTask encode with the shared spec "
                    "subtree memoised vs re-walked every message"
                ),
            }
        },
    )
