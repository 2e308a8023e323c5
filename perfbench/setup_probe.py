"""One set-up measurement in a fresh interpreter.

Run by ``run.py`` as a child process: it performs everything a Table-IV
run does before its first chunk is dispatched -- import, design-point
construction, backend probe (which loads the compiled kernels from the
warm cache), engine table builds and, with ``--fleet``, spawning a
loopback ``local:2`` fleet until both workers have joined -- then
prints one JSON line with the time each phase took.  The parent times
the whole span, interpreter start included, from its side.

With ``--build WORKLOAD`` it then runs one build of that workload at
``--seed``, as ``table4.build`` would in a fresh process (the fleet
journals into ``--journal``), and prints a second line with the peak
resident set of the process and its workers.

    python3 perfbench/setup_probe.py [--fleet --journal DIR]
        [--build WORKLOAD --seed N]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
JOIN_TIMEOUT_S = 60.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--fleet", action="store_true")
    parser.add_argument("--journal")
    parser.add_argument("--build")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    phases: dict[str, float] = {}

    start = time.perf_counter()
    import repro.experiments.table4  # noqa: F401  (the import a run pays)

    phases["import.repro_s"] = time.perf_counter() - start

    from repro.reliability.monte_carlo import muse_design_point, rs_design_point

    start = time.perf_counter()
    muse = [muse_design_point(extra) for extra in range(6)]
    rs = [rs_design_point(extra) for extra in (0, 2, 4, 6)]
    phases["reliability.design_points_s"] = time.perf_counter() - start

    from repro.engine import available_backends, get_engine, resolve_backend
    from repro.rs.engine import get_rs_engine

    start = time.perf_counter()
    available_backends()
    backend = resolve_backend("auto")
    phases["engine.probe_s"] = time.perf_counter() - start

    start = time.perf_counter()
    for code in muse:
        get_engine(code, "auto")
    for code in rs:
        get_rs_engine(code, "auto")
    phases["engine.build_s"] = time.perf_counter() - start

    session = None
    if args.fleet:
        from repro.distribute import session_from_spec

        start = time.perf_counter()
        session = session_from_spec("local:2", seed=args.seed, checkpoint_dir=args.journal)
        session.open()
        while session.workers_connected < 2:
            if time.perf_counter() - start > JOIN_TIMEOUT_S:
                session.close()
                print("workers did not join", file=sys.stderr)
                return 1
            time.sleep(0.002)
        phases["distribute.spawn_s"] = time.perf_counter() - start
    print(json.dumps({"backend": backend, "phases": phases}), flush=True)
    try:
        if args.build:
            from repro.reliability.monte_carlo import build_table_iv
            from workloads import WORKLOADS, peak_rss_mb

            workload = WORKLOADS[args.build]
            # Start the build from an empty collector, so automatic
            # collections fall at the same points of it in every process
            # and the high-water mark does not depend on what ran before.
            gc.collect()
            build_table_iv(
                trials=workload.trials,
                seed=args.seed,
                chunk_size=workload.chunk_size,
                scenario=workload.scenario,
                executor=session,
            )
            pids = [w.process.pid for w in session.worker_processes] if session else []
            peak = max([peak_rss_mb()] + [peak_rss_mb(pid) for pid in pids])
            print(json.dumps({"peak_rss_mb": peak}), flush=True)
    finally:
        if session is not None:
            session.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
