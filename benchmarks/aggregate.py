"""Fold every ``benchmarks/BENCH_*.json`` into one trajectory file.

Each bench writes (or merges into) its own per-subsystem artifact;
this module concatenates them into the repo-root
``BENCH_TRAJECTORY.json`` so one file holds the whole performance
story of a run — decode throughput, parallel/distributed scaling,
chaos overhead, adaptive and campaign sampling efficiency.

Deliberately timestamp-free, so two trajectories diff on *performance*
movement, not clock noise.  Like every ``BENCH_*.json`` it is a run
artifact, ignored by git.  Runnable as a
module (CI calls ``python benchmarks/aggregate.py`` after the bench
jobs) and from the bench suite itself.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).parent
TRAJECTORY = BENCH_DIR.parent / "BENCH_TRAJECTORY.json"


def aggregate(
    bench_dir: Path = BENCH_DIR, out: Path = TRAJECTORY
) -> dict:
    """Merge every readable ``BENCH_*.json`` under ``bench_dir``.

    Unreadable or non-object artifacts are skipped, not fatal — a
    partial bench run still refreshes the artifacts it did produce.
    """
    artifacts: dict[str, dict] = {}
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            artifacts[path.stem] = payload
    doc = {
        "note": (
            "aggregated from benchmarks/BENCH_*.json by "
            "benchmarks/aggregate.py; regenerate with "
            "`python benchmarks/aggregate.py` after running the benches"
        ),
        "artifacts": artifacts,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


if __name__ == "__main__":
    aggregate()
