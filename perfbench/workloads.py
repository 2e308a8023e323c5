"""The three Table-IV workloads, the builds they time, and their checks.

Every build is a full Table-IV sweep over the 10 design points (MUSE
+0..+5b, RS +0/2/4/6b) at a fixed number of trials per point, so a
build is a fixed amount of work and per-build rates are comparable
across runs.  Build ``i`` of a run uses seed ``seed + i * SEED_STRIDE``:
build 0 runs at exactly ``--seed``, and its tallies are what the digest
pins.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SEED_STRIDE = 1_000_003

#: Design-point labels in Table-IV order (``build_table_iv`` order).
POINTS = (
    "muse-0b", "muse-1b", "muse-2b", "muse-3b", "muse-4b", "muse-5b",
    "rs-0b", "rs-2b", "rs-4b", "rs-6b",
)

#: A measured point further than this from the published MSED % (on
#: the msed workloads) means a broken decoder, not a modelling gap: the
#: largest known gap (RS +6b, device policy on) is about 10 pp.
FIDELITY_GUARD_PP = 15.0

#: Builds a run makes even when ``--seconds`` ends sooner.
MIN_BUILDS = 3

FLEET_SPEC = "local:2"
FLEET_WORKERS = 2
JOIN_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    trials: int  # per design point per build
    chunk_size: int | None  # None: the orchestrator's default
    fleet: bool

    def chunks_per_point(self) -> int:
        from repro.orchestrate.plan import plan_chunks

        return len(plan_chunks(self.trials, self.chunk_size))


WORKLOADS = {
    "table4-msed": Workload("table4-msed", "msed", 200_000, None, False),
    "table4-mbu": Workload("table4-mbu", "mbu", 30_000, None, False),
    "table4-fleet": Workload("table4-fleet", "msed", 200_000, 16_384, True),
}


def build_seed(seed: int, index: int) -> int:
    return seed + SEED_STRIDE * index


def point_label(point) -> str:
    return f"{point.family.lower()}-{point.extra_bits}b"


def tallies(table) -> dict[str, tuple[int, ...]]:
    """``{label: (trials, no_match, confinement, miscorrected, silent)}``."""
    out = {}
    for point in table.points:
        result = point.result
        out[point_label(point)] = (
            result.trials,
            result.detected_no_match,
            result.detected_confinement,
            result.miscorrected,
            result.silent,
        )
    return out


def digest(table) -> str:
    """sha256 of the canonical per-point tallies: equal digests mean
    byte-identical tables."""
    payload = json.dumps(sorted(tallies(table).items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def process_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int | None = None) -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    path = "/proc/self/status" if pid is None else f"/proc/{pid}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


class Builder:
    """Runs whole Table-IV builds for one workload.

    In-process workloads call ``build_table_iv`` directly, as
    ``table4.build`` does.  The fleet workload opens one ``local:2``
    session (what ``table4.build(distribute="local:2")`` opens per call)
    and gives every build a fresh checkpoint journal under ``scratch``,
    so the measured phase sees the per-chunk wire, lease, fold and
    fsync'd-journal costs without paying worker spawn on every build;
    spawn is what ``setup_s`` measures.
    """

    def __init__(self, workload: Workload, scratch: Path):
        self.workload = workload
        self.scratch = scratch
        self.session = None
        self._journals = 0

    def open(self) -> "Builder":
        if self.workload.fleet:
            from repro.distribute import session_from_spec

            self.session = session_from_spec(FLEET_SPEC, seed=0)
            self.session.open()
            start = time.monotonic()
            while self.session.workers_connected < FLEET_WORKERS:
                if time.monotonic() - start > JOIN_TIMEOUT_S:
                    raise RuntimeError("fleet workers did not join")
                time.sleep(0.002)
        return self

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def __enter__(self) -> "Builder":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def worker_pids(self) -> list[int]:
        if self.session is None:
            return []
        return [worker.process.pid for worker in self.session.worker_processes]

    def build(
        self,
        seed: int,
        trials: int | None = None,
        progress: Callable[[int, int], None] | None = None,
    ):
        from repro.reliability.monte_carlo import build_table_iv

        kwargs = dict(
            trials=trials or self.workload.trials,
            seed=seed,
            chunk_size=self.workload.chunk_size,
            scenario=self.workload.scenario,
            progress=progress,
        )
        if self.session is None:
            return build_table_iv(**kwargs)
        from repro.distribute import CheckpointJournal
        from repro.orchestrate.rng import derive_key

        self._journals += 1
        self.session.checkpoint = CheckpointJournal.open(
            self.scratch / f"journal-{self._journals}", key=derive_key(seed)
        )
        return build_table_iv(executor=self.session, **kwargs)

    def fleet_counters(self) -> dict[str, int]:
        """Requeues, rejoins and protocol errors of the session so far."""
        if self.session is None:
            return {"requeues": 0, "rejoins": 0, "protocol_errors": 0}
        return {
            # The lease queue keeps the requeue count; the session
            # exposes the other two directly.
            "requeues": self.session._queue.requeues,
            "rejoins": self.session.rejoins,
            "protocol_errors": self.session.protocol_errors,
        }


@dataclass
class BuildRecord:
    seed: int
    wall_s: float
    cpu_s: float
    trials: int
    chunks: int
    table: object
    traced: bool = False
    gaps_s: list[float] = field(default_factory=list)


def cpu_now(builder: Builder) -> float:
    """CPU seconds of this process plus the fleet's live workers."""
    return time.process_time() + sum(
        process_cpu_s(pid) for pid in builder.worker_pids()
    )


def run_builds(
    builder: Builder,
    seed: int,
    seconds: float,
    traced_build: Callable | None = None,
) -> list[BuildRecord]:
    """Run builds back to back until ``seconds`` have passed.

    With ``traced_build`` set, every second build (the odd ones) runs
    through it instead, so traced and untraced builds interleave and
    share whatever drift the host has.
    """
    workload = builder.workload
    chunks = workload.chunks_per_point() * len(POINTS)
    records: list[BuildRecord] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_BUILDS or time.perf_counter() < deadline:
        build_s = build_seed(seed, index)
        traced = traced_build is not None and index % 2 == 1
        gaps: list[float] = []
        cpu0 = cpu_now(builder)
        start = time.perf_counter()
        if traced:
            table = traced_build(build_s, gaps)
        else:
            table = builder.build(build_s)
        wall = time.perf_counter() - start
        records.append(
            BuildRecord(
                seed=build_s,
                wall_s=wall,
                cpu_s=cpu_now(builder) - cpu0,
                trials=workload.trials * len(POINTS),
                chunks=chunks,
                table=table,
                traced=traced,
                gaps_s=gaps,
            )
        )
        index += 1
        # Free the build's codes and engine tables now, outside the
        # timed region, so no build pays for collecting another's.
        gc.collect()
    return records


def fastest_tenth(records: list[BuildRecord]) -> list[BuildRecord]:
    """The fastest tenth of the builds (at least three).

    Interference from the rest of the host only ever slows a build: for
    stretches from a fraction of a second to tens of seconds (another
    tenant on the same cores), builds run at 60-75% of their
    undisturbed rate, and how much of a run those stretches cover
    varies from run to run.  The fastest tenth of many short builds
    falls in the undisturbed stretches, so its rate stays steady where
    a median or mean follows how busy the host happened to be.
    """
    ranked = sorted(records, key=lambda r: r.trials / r.wall_s, reverse=True)
    return ranked[: max(3, len(ranked) // 10)]


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------


@dataclass
class Checks:
    """Failed operations (chunks) and what failed, for one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, chunks: int, message: str) -> None:
        self.failed += chunks
        self.problems.append(message)


def check_sums(records: list[BuildRecord], workload: Workload, checks: Checks) -> None:
    """Every point of every build tallied exactly the trials it ran."""
    per_point = workload.chunks_per_point()
    for record in records:
        checks.attempted += record.chunks
        counts = tallies(record.table)
        if tuple(counts) != POINTS:
            checks.fail(record.chunks, f"seed {record.seed}: points {tuple(counts)}")
            continue
        for label, (trials, *outcomes) in counts.items():
            if trials != workload.trials or sum(outcomes) != trials:
                checks.fail(
                    per_point,
                    f"seed {record.seed} {label}: {trials} trials, "
                    f"{sum(outcomes)} outcomes, expected {workload.trials}",
                )


def simulators(scenario: str, backend: str) -> list:
    """One simulator per design point, built from the public classes."""
    from repro.reliability.monte_carlo import (
        MuseMsedSimulator,
        RsMsedSimulator,
        muse_design_point,
        rs_design_point,
    )

    return [
        MuseMsedSimulator(muse_design_point(extra), backend=backend, scenario=scenario)
        for extra in range(6)
    ] + [
        RsMsedSimulator(rs_design_point(extra), backend=backend, scenario=scenario)
        for extra in (0, 2, 4, 6)
    ]


def sampled_chunks(workload: Workload, seed: int) -> list:
    """One chunk per design point, drawn from the run's chunk plan."""
    from repro.orchestrate.plan import plan_chunks

    plan = plan_chunks(workload.trials, workload.chunk_size)
    rng = random.Random(seed)
    return [rng.choice(plan) for _ in POINTS]


def check_backends(workload: Workload, seed: int, checks: Checks) -> None:
    """Re-run one sampled chunk per point on numpy; counts must match."""
    from repro.orchestrate.rng import derive_key

    key = derive_key(seed)
    chunks = sampled_chunks(workload, seed)
    native = simulators(workload.scenario, "native")
    numpy = simulators(workload.scenario, "numpy")
    for label, chunk, fast, reference in zip(POINTS, chunks, native, numpy):
        checks.attempted += 1
        got = fast.run_chunk(chunk, key).freeze()
        want = reference.run_chunk(chunk, key).freeze()
        if got != want:
            checks.fail(1, f"{label} chunk {chunk}: native {got} != numpy {want}")


def check_identical(fleet, reference, workload: Workload, checks: Checks) -> None:
    """Per-point tallies of a fleet build and the same build in process
    must be equal."""
    got, want = tallies(fleet), tallies(reference)
    for label in POINTS:
        if got.get(label) != want.get(label):
            checks.fail(
                workload.chunks_per_point(),
                f"{label}: fleet {got.get(label)} != in-process {want.get(label)}",
            )


def pooled_msed_percent(records: list[BuildRecord]) -> dict[str, float]:
    """Per-point MSED % over every measured build's trials."""
    from repro.reliability.metrics import MsedTally

    pooled = {label: MsedTally() for label in POINTS}
    for record in records:
        for point in record.table.points:
            pooled[point_label(point)].merge(point.result)
    return {label: tally.freeze().msed_percent for label, tally in pooled.items()}


def paper_msed_percent() -> dict[str, float]:
    from repro.experiments.table4 import PAPER_MUSE, PAPER_RS

    out = {f"muse-{extra}b": value for extra, value in PAPER_MUSE.items()}
    out.update({f"rs-{extra}b": value for extra, value in PAPER_RS.items()})
    return out


def check_fidelity(measured: dict[str, float], workload: Workload, checks: Checks) -> None:
    if workload.scenario != "msed":
        return
    paper = paper_msed_percent()
    for label in POINTS:
        gap = abs(measured[label] - paper[label])
        if gap > FIDELITY_GUARD_PP:
            checks.fail(
                workload.chunks_per_point(),
                f"{label}: MSED {measured[label]:.2f}% is {gap:.1f} pp from "
                f"the published {paper[label]:.2f}%",
            )


def msed_err_pp(measured: dict[str, float]) -> float:
    """Mean |measured - published| MSED % over the 10 points."""
    paper = paper_msed_percent()
    return sum(abs(measured[label] - paper[label]) for label in POINTS) / len(POINTS)
