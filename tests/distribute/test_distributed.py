"""Distributed execution end-to-end: loopback workers over real sockets.

The acceptance contract this file pins:

* a ``--distribute local:N`` run folds a tally **byte-identical** to
  the ``jobs=1`` in-process run at the same seed — including when a
  worker is killed mid-run (lease re-queue) and when the run is
  interrupted and resumed from the checkpoint journal;
* adaptive stopping decisions are identical through the distributed
  round barrier (same ``trials_used``, rounds, and convergence).
"""

import pytest

from repro.core.codes import muse_80_69
from repro.distribute import (
    CheckpointJournal,
    DistributedInterrupted,
    DistributedSession,
)
from repro.engine import available_backends
from repro.orchestrate import CodeRef, derive_key
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    build_table_iv,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.rs.reed_solomon import rs_144_128

SEED = 5


def muse_simulator(backend="auto"):
    return MuseMsedSimulator(
        muse_80_69(),
        backend=backend,
        code_ref=CodeRef("repro.core.codes:muse_80_69"),
    )


def rs_simulator(backend="auto"):
    return RsMsedSimulator(
        rs_144_128(),
        backend=backend,
        code_ref=CodeRef("repro.rs.reed_solomon:rs_144_128"),
    )


class TestLoopbackDeterminism:
    @pytest.mark.parametrize(
        "make", (muse_simulator, rs_simulator), ids=("muse", "rs")
    )
    def test_tally_identical_to_in_process(self, make):
        simulator = make()
        serial = simulator.run(600, seed=SEED, chunk_size=50)
        with DistributedSession(local_workers=2) as session:
            distributed = simulator.run(
                600, seed=SEED, chunk_size=50, executor=session
            )
        assert distributed == serial

    def test_table_iv_identical_to_in_process(self):
        trials, seed = 240, 11
        baseline = build_table_iv(trials=trials, seed=seed)
        with DistributedSession(local_workers=2) as session:
            table = build_table_iv(
                trials=trials, seed=seed, chunk_size=64, executor=session
            )
        assert [p.result for p in table.points] == [
            p.result for p in baseline.points
        ]
        assert [p.label for p in table.points] == [
            p.label for p in baseline.points
        ]

    def test_scalar_worker_fleet_folds_the_same_tally(self):
        """A worker-side --backend override changes the engine, never
        the tally (the cross-backend contract, now across hosts)."""
        simulator = muse_simulator()
        serial = simulator.run(300, seed=SEED, chunk_size=100)
        with DistributedSession(local_workers=1, backend="scalar") as session:
            distributed = simulator.run(
                300, seed=SEED, chunk_size=100, executor=session
            )
        assert distributed == serial

    @pytest.mark.parametrize("backend", available_backends())
    def test_every_registered_backend_folds_the_same_tally(self, backend):
        """2-worker loopback with each available backend forced on the
        workers — the JIT/native fused chunk path included — must fold
        byte-identically to the in-process run."""
        simulator = muse_simulator()
        serial = simulator.run(400, seed=SEED, chunk_size=64)
        with DistributedSession(local_workers=2, backend=backend) as session:
            distributed = simulator.run(
                400, seed=SEED, chunk_size=64, executor=session
            )
        assert distributed == serial

    def test_session_serves_multiple_batches(self):
        """Workers survive across run_tasks calls (adaptive rounds)."""
        simulator = muse_simulator()
        with DistributedSession(local_workers=1) as session:
            first = simulator.run(200, seed=1, chunk_size=64, executor=session)
            second = simulator.run(200, seed=2, chunk_size=64, executor=session)
        assert first == simulator.run(200, seed=1, chunk_size=64)
        assert second == simulator.run(200, seed=2, chunk_size=64)


class TestFaultTolerance:
    def test_worker_killed_mid_run_tally_identical(self):
        """Kill one of two workers after the first fold: its leases
        re-queue and the survivor finishes — same tally, byte for byte."""
        simulator = muse_simulator()
        serial = simulator.run(3000, seed=SEED, chunk_size=100)
        killed = []
        with DistributedSession(local_workers=2) as session:

            def assassin(done, total):
                if not killed:
                    killed.append(True)
                    session.worker_processes[0].kill()

            distributed = simulator.run(
                3000,
                seed=SEED,
                chunk_size=100,
                executor=session,
                progress=assassin,
            )
            assert not session.worker_processes[0].is_alive()
        assert killed, "kill hook never fired"
        assert distributed == serial

    def test_all_local_workers_dead_fails_instead_of_hanging(self):
        simulator = muse_simulator()
        with DistributedSession(local_workers=1) as session:
            session.worker_processes[0].kill()
            session.worker_processes[0].join(timeout=5.0)
            with pytest.raises(RuntimeError, match="workers exited"):
                simulator.run(200, seed=SEED, chunk_size=50, executor=session)

    def test_adaptive_stopping_identical_through_round_barrier(self):
        policy = AdaptivePolicy(
            ci_target=0.3,
            metric="failure",
            initial_trials=100,
            max_trials=800,
        )
        simulator = muse_simulator()
        baseline = simulator.run_adaptive(policy, seed=7, chunk_size=64)
        with DistributedSession(local_workers=2) as session:
            distributed = simulator.run_adaptive(
                policy, seed=7, chunk_size=64, executor=session
            )
        assert distributed.result == baseline.result
        assert distributed.trials_used == baseline.trials_used
        assert distributed.rounds == baseline.rounds
        assert distributed.converged == baseline.converged


class TestConcurrentFold:
    def test_racing_batch_results_fold_and_journal_exactly_once(
        self, tmp_path
    ):
        """Six handler threads (more than this host's cores) lease
        batches and report each one three times, under a tiny switch
        interval: every chunk folds once, is journalled once, and the
        fold equals the serial run."""
        import sys
        import threading

        from repro.orchestrate.plan import plan_chunks
        from repro.orchestrate.worker import (
            ChunkTask,
            MuseSimSpec,
            run_chunk_task,
        )

        key = derive_key(SEED)
        spec = MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69"))
        tasks = [
            ChunkTask(0, spec, chunk, key) for chunk in plan_chunks(2400, 20)
        ]
        tallies = {task.chunk.start: run_chunk_task(task)[2] for task in tasks}
        journal = CheckpointJournal.open(tmp_path, key)
        folded = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DistributedSession(checkpoint=journal) as session:
                barrier = threading.Thread(
                    target=lambda: folded.update(session.run_tasks(tasks)),
                    daemon=True,
                )
                barrier.start()

                def worker(name):
                    while barrier.is_alive():
                        reply = session._handle_message(name, {"op": "next"})
                        if reply["op"] != "tasks":
                            continue
                        entries = [
                            {"id": task_id, "tally": tallies[start],
                             "seconds": 1e-4}
                            for task_id, start, _ in reply["chunks"]
                        ]
                        for _ in range(3):  # the copies are duplicates
                            session._handle_message(
                                name, {"op": "results", "results": entries}
                            )

                threads = [
                    threading.Thread(
                        target=worker, args=(f"w{index}",), daemon=True
                    )
                    for index in range(6)
                ]
                for thread in threads:
                    thread.start()
                barrier.join(timeout=30.0)
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not barrier.is_alive()
                assert not any(thread.is_alive() for thread in threads)
                assert session._folds == len(tasks)
        finally:
            sys.setswitchinterval(interval)
        assert list(folded) == [0]
        serial = muse_simulator().run(2400, SEED, chunk_size=20)
        assert folded[0].freeze() == serial
        assert len(CheckpointJournal.open(tmp_path, key, resume=True)) == len(
            tasks
        )


class TestCheckpointResume:
    @pytest.mark.parametrize(
        "chunk_size,workers,backend",
        [(50, 2, "auto"), (64, 1, "scalar")],
        ids=("auto-2w", "scalar-1w"),
    )
    def test_interrupt_then_resume_is_byte_identical(
        self, tmp_path, chunk_size, workers, backend
    ):
        """Resume after k of n chunks ≡ uninterrupted run, across
        backends and (chunk_size, workers) splits."""
        simulator = muse_simulator(backend)
        serial = simulator.run(600, seed=SEED, chunk_size=chunk_size)
        key = derive_key(SEED)
        with pytest.raises(DistributedInterrupted):
            with DistributedSession(
                local_workers=workers,
                checkpoint=CheckpointJournal.open(tmp_path, key),
                interrupt_after=3,
            ) as session:
                simulator.run(
                    600, seed=SEED, chunk_size=chunk_size, executor=session
                )
        journal = CheckpointJournal.open(tmp_path, key, resume=True)
        assert len(journal) >= 3  # the interrupt saved completed chunks
        with DistributedSession(
            local_workers=workers, checkpoint=journal
        ) as session:
            resumed = simulator.run(
                600, seed=SEED, chunk_size=chunk_size, executor=session
            )
        assert resumed == serial

    def test_journal_appends_once_per_batch_lease(self, tmp_path, monkeypatch):
        """A worker's batch lease folds and journals as one fsync'd
        append, so a 2-worker run appends far fewer times than it has
        chunks — and still journals every chunk and folds the serial
        tally."""
        from repro.distribute import checkpoint

        appends = []
        durable_append = checkpoint.durable_append

        def counting(path, data):
            appends.append(data.count(b"\n"))
            durable_append(path, data)

        monkeypatch.setattr(checkpoint, "durable_append", counting)
        simulator = muse_simulator()
        chunks = 60
        serial = simulator.run(chunks * 50, seed=SEED, chunk_size=50)
        key = derive_key(SEED)
        with DistributedSession(
            local_workers=2, checkpoint=CheckpointJournal.open(tmp_path, key)
        ) as session:
            distributed = simulator.run(
                chunks * 50, seed=SEED, chunk_size=50, executor=session
            )
        assert distributed == serial
        assert sum(appends) == chunks + 1  # every record, plus the header
        assert len(appends) < chunks / 2
        journal = CheckpointJournal.open(tmp_path, key, resume=True)
        assert len(journal) == chunks

    def test_first_table_build_of_a_session_leases_in_batches(
        self, tmp_path, monkeypatch
    ):
        """A fresh session sizes each untimed design point's leases
        from a timed point of the same shape, so a one-shot build does
        not open every point with single-chunk leases: 130 chunks in
        at most 25 appends (a warm build pays 19), same tallies."""
        from repro.distribute import checkpoint

        appends = []
        durable_append = checkpoint.durable_append

        def counting(path, data):
            appends.append(data)
            durable_append(path, data)

        monkeypatch.setattr(checkpoint, "durable_append", counting)
        serial = build_table_iv(trials=200_000, chunk_size=16384)
        with DistributedSession(
            local_workers=2,
            checkpoint=CheckpointJournal.open(tmp_path, derive_key(2022)),
        ) as session:
            fleet = build_table_iv(
                trials=200_000, chunk_size=16384, executor=session
            )
        assert [p.result for p in fleet.points] == [
            p.result for p in serial.points
        ]
        assert sum(data.count(b"\n") for data in appends) == 130 + 1
        assert len(appends) <= 25

    def test_resume_of_finished_run_recomputes_nothing(self, tmp_path):
        simulator = muse_simulator()
        key = derive_key(SEED)
        with DistributedSession(
            local_workers=1, checkpoint=CheckpointJournal.open(tmp_path, key)
        ) as session:
            first = simulator.run(
                400, seed=SEED, chunk_size=100, executor=session
            )
        journal = CheckpointJournal.open(tmp_path, key, resume=True)
        with DistributedSession(
            local_workers=1, checkpoint=journal
        ) as session:
            replayed = simulator.run(
                400, seed=SEED, chunk_size=100, executor=session
            )
            assert session._folds == 0  # everything answered from disk
        assert replayed == first

    def test_adaptive_interrupt_then_resume_identical_decisions(
        self, tmp_path
    ):
        """The round barrier replays journalled rounds deterministically:
        a resumed adaptive run stops at the same look with the same
        tally as an uninterrupted one."""
        policy = AdaptivePolicy(
            ci_target=0.3,
            metric="failure",
            initial_trials=100,
            max_trials=800,
        )
        simulator = muse_simulator()
        baseline = simulator.run_adaptive(policy, seed=7, chunk_size=50)
        key = derive_key(7)
        with pytest.raises(DistributedInterrupted):
            with DistributedSession(
                local_workers=1,
                checkpoint=CheckpointJournal.open(tmp_path, key),
                interrupt_after=2,
            ) as session:
                simulator.run_adaptive(
                    policy, seed=7, chunk_size=50, executor=session
                )
        journal = CheckpointJournal.open(tmp_path, key, resume=True)
        with DistributedSession(
            local_workers=1, checkpoint=journal
        ) as session:
            resumed = simulator.run_adaptive(
                policy, seed=7, chunk_size=50, executor=session
            )
        assert resumed.result == baseline.result
        assert resumed.trials_used == baseline.trials_used
        assert resumed.rounds == baseline.rounds
        assert resumed.converged == baseline.converged


def _cells(directory) -> dict[str, bytes]:
    """Every result-cache cell file under ``directory``, raw."""
    return {path.name: path.read_bytes() for path in directory.glob("*.jsonl")}


def _records(cells: dict[str, bytes]) -> dict[str, list[bytes]]:
    """The cells' lines, order-free: pool and fleet runs record chunks
    in completion order."""
    return {name: sorted(raw.splitlines()) for name, raw in cells.items()}


class TestResultCacheOnEveryPath:
    """The result cache lives in the shared grid fold, so a fixed run
    caches the same cells whichever path runs it."""

    def test_fixed_table_iv_writes_the_same_cells_on_every_path(
        self, tmp_path
    ):
        kwargs = dict(trials=2000, seed=3, chunk_size=500)
        baseline = [p.result for p in build_table_iv(**kwargs).points]
        written = {}
        with DistributedSession(local_workers=2) as session:
            paths = {
                "in-process": {},
                "pool": {"jobs": 2},
                "fleet": {"executor": session},
            }
            for name, extra in paths.items():
                directory = tmp_path / name
                for _ in ("cold", "warm"):
                    table = build_table_iv(
                        cache_dir=str(directory), **kwargs, **extra
                    )
                    assert [p.result for p in table.points] == baseline
                    # The warm rerun appends nothing: 0 trials recorded.
                    cells = _cells(directory)
                    assert written.setdefault(name, cells) == cells
        assert len(written["in-process"]) == len(baseline)  # a cell a point
        records = _records(written["in-process"])
        assert _records(written["pool"]) == records
        assert _records(written["fleet"]) == records

