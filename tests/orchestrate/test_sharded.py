"""Sharded-run determinism: the orchestrator's headline invariant.

For a fixed master seed, a simulator's tally must be **byte-identical**
for every ``(chunk_size, jobs)`` combination — chunked vs monolithic,
one process vs a pool — for both code families on both decode backends.
"""

import pytest

from repro.core.codes import muse_80_69
from repro.engine import available_backends
from repro.orchestrate import Chunk, CodeRef, derive_key, plan_chunks
from repro.orchestrate.pool import run_grid, run_sharded
from repro.orchestrate.worker import ChunkTask, MuseSimSpec
from repro.reliability.metrics import MsedTally
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    build_table_iv,
    run_design_points,
)
from repro.rs.reed_solomon import rs_144_128

#: 193 = 3*64 + 1: chunk size 64 is a power of two *and* leaves a
#: one-trial remainder chunk; 100 leaves a 93-trial remainder; 193 is
#: the full run in a single chunk.
TRIALS = 193
CHUNK_SIZES = (64, 100, 193)
JOBS = (1, 2)


def _muse_simulator(backend):
    return MuseMsedSimulator(
        muse_80_69(),
        backend=backend,
        code_ref=CodeRef("repro.core.codes:muse_80_69"),
    )


def _rs_simulator(backend):
    return RsMsedSimulator(
        rs_144_128(),
        backend=backend,
        code_ref=CodeRef("repro.rs.reed_solomon:rs_144_128"),
    )


class TestChunkedDeterminism:
    """Satellite: chunked-vs-monolithic equality, both families x
    backends x chunk sizes x job counts."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize(
        "make", (_muse_simulator, _rs_simulator), ids=("muse", "rs")
    )
    def test_tally_invariant_under_chunking_and_jobs(self, make, backend):
        simulator = make(backend)
        monolithic = simulator.run(TRIALS, seed=5)
        for chunk_size in CHUNK_SIZES:
            for jobs in JOBS:
                result = simulator.run(
                    TRIALS, seed=5, jobs=jobs, chunk_size=chunk_size
                )
                assert result == monolithic, (
                    f"tally diverged at chunk_size={chunk_size} jobs={jobs} "
                    f"backend={backend}"
                )

    def test_different_seeds_differ(self):
        simulator = _muse_simulator("auto")
        assert simulator.run(400, seed=1) != simulator.run(400, seed=2)

    def test_chunk_fold_matches_run(self):
        """run() is literally the fold of run_chunk over the plan."""
        simulator = _muse_simulator("auto")
        key = derive_key(9)
        tally = MsedTally()
        for chunk in plan_chunks(300, 77):
            tally.merge(simulator.run_chunk(chunk, key))
        assert tally.freeze() == simulator.run(300, seed=9, chunk_size=77)

    def test_zero_trials(self):
        result = _muse_simulator("auto").run(0, seed=1)
        assert result.trials == 0


class TestSimulatorSpecs:
    def test_jobs_without_code_ref_raises(self):
        simulator = MuseMsedSimulator(muse_80_69())
        with pytest.raises(ValueError, match="code_ref"):
            simulator.run(64, seed=1, jobs=2, chunk_size=32)

    def test_cached_in_process_run_without_code_ref_names_the_cache(
        self, tmp_path
    ):
        """In process, only the result cache needs the spec (it keys
        its cells by it), and the error says so rather than blaming
        multi-process workers."""
        simulator = MuseMsedSimulator(muse_80_69())
        with pytest.raises(ValueError, match="code_ref: result-cache cells"):
            run_design_points([simulator], 100, 1, cache_dir=str(tmp_path))

    def test_string_code_ref_accepted(self):
        simulator = MuseMsedSimulator(
            muse_80_69(), code_ref="repro.core.codes:muse_80_69"
        )
        serial = simulator.run(96, seed=3)
        assert simulator.run(96, seed=3, jobs=2, chunk_size=32) == serial

    def test_bad_code_ref_target_rejected(self):
        with pytest.raises(ValueError, match="module:callable"):
            CodeRef("repro.core.codes.muse_80_69").build()

    def test_mismatched_code_ref_rejected(self):
        """A ref naming a *different* code must fail fast instead of
        letting workers tally the wrong code."""
        from repro.core.codes import muse_80_67

        simulator = MuseMsedSimulator(
            muse_80_67(), code_ref="repro.core.codes:muse_80_69"
        )
        with pytest.raises(ValueError, match="different code"):
            simulator.run(64, seed=1, jobs=2, chunk_size=32)


class TestRunSharded:
    def test_groups_fold_independently(self):
        spec = MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69"))
        key = derive_key(4)
        tasks = [
            ChunkTask(group, spec, chunk, key)
            for group in ("a", "b")
            for chunk in plan_chunks(100, 40)
        ]
        folded = run_sharded(tasks, jobs=1)
        assert set(folded) == {"a", "b"}
        assert folded["a"].freeze() == folded["b"].freeze()
        assert folded["a"].trials == 100

    def test_progress_callback_counts_tasks(self):
        spec = MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69"))
        tasks = [
            ChunkTask(0, spec, chunk, derive_key(4))
            for chunk in plan_chunks(90, 30)
        ]
        seen = []
        run_sharded(tasks, jobs=1, progress=lambda done, total: seen.append((done, total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_chunk_hook_sees_every_task_once(self):
        spec = MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69"))
        tasks = [
            ChunkTask(0, spec, chunk, derive_key(4))
            for chunk in plan_chunks(90, 30)
        ]
        hooked = []
        folded = run_sharded(
            tasks, jobs=1, on_chunk=lambda group, chunk, tally: hooked.append(
                (group, chunk.start, tally.trials)
            )
        )
        assert hooked == [(0, 0, 30), (0, 30, 30), (0, 60, 30)]
        assert folded[0].trials == 90

    def test_worker_cache_reuses_runner(self):
        from repro.orchestrate import worker

        spec = MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69"))
        first = worker.runner_for(spec)
        assert worker.runner_for(spec) is first
        assert worker.runner_for(
            MuseSimSpec(code=CodeRef("repro.core.codes:muse_80_69"))
        ) is first  # structural equality, not identity


#: Two points, four uneven chunks each: the grid every run_grid test runs.
GRID = [(index, chunk) for index in (0, 1) for chunk in plan_chunks(150, 40)]


class _SerialExecutor:
    """A stand-in for a distributed session: ``run_tasks`` with the
    session's signature, folding in process and keeping the tasks."""

    tasks = ()

    def run_tasks(self, tasks, progress=None, on_chunk=None):
        self.tasks = tasks
        return run_sharded(tasks, 1, progress, on_chunk)


#: run_grid's three paths, as keyword arguments.
PATHS = {
    "in-process": dict,
    "pool": lambda: {"jobs": 2},
    "executor": lambda: {"executor": _SerialExecutor()},
}


class TestRunGrid:
    """The one grid runner: in process on the caller's runners, over a
    pool from their specs, or through an executor — one fold."""

    def test_paths_fold_identically(self):
        runners = [_muse_simulator("auto"), _rs_simulator("auto")]
        key = derive_key(3)
        serial = run_grid(runners, GRID, key)
        assert run_grid(runners, GRID, key, jobs=2) == serial
        assert serial[0].freeze() == runners[0].run(150, seed=3, chunk_size=40)
        assert serial[1].freeze() == runners[1].run(150, seed=3, chunk_size=40)

    def test_in_process_path_needs_no_code_ref(self):
        runners = [MuseMsedSimulator(muse_80_69())]
        cells = [(0, chunk) for chunk in plan_chunks(100, 30)]
        assert run_grid(runners, cells, derive_key(2))[0].trials == 100
        with pytest.raises(ValueError, match="code_ref"):
            run_grid(runners, cells, derive_key(2), jobs=2)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_progress_and_hook_fire_once_per_chunk(self, jobs):
        runners = [_muse_simulator("auto"), _rs_simulator("auto")]
        calls, hooked = [], []
        run_grid(
            runners, GRID, derive_key(3), jobs=jobs,
            progress=lambda done, total: calls.append((done, total)),
            on_chunk=lambda index, chunk, tally: hooked.append(
                (index, chunk.start, tally.trials)
            ),
        )
        assert calls == [(done, len(GRID)) for done in range(1, len(GRID) + 1)]
        assert sorted(hooked) == [
            (index, chunk.start, chunk.size) for index, chunk in GRID
        ]

    def test_executor_path_maps_groups_to_points(self):
        """An executor gets one task per cell, labelled by the point's
        group, and its ``{group: tally}`` comes back keyed by index."""
        runners = [_muse_simulator("auto"), _rs_simulator("auto")]
        executor = _SerialExecutor()
        folded = run_grid(
            runners, GRID, derive_key(3), groups=["grid:0", "grid:1"],
            executor=executor,
        )
        assert [(task.group, task.chunk) for task in executor.tasks] == [
            (f"grid:{index}", chunk) for index, chunk in GRID
        ]
        assert folded == run_grid(runners, GRID, derive_key(3))

    def test_hook_fires_once_per_chunk_on_the_executor_path(self):
        """The executor hands every fold back through ``on_chunk``,
        keyed by point index like the other paths, not by group."""
        runners = [_muse_simulator("auto"), _rs_simulator("auto")]
        calls, hooked = [], []
        run_grid(
            runners, GRID, derive_key(3), groups=["grid:0", "grid:1"],
            executor=_SerialExecutor(),
            progress=lambda done, total: calls.append((done, total)),
            on_chunk=lambda index, chunk, tally: hooked.append(
                (index, chunk.start, tally.trials)
            ),
        )
        assert calls == [(done, len(GRID)) for done in range(1, len(GRID) + 1)]
        assert sorted(hooked) == [
            (index, chunk.start, chunk.size) for index, chunk in GRID
        ]

    @pytest.mark.parametrize("path", PATHS)
    def test_cache_serves_and_records_on_every_path(self, tmp_path, path):
        """A cold grid records every cell it runs; a warm one folds
        them all from the cache and runs, hooks and reports nothing."""
        from repro.distribute import ResultCache

        runners = [_muse_simulator("auto"), _rs_simulator("auto")]
        cold = ResultCache(tmp_path)
        folded = run_grid(
            runners, GRID, derive_key(3), cache=cold, **PATHS[path]()
        )
        assert folded == run_grid(runners, GRID, derive_key(3))
        assert cold.trials_recorded == sum(chunk.size for _, chunk in GRID)

        warm, calls = ResultCache(tmp_path), []
        again = run_grid(
            runners, GRID, derive_key(3), cache=warm,
            progress=lambda *call: calls.append(call),
            on_chunk=lambda *cell: calls.append(cell),
            **PATHS[path](),
        )
        assert again == folded
        assert (warm.hits, warm.misses) == (len(GRID), 0)
        assert warm.trials_recorded == 0
        assert calls == []

    def test_point_without_cells_is_absent(self):
        runners = [_muse_simulator("auto"), _rs_simulator("auto")]
        folded = run_grid(runners, [(1, Chunk(0, 10))], derive_key(3))
        assert list(folded) == [1]
        assert folded[1].trials == 10


class TestTableIVSharded:
    """Acceptance: build_table_iv tallies byte-identical across
    (chunk_size, jobs), including jobs=1 vs jobs>1."""

    def test_table_iv_invariant_under_chunking_and_jobs(self):
        trials, seed = 240, 11
        baseline = build_table_iv(trials=trials, seed=seed)
        for jobs, chunk_size in ((1, 64), (2, 64), (2, 100), (2, None)):
            table = build_table_iv(
                trials=trials, seed=seed, jobs=jobs, chunk_size=chunk_size
            )
            assert [p.result for p in table.points] == [
                p.result for p in baseline.points
            ], f"table diverged at jobs={jobs} chunk_size={chunk_size}"
            assert [p.label for p in table.points] == [
                p.label for p in baseline.points
            ]
