"""Run chunk grids in process, over a process pool or on a fleet.

:func:`run_grid` is the one place that picks how a design-point grid
of ``(point index, chunk)`` cells runs — on the caller's own runners
in process, across a :class:`ProcessPoolExecutor`, or through a
distributed executor's ``run_tasks`` — and folds each point's chunk
tallies, serving and filling the optional result cache and calling the
progress printer the same way on all three; fixed-budget runs and
campaign rounds both call it.
:func:`run_sharded` folds any list of :class:`ChunkTask` by group,
serially or over a pool.

Because every tally merge is plain integer addition (associative and
commutative) and every chunk's content is a pure function of
``(spec, chunk, key)``, the folded result is byte-identical whichever
path ran and in whatever order futures completed: ``jobs=8`` equals
``jobs=1`` equals any other split.

Memory stays flat in the total trial count: only per-chunk arrays and
per-group counter objects are ever alive, never a ``(trials, ...)``
materialisation.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable, Sequence

from repro.orchestrate.plan import Chunk, guided_batches
from repro.orchestrate.worker import ChunkTask, run_chunk_task, traced_chunk

ProgressCallback = Callable[[int, int], None]


def _fold(results: dict, group: Any, tally: Any) -> None:
    held = results.get(group)
    if held is None:
        results[group] = tally
    else:
        held.merge(tally)


def _run_batch(fn: Callable[[Any], Any], batch: list) -> list:
    return [fn(task) for task in batch]


def map_unordered(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    on_result: Callable[[Any], None] | None = None,
    guided: bool = False,
) -> None:
    """The one serial-or-pool fan-out skeleton every sweep shares.

    Runs ``fn`` over every task — in process for ``jobs <= 1``, across
    a :class:`ProcessPoolExecutor` otherwise (``fn`` and the tasks must
    then be picklable).  ``on_result(result)`` and
    ``progress(done, total)`` both fire on the parent once per task as
    its future completes, in completion order; callers needing a
    deterministic result order fold commutatively or reorder afterwards.

    The pool gets one future per task, or with ``guided`` one per run
    of consecutive tasks sized by
    :func:`~repro.orchestrate.plan.guided_share` — for chunk grids,
    whose chunks can compute in about what a submit, its pickling and
    its IPC cost.
    """
    task_list: Sequence[Any] = list(tasks)
    total = len(task_list)
    if jobs <= 1 or total <= 1:
        for done, task in enumerate(task_list, start=1):
            result = fn(task)
            if on_result is not None:
                on_result(result)
            if progress is not None:
                progress(done, total)
        return
    from concurrent.futures import ProcessPoolExecutor, as_completed

    batches = (
        guided_batches(task_list, jobs)
        if guided
        else [[task] for task in task_list]
    )
    with ProcessPoolExecutor(max_workers=min(jobs, total)) as executor:
        futures = [executor.submit(_run_batch, fn, batch) for batch in batches]
        try:
            done = 0
            for future in as_completed(futures):
                for result in future.result():
                    done += 1
                    if on_result is not None:
                        on_result(result)
                    if progress is not None:
                        progress(done, total)
        except BaseException:
            # Surface the failure now: without cancel_futures every
            # queued task would still run before __exit__ returned.
            executor.shutdown(wait=False, cancel_futures=True)
            raise


def run_sharded(
    tasks: Iterable[ChunkTask],
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    on_chunk: Callable[[Any, Chunk, Any], None] | None = None,
) -> dict[Any, Any]:
    """Run every chunk task and return ``{group: folded tally}``.

    In process for ``jobs <= 1``, else over a pool in guided batches of
    consecutive tasks; each task's runner is rebuilt from its spec
    (:func:`~repro.orchestrate.worker.runner_for`).
    ``on_chunk(group, chunk, tally)`` fires on the parent as each chunk
    completes, before its tally is folded (a hook that keeps the tally
    must copy it).  Folding is plain integer addition, so the result is
    independent of completion order, batching and ``jobs``.
    """
    results: dict[Any, Any] = {}

    def fold(result: tuple[Any, Chunk, Any]) -> None:
        if on_chunk is not None:
            on_chunk(*result)
        group, _, tally = result
        _fold(results, group, tally)

    map_unordered(run_chunk_task, tasks, jobs, progress, fold, guided=True)
    return results


def run_grid(
    runners: Sequence[Any],
    cells: Iterable[tuple[int, Chunk]],
    key: int,
    *,
    groups: Sequence[Any] | None = None,
    spec_of: Callable[[int], Any] | None = None,
    jobs: int = 1,
    progress: ProgressCallback | None = None,
    executor: Any | None = None,
    on_chunk: Callable[[int, Chunk, Any], None] | None = None,
    cache: Any | None = None,
) -> dict[int, Any]:
    """Run every ``(point index, chunk)`` cell; ``{index: folded tally}``.

    ``runners[index]`` runs point ``index``'s chunks; ``groups[index]``
    labels its fold group and ``decode_chunk`` spans (bare indices by
    default).  A point without cells is absent from the result.

    With a ``cache`` (:class:`repro.distribute.cache.ResultCache`, or
    any object with its ``lookup``/``record``/``flush``), every cell it
    holds folds from it and is not run; every cell that does run is
    recorded into it, and the cache is flushed on the way out.  The
    remaining cells run on one of three paths:

    * ``jobs <= 1``, no ``executor``: in process, cell by cell, on
      ``runners`` themselves — no spec, so no ``code_ref``, is needed
      unless a cache must fingerprint one;
    * ``jobs > 1``: over a process pool (:func:`run_sharded`), each
      worker rebuilding the runner from ``spec_of(index)``;
    * ``executor`` (a :class:`repro.distribute.DistributedSession`):
      its ``run_tasks``, which leases, folds and journals.

    ``spec_of`` defaults to each runner's ``_task_spec()``, built once
    per call; a caller running several grids over the same runners
    passes one memoised getter.  On every path, for each cell run (on
    a session, also each one replayed from its checkpoint journal),
    ``on_chunk(index, chunk, tally)`` fires once before its fold and
    ``progress(done, total)`` once after it, counting those cells.
    """
    cells = list(cells)
    groups = list(range(len(runners))) if groups is None else groups
    if spec_of is None:
        spec_of = functools.cache(lambda index: runners[index]._task_spec())
    results: dict[int, Any] = {}
    if cache is None:
        hook = on_chunk
    else:
        missing = []
        for index, chunk in cells:
            held = cache.lookup(key, spec_of(index), chunk)
            if held is None:
                missing.append((index, chunk))
            else:
                _fold(results, index, held)
        cells = missing

        def hook(index: int, chunk: Chunk, tally: Any) -> None:
            cache.record(key, spec_of(index), chunk, tally)
            if on_chunk is not None:
                on_chunk(index, chunk, tally)

    try:
        if executor is None and jobs <= 1:
            for done, (index, chunk) in enumerate(cells, start=1):
                tally = traced_chunk(runners[index], groups[index], chunk, key)
                if hook is not None:
                    hook(index, chunk, tally)
                _fold(results, index, tally)
                if progress is not None:
                    progress(done, len(cells))
            return results
        tasks = [
            ChunkTask(groups[index], spec_of(index), chunk, key)
            for index, chunk in cells
        ]
        index_of = {group: index for index, group in enumerate(groups)}
        by_group = None if hook is None else (
            lambda group, chunk, tally: hook(index_of[group], chunk, tally)
        )
        if executor is not None:
            folded = executor.run_tasks(tasks, progress, by_group)
        else:
            folded = run_sharded(tasks, jobs, progress, by_group)
        for group, tally in folded.items():
            _fold(results, index_of[group], tally)
        return results
    finally:
        if cache is not None:
            cache.flush()
