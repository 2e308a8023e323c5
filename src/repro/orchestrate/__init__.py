"""Streaming, multi-process Monte-Carlo orchestration.

Layered over the PR-1/PR-2 batch engines, this package scales the MSED
studies past one process while keeping memory flat in trial count:

* :mod:`~repro.orchestrate.rng` — counter-based randomness: every draw
  is a pure hash of ``(stream key, global trial index)``, so the trial
  stream is identical under any chunking;
* :mod:`~repro.orchestrate.plan` — :func:`plan_chunks` splits a run
  into :class:`Chunk` ranges (the streaming unit);
* :mod:`~repro.orchestrate.corruption` — chunk-addressable corruption
  generators, written once over the MUSE / RS code-family layer;
* :mod:`~repro.orchestrate.worker` / :mod:`~repro.orchestrate.pool` —
  picklable :class:`ChunkTask` specs, the per-worker runner cache, and
  :func:`run_grid`, which runs a design points x chunks grid in
  process, over a :class:`~concurrent.futures.ProcessPoolExecutor` or
  on a distributed session and folds the mergeable tallies;
* :mod:`~repro.orchestrate.sweep` — :func:`run_all`, the concurrent
  ``repro-muse all`` sweep with captured reports and a results
  directory.

The invariant every piece preserves: for a fixed master seed the folded
tally of a run is **byte-identical** for every ``(chunk_size, jobs)``
combination, including ``jobs=1`` vs ``jobs>1``.
"""

from repro.orchestrate.persist import atomic_write_json, atomic_write_text
from repro.orchestrate.plan import (
    Chunk,
    DEFAULT_CHUNK_SIZE,
    plan_chunk_range,
    plan_chunks,
    resolve_chunk_size,
)
from repro.orchestrate.pool import (
    ProgressCallback,
    map_unordered,
    run_grid,
    run_sharded,
)
from repro.orchestrate.rng import counter_draws, derive_key, mix64, trial_seed
from repro.orchestrate.sweep import (
    EXPERIMENT_TARGETS,
    ExperimentTask,
    SweepOutcome,
    resolve_experiment,
    run_all,
)
from repro.orchestrate.worker import (
    ChunkTask,
    CodeRef,
    MuseSimSpec,
    RsSimSpec,
    group_labels,
    run_chunk_task,
)

__all__ = [
    "Chunk",
    "ChunkTask",
    "CodeRef",
    "DEFAULT_CHUNK_SIZE",
    "EXPERIMENT_TARGETS",
    "ExperimentTask",
    "MuseSimSpec",
    "ProgressCallback",
    "RsSimSpec",
    "SweepOutcome",
    "atomic_write_json",
    "atomic_write_text",
    "counter_draws",
    "derive_key",
    "group_labels",
    "map_unordered",
    "mix64",
    "plan_chunk_range",
    "plan_chunks",
    "resolve_chunk_size",
    "resolve_experiment",
    "run_all",
    "run_chunk_task",
    "run_grid",
    "run_sharded",
    "trial_seed",
]
