"""Distributed multi-host execution for the Monte-Carlo studies.

The scale rung over the PR-3 streaming orchestrator: because every
chunk tally is a pure function of ``(spec, chunk range, stream key)``
and folds commutatively, a chunk can run *anywhere* — so this package
ships :class:`ChunkTask` specs to remote hosts over a pickle-free
JSON-line socket protocol and folds the returned tallies exactly once:

* :mod:`~repro.distribute.wire` — framing, the registered-dataclass
  codec and the version-2 batch frames;
* :mod:`~repro.distribute.queue` — the work-stealing queue of guided
  batch leases (re-queues work from dead or straggling workers);
* :mod:`~repro.distribute.checkpoint` — the atomic per-chunk tally
  journal behind ``--checkpoint-dir`` / ``--resume``;
* :mod:`~repro.distribute.coordinator` — :class:`DistributedSession`,
  the server + batch fold API (``run_tasks``) that plugs into
  :func:`repro.orchestrate.pool.run_grid` as an ``executor`` and
  serves as the adaptive campaign's round barrier;
* :mod:`~repro.distribute.worker` / :mod:`~repro.distribute.local` —
  the ``repro-muse worker --connect`` pull loop and the loopback
  ``--distribute local:N`` subprocess fleet;
* :mod:`~repro.distribute.cache` — the cross-run result cache behind
  ``--cache-dir``, consulted by :func:`repro.orchestrate.pool.run_grid`
  on every path;
* :mod:`~repro.distribute.progress` — the one ``--progress`` printer;
* :mod:`~repro.distribute.chaos` — deterministic fault injection
  (``--chaos SPEC`` / ``REPRO_CHAOS``): seeded connection resets, torn
  frames, worker crashes, straggler hangs, duplicated results, and
  torn journal tails, so the fault-tolerance story is *tested* the way
  the repo tests memory faults, not assumed.

Each name above loads its module on first use
(:func:`repro._lazy.lazy_exports`): a worker imports its own loop, the
wire codec and chaos only — no coordinator, journal or cache — and a
run without ``--distribute`` loads this module alone (for
:func:`execution_context` and the two exceptions a fleet run can end
with).

The invariant, inherited from the chunk/fold contract and preserved by
exactly-once folding: a distributed run's tally — and every adaptive
stopping decision derived from it — is **byte-identical** to the
``jobs=1`` in-process run at the same seed, across worker counts,
worker deaths, reconnects, injected chaos, and checkpoint/resume
boundaries.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Iterator

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".chaos": (
        "CHAOS_ENV",
        "ChaosSpec",
        "FaultPlan",
        "parse_chaos",
        "resolve_chaos",
    ),
    ".checkpoint": ("JOURNAL_NAME", "CheckpointJournal", "SalvageReport"),
    ".cache": ("ResultCache",),
    ".coordinator": (
        "INTERRUPT_ENV",
        "PARTIAL_RESULTS_NAME",
        "DistributedSession",
    ),
    ".local": ("spawn_local_workers",),
    ".progress": ("ChunkProgress",),
    ".queue": ("ChunkQueue",),
    ".wire": ("PROTOCOL_VERSION", "from_wire", "register_wire_type", "to_wire"),
    ".worker": ("serve_worker",),
})

__all__ = [
    "CHAOS_ENV",
    "ChaosSpec",
    "CheckpointJournal",
    "ChunkProgress",
    "ChunkQueue",
    "DistributedDegraded",
    "DistributedInterrupted",
    "DistributedSession",
    "FaultPlan",
    "INTERRUPT_ENV",
    "JOURNAL_NAME",
    "PARTIAL_RESULTS_NAME",
    "PROTOCOL_VERSION",
    "ResultCache",
    "SalvageReport",
    "execution_context",
    "from_wire",
    "parse_chaos",
    "parse_distribute",
    "register_wire_type",
    "resolve_chaos",
    "serve_worker",
    "session_from_spec",
    "spawn_local_workers",
    "to_wire",
]


class DistributedInterrupted(RuntimeError):
    """Raised by the forced-interrupt fault hook after the journal is
    saved; a ``--resume`` run picks up from the checkpoint."""


class DistributedDegraded(RuntimeError):
    """The run could not finish — poison chunk, total fleet loss — but
    everything already folded was preserved: the checkpoint journal
    holds every folded chunk and a partial-results report is written
    next to it, so a later ``--resume`` finishes the run instead of
    restarting it.
    Surfaced by the CLI as exit code 4 (vs 3 for a plain interrupt)."""

    def __init__(self, message: str, report_path: Path | None = None):
        super().__init__(message)
        self.report_path = report_path


def parse_distribute(spec: str) -> dict:
    """Parse a ``--distribute`` spec into session keyword arguments.

    * ``local:N`` — spawn N loopback worker subprocesses;
    * ``listen:PORT`` / ``listen:HOST:PORT`` — serve the queue and wait
      for external ``repro-muse worker --connect`` processes.
    """
    mode, _, rest = spec.partition(":")
    try:
        if mode == "local":
            count = int(rest)
            if count < 1:
                raise ValueError
            return {"local_workers": count}
        if mode == "listen":
            host, sep, port = rest.rpartition(":")
            return {
                "host": host if sep else "0.0.0.0",
                "port": int(port if sep else rest),
            }
    except ValueError:
        pass
    raise ValueError(
        f"bad --distribute spec {spec!r}; expected local:N, listen:PORT "
        f"or listen:HOST:PORT"
    )


def session_from_spec(
    spec: str,
    *,
    seed: int,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    backend: str | None = None,
) -> DistributedSession:
    """Build (but do not open) the session a ``--distribute`` run uses.

    Fault injection (``$REPRO_CHAOS``) and the forced-interrupt hook
    (``$REPRO_DISTRIBUTE_INTERRUPT_AFTER``) arm themselves from the
    environment in :class:`DistributedSession`; chaos reaches the
    spawned loopback workers too.
    """
    from repro.distribute.checkpoint import CheckpointJournal
    from repro.distribute.coordinator import DistributedSession
    from repro.orchestrate.rng import derive_key

    kwargs = parse_distribute(spec)
    checkpoint = None
    if checkpoint_dir is not None:
        # The append-only journal persists each fold in O(1) (fsync'd
        # line append): a hard kill can tear at most the final
        # in-flight record, which the CRC salvage discards on --resume.
        checkpoint = CheckpointJournal.open(
            checkpoint_dir,
            key=derive_key(seed),
            resume=resume,
        )
    return DistributedSession(backend=backend, checkpoint=checkpoint, **kwargs)


@contextlib.contextmanager
def execution_context(
    distribute: str | None,
    *,
    seed: int,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    backend: str | None = None,
    progress: bool = False,
) -> Iterator[tuple]:
    """The one experiment-side entry point: ``(executor, progress_cb)``.

    With ``distribute`` set, the executor is an open
    :class:`DistributedSession`; without it, ``None`` (in process or a
    ``--jobs`` pool).  Either way ``progress_cb`` is the one
    :class:`ChunkProgress` printer when ``progress`` is on, else
    ``None``: :func:`repro.orchestrate.pool.run_grid` calls it once per
    computed chunk on every path, and the adaptive campaign prints its
    allocation rounds through it.  Checkpoints belong to the
    coordinator, so ``checkpoint_dir`` without ``distribute`` refuses
    loudly instead of silently not journaling.
    """
    from repro.distribute.progress import ChunkProgress

    printer = ChunkProgress() if progress else None
    if distribute is None:
        if checkpoint_dir is not None:
            raise ValueError(
                "--checkpoint-dir requires --distribute (use "
                "'--distribute local:1' for a single-host resumable run)"
            )
        yield None, printer
        return
    session = session_from_spec(
        distribute,
        seed=seed,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        backend=backend,
    )
    with session:
        yield session, printer
