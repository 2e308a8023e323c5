"""Chunked trial plans: split a run into fixed-size, seedless pieces.

A :class:`Chunk` names a half-open trial range ``[start, start+size)``
of one logical ``(trials, seed)`` run.  Because every random draw is a
counter hash of the *global* trial index (:mod:`repro.orchestrate.rng`),
a chunk is fully described by its range — no per-chunk seed state — and
a run's tally is a pure fold of its chunks' tallies, byte-identical for
any ``(chunk_size, jobs)`` split.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default trials per chunk: large enough to amortise the vectorised
#: kernels (throughput saturates around 10^4), small enough that peak
#: memory stays a few MB per in-flight chunk however many trials the
#: run totals.
DEFAULT_CHUNK_SIZE = 65_536


@dataclass(frozen=True)
class Chunk:
    """Trials ``[start, start + size)`` of one logical run."""

    start: int
    size: int

    @property
    def stop(self) -> int:
        return self.start + self.size


def resolve_chunk_size(trials: int, chunk_size: int | None) -> int:
    """Normalise a requested chunk size (``None`` -> the default cap)."""
    if chunk_size is None:
        return min(trials, DEFAULT_CHUNK_SIZE) or 1
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


def plan_chunks(trials: int, chunk_size: int | None = None) -> tuple[Chunk, ...]:
    """Split ``trials`` into contiguous chunks of at most ``chunk_size``.

    The last chunk carries the remainder; ``trials == 0`` plans nothing.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    return plan_chunk_range(0, trials, chunk_size)


def plan_chunk_range(
    start: int, stop: int, chunk_size: int | None = None
) -> tuple[Chunk, ...]:
    """Chunks covering trials ``[start, stop)`` of a logical run.

    The adaptive sampler extends a run round by round: trials
    ``[0, n_0)``, then ``[n_0, n_1)``, ...  Because draws are counter
    hashes of the global trial index, the chunks of a later round are
    planned exactly like a fresh run's — only the range moves — and the
    fold of all rounds equals a single fixed-trial run of ``n_k``
    trials (the prefix property the adaptive tests pin).
    """
    if start < 0 or stop < start:
        raise ValueError(
            f"need 0 <= start <= stop, got start={start} stop={stop}"
        )
    if stop == start:
        return ()
    size = resolve_chunk_size(stop - start, chunk_size)
    return tuple(
        Chunk(begin, min(size, stop - begin))
        for begin in range(start, stop, size)
    )


def guided_share(pending: int, workers: int) -> int:
    """How many of ``pending`` tasks the next dispatch takes.

    Guided self-scheduling: ``ceil(pending / (2 * workers))``, at least
    one.  Early dispatches are large, so a chunk grid pays its
    per-dispatch cost (a pool submit, a fleet lease) a few dozen times
    instead of once per chunk; the last ones are single chunks, so the
    workers still finish together.  The pool and the fleet lease queue
    both size their batches here.
    """
    return max(1, -(-pending // (2 * max(1, workers))))


def guided_batches(items: list, workers: int) -> list[list]:
    """``items`` cut into consecutive :func:`guided_share` batches."""
    batches = []
    start = 0
    while start < len(items):
        stop = start + guided_share(len(items) - start, workers)
        batches.append(items[start:stop])
        start = stop
    return batches
