"""The coordinator's work-stealing chunk queue.

Workers *pull*: an idle worker asks for work, the queue hands it a
**batch lease** — up to N consecutive pending chunks of one task spec,
each leased under its own ``(task id, worker, deadline)`` — and the
fold happens when the worker reports the batch's tallies back.

The batch size N is guided self-scheduling
(:func:`repro.orchestrate.plan.guided_share`): ``ceil(pending / (2 x
connected workers))``, so early leases are large and the last ones are
single chunks.  Two rules bound it:

* a spec no result has timed yet is sized from the results of its
  *shape* — specs of the same class, scenario, ``k_symbols`` and chunk
  size (the design points of one table); while no result of that
  shape is back either, a lease is **one** chunk, whose reported
  compute time sizes the next, and a worker still computing a lease
  gets none (its pipelined request is answered ``idle``, and the one
  that carries its results gets a sized lease);
* a lease's expected compute (chunks x the spec's mean reported
  seconds per chunk) stays under :data:`LEASE_BUDGET` of
  ``lease_timeout``, so a batch of slow chunks is never stolen from a
  healthy worker.

Everything after the lease stays per chunk.  Fault tolerance is two
rules:

* **death** — when a worker's connection drops, every chunk it held is
  re-queued immediately (:meth:`ChunkQueue.release_worker`);
* **straggling** — a chunk lease older than ``lease_timeout`` is stolen
  back into the pending queue (:meth:`ChunkQueue.reap_expired`), so one
  hung host cannot wedge the run.

Both rules can make a chunk run more than once; the queue keeps the
fold **exactly-once** anyway by marking each task id completed on the
first result and telling callers to drop duplicates
(:meth:`ChunkQueue.complete` returns ``False``).  Because every chunk
tally is a pure function of its task (the PR-3 counter-RNG contract),
a duplicate execution computes the *same* tally, so dropping it keeps
the folded result byte-identical to a single-execution run.

The queue is plain state + methods over
:class:`~repro.orchestrate.worker.ChunkTask` values, synchronised by
the caller (the coordinator holds one lock around all queue access),
which keeps the logic single-threaded and unit-testable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.orchestrate.plan import guided_share

#: The share of ``lease_timeout`` a batch lease's expected compute may
#: fill: at most an eighth, so even a several-fold misestimate leaves
#: the batch well inside its deadline.
LEASE_BUDGET = 1 / 8


def _shape(task: Any) -> tuple:
    """What makes two specs' chunks cost about the same: spec class,
    scenario, ``k_symbols`` and chunk size (the code may differ)."""
    spec = task.spec
    return (
        type(spec),
        getattr(spec, "scenario", None),
        getattr(spec, "k_symbols", None),
        task.chunk.size,
    )


@dataclass
class Lease:
    """One outstanding chunk: who has it and when it is presumed lost."""

    task_id: int
    worker: str
    deadline: float


@dataclass
class ChunkQueue:
    """Lease-based pull queue over integer task ids."""

    lease_timeout: float = 60.0
    tasks: dict[int, Any] = field(default_factory=dict)
    pending: deque = field(default_factory=deque)
    leases: dict[int, Lease] = field(default_factory=dict)
    completed: set = field(default_factory=set)
    requeues: int = 0
    #: spec -> [seconds, chunks] summed over its timed results.
    timings: dict[Any, list] = field(default_factory=dict)
    #: The same sums per shape (:func:`_shape`), for untimed specs.
    shape_timings: dict[tuple, list] = field(default_factory=dict)
    _next_id: int = 0

    def add_task(self, task: Any) -> int:
        task_id = self._next_id
        self._next_id += 1
        self.tasks[task_id] = task
        self.pending.append(task_id)
        return task_id

    def lease_size(self, task: Any, worker: str, workers: int) -> int:
        """How many chunks of ``task``'s spec ``worker``'s next lease
        may take (0: none yet)."""
        timed = self.timings.get(task.spec)
        if timed is None:
            timed = self.shape_timings.get(_shape(task))
        if timed is None:
            # One chunk, and none to a worker that is still computing
            # a lease: its results, due with its next request, will
            # time the shape and size that request's lease.
            held = any(lease.worker == worker for lease in self.leases.values())
            return 0 if held else 1
        share = guided_share(len(self.pending), workers)
        seconds, chunks = timed
        if seconds <= 0:
            return share
        fits = int(self.lease_timeout * LEASE_BUDGET * chunks / seconds)
        return max(1, min(share, fits))

    def claim(
        self, worker: str, now: float, workers: int = 1
    ) -> list[tuple[int, Any]]:
        """Lease ``worker`` a batch of consecutive pending chunks sharing
        one group, spec and stream key; ``[]`` if the queue is
        momentarily empty (idle — or all work is leased out), or if
        ``worker`` must first report the result that times the next
        spec's shape (:meth:`lease_size`).  ``workers`` is how many
        share the queue (the guided divisor)."""
        while self.pending and self.pending[0] in self.completed:
            self.pending.popleft()
        if not self.pending:
            return []
        first = self.tasks[self.pending[0]]
        limit = self.lease_size(first, worker, workers)
        deadline = now + self.lease_timeout
        batch: list[tuple[int, Any]] = []
        while self.pending and len(batch) < limit:
            task_id = self.pending[0]
            task = self.tasks[task_id]
            if task_id not in self.completed and not (
                task.spec == first.spec
                and task.group == first.group
                and task.key == first.key
            ):
                break
            self.pending.popleft()
            if task_id in self.completed:
                continue
            self.leases[task_id] = Lease(task_id, worker, deadline)
            batch.append((task_id, task))
        return batch

    def complete(self, task_id: int, seconds: float | None = None) -> bool:
        """First completion wins: ``True`` to fold, ``False`` to drop a
        duplicate from a stolen or re-queued lease.  ``seconds`` (the
        worker-timed compute) feeds the spec's lease-size estimate."""
        self.leases.pop(task_id, None)
        if task_id in self.completed:
            return False
        if task_id not in self.tasks:
            raise KeyError(f"unknown task id {task_id}")
        self.completed.add(task_id)
        if seconds is not None:
            task = self.tasks[task_id]
            for sums in (
                self.timings.setdefault(task.spec, [0.0, 0]),
                self.shape_timings.setdefault(_shape(task), [0.0, 0]),
            ):
                sums[0] += seconds
                sums[1] += 1
        return True

    def requeue(self, task_id: int) -> None:
        """Put one leased task back in the pending queue (worker
        reported a failure; another attempt may succeed elsewhere)."""
        self.leases.pop(task_id, None)
        if task_id not in self.completed:
            self.pending.append(task_id)
            self.requeues += 1

    def release_worker(self, worker: str) -> int:
        """Re-queue every lease a (dead) worker holds; returns count."""
        return self._steal(
            [
                lease.task_id
                for lease in self.leases.values()
                if lease.worker == worker
            ]
        )

    def reap_expired(self, now: float) -> int:
        """Steal back every lease past its deadline; returns count."""
        return self._steal(
            [
                lease.task_id
                for lease in self.leases.values()
                if lease.deadline <= now
            ]
        )

    def _steal(self, task_ids: list[int]) -> int:
        # Lease order is claim order, so a stolen batch goes back to
        # the pending queue still consecutive and can re-lease whole.
        for task_id in task_ids:
            del self.leases[task_id]
            self.pending.append(task_id)
        self.requeues += len(task_ids)
        return len(task_ids)

    @property
    def done(self) -> bool:
        return len(self.completed) == len(self.tasks)

    @property
    def outstanding(self) -> int:
        return len(self.tasks) - len(self.completed)
