"""The coordinator: serve a work-stealing chunk queue, fold the tallies.

One :class:`DistributedSession` owns the whole distributed run:

* a threaded TCP server speaking the JSON-line protocol, version 2
  (:mod:`repro.distribute.wire`) — one handler thread per connected
  worker, all mutating one lock-guarded :class:`ChunkQueue`.  A lease
  is a **batch** of consecutive chunks of one spec, guided-sized
  (``ceil(pending / (2 x workers))``, one chunk for a spec not yet
  timed, and at most an eighth of ``lease_timeout`` of expected
  compute; see :mod:`repro.distribute.queue`), so the frames, the lock
  holds and the journal appends are paid per batch, not per chunk;
* the **fold**: every first-completion tally merges into its group via
  ``MsedTally.merge`` exactly once (duplicates from stolen leases are
  dropped), so the distributed result is byte-identical to ``jobs=1``
  whatever the completion order, worker count, or failure history.  A
  worker's ``results`` frame folds under one lock acquisition;
* optional **checkpoints**: the chunks one ``results`` frame folds are
  journalled through a
  :class:`~repro.distribute.checkpoint.CheckpointJournal` in the same
  locked step, as one fsync'd append, before that worker's next frame
  is read; tasks a resumed journal already holds are answered from
  disk without ever being queued;
* the **round barrier**: :meth:`run_tasks` is a batch call — submit,
  wait for every fold, return ``{group: tally}`` — which is exactly the
  synchronisation point the adaptive campaign needs: the coordinator
  process evaluates the stopping policy between batches and decides
  continue/stop per look.

The session is a transport only.  The cross-run result cache and the
``--progress`` printer live one layer up, in
:func:`repro.orchestrate.pool.run_grid`, which serves cache hits
before a batch reaches :meth:`run_tasks` and receives every fold
through the same ``progress`` and ``on_chunk`` hooks that
:func:`~repro.orchestrate.pool.run_sharded` fires — so in-process,
pool and fleet runs cache and report alike.  Fleet faults (expired
leases, rejoins, departures, garbage frames) always log one
``[fleet]``/``[protocol]`` line through
:func:`~repro.telemetry.log.log_line`.

Workers survive across batches: between rounds they poll and are told
to idle, so an adaptive run pays connection setup once.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from repro import telemetry
from repro.distribute.chaos import FaultPlan, resolve_chaos, spec_string
from repro.distribute.checkpoint import CheckpointJournal, spec_fingerprint
from repro.distribute.queue import ChunkQueue
from repro.distribute.wire import (
    PROTOCOL_VERSION,
    from_wire,
    recv_message,
    send_message,
    tasks_frame,
)
from repro.orchestrate.persist import atomic_write_json
from repro.orchestrate.pool import ProgressCallback
from repro.reliability.metrics import MsedTally
from repro.telemetry.log import log_line

#: Environment hook for fault-injection smoke tests (CI): interrupt the
#: session after this many computed folds, as if the coordinator died.
INTERRUPT_ENV = "REPRO_DISTRIBUTE_INTERRUPT_AFTER"

#: A task that fails on this many distinct attempts aborts the run —
#: a deterministic bug would otherwise bounce between workers forever.
MAX_TASK_ATTEMPTS = 3

#: The durable partial-results report a degraded run leaves next to
#: the checkpoint journal (see :class:`DistributedDegraded`).
PARTIAL_RESULTS_NAME = "partial-results.json"


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


class _WorkerServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    session: "DistributedSession"

    def handle_error(self, request, client_address) -> None:
        # A connection dropping mid-message is a normal fault-tolerance
        # event (a worker died); the handler's ``finally`` has already
        # re-queued its leases — no stack trace needed.
        pass


class _WorkerHandler(socketserver.StreamRequestHandler):
    """One connected worker: a strict request→reply message loop."""

    def handle(self) -> None:
        session: DistributedSession = self.server.session
        address = f"{self.client_address[0]}:{self.client_address[1]}"
        try:
            hello = recv_message(self.rfile)
        except (ValueError, UnicodeDecodeError) as exc:
            session._protocol_error(address, exc)
            return
        if not hello or hello.get("op") != "hello":
            return
        if hello.get("version") != PROTOCOL_VERSION:
            send_message(
                self.wfile,
                {
                    "op": "error",
                    "message": f"protocol version {hello.get('version')} != "
                    f"{PROTOCOL_VERSION}",
                },
            )
            return
        # Lease keys stay unique per connection (the address part);
        # the self-reported name makes fleet logs readable.
        worker = f"{hello.get('worker', 'worker')}@{address}"
        send_message(self.wfile, {"op": "welcome", "version": PROTOCOL_VERSION})
        session._worker_joined(worker, rejoin=bool(hello.get("rejoin")))
        try:
            while True:
                try:
                    message = recv_message(self.rfile)
                    if message is None:
                        return  # worker went away; leases re-queue below
                    reply = session._handle_message(worker, message)
                except (ValueError, KeyError, TypeError) as exc:
                    # A torn or garbage frame from one worker is that
                    # worker's problem, not the run's: log it, drop the
                    # connection, and let the lease queue steal back
                    # whatever it held (the ``finally`` below).
                    session._protocol_error(worker, exc)
                    return
                if reply is None:
                    # Results are one-way in the pipelined protocol:
                    # the worker's next lease request is already in
                    # this socket's buffer, so an ack would only
                    # desynchronise the stream.
                    continue
                send_message(self.wfile, reply)
                if reply["op"] == "shutdown":
                    return
        finally:
            session._worker_gone(worker)


class DistributedSession:
    """Coordinator lifecycle + the batch fold API (context manager).

    ``local_workers=N`` spawns N loopback worker subprocesses against
    the session's own ephemeral port — the full distributed path on one
    host, which is what tests, CI, and ``--distribute local:N`` use.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        local_workers: int = 0,
        backend: str | None = None,
        checkpoint: CheckpointJournal | None = None,
        lease_timeout: float = 60.0,
        interrupt_after: int | None = None,
        poll_interval: float = 0.02,
        chaos: "str | None" = None,
    ):
        self.host = host
        self.requested_port = port
        self.local_workers = local_workers
        self.backend = backend
        self.checkpoint = checkpoint
        self.lease_timeout = lease_timeout
        if interrupt_after is None and os.environ.get(INTERRUPT_ENV):
            interrupt_after = int(os.environ[INTERRUPT_ENV])
        self.interrupt_after = interrupt_after
        self.poll_interval = poll_interval
        # Parse eagerly so a bad spec fails at construction, and arm
        # the coordinator-scoped plan (journal tearing) if a journal is
        # attached.  Workers get their own plans, scoped by name.
        self.chaos_spec = resolve_chaos(chaos)
        if (
            self.chaos_spec is not None
            and self.checkpoint is not None
            and self.checkpoint.chaos is None
        ):
            self.checkpoint.chaos = FaultPlan(self.chaos_spec, "coordinator")

        self._lock = threading.Lock()
        self._queue = ChunkQueue(lease_timeout=lease_timeout)
        self._batch_event = threading.Event()
        self._batch: dict[str, Any] | None = None
        self._attempt_errors: dict[int, list[str]] = {}
        self._error: str | None = None
        self._interrupted = False
        self._folds = 0
        self._workers: set[str] = set()
        self._closed = False
        self._server: _WorkerServer | None = None
        self._server_thread: threading.Thread | None = None
        self.worker_processes: list = []
        self.rejoins = 0
        self.protocol_errors = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("session is not open")
        return self._server.server_address[1]

    @property
    def workers_connected(self) -> int:
        with self._lock:
            return len(self._workers)

    def open(self) -> "DistributedSession":
        if self._server is not None:
            raise RuntimeError("session already open")
        self._server = _WorkerServer(
            (self.host, self.requested_port), _WorkerHandler
        )
        self._server.session = self
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            daemon=True,
            name="repro-coordinator",
        )
        self._server_thread.start()
        if self.local_workers:
            from repro.distribute.local import spawn_local_workers

            self.worker_processes = spawn_local_workers(
                self.host,
                self.port,
                self.local_workers,
                backend=self.backend,
                chaos=(
                    spec_string(self.chaos_spec)
                    if self.chaos_spec is not None
                    else None
                ),
            )
        return self

    def close(self) -> None:
        with self._lock:
            self._closed = True
        for process in self.worker_processes:
            process.join(timeout=5.0)
        for process in self.worker_processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def __enter__(self) -> "DistributedSession":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the batch fold API (what run_grid plugs into) ------------------

    def run_tasks(
        self,
        tasks: Iterable[Any],
        progress: ProgressCallback | None = None,
        on_chunk: Callable[[Any, Any, MsedTally], None] | None = None,
    ) -> dict[Any, MsedTally]:
        """Run one batch of chunk tasks to completion; the round barrier.

        Returns ``{group: folded tally}`` exactly like
        :func:`repro.orchestrate.pool.run_sharded` — checkpointed chunks
        fold from the journal, the rest fold as workers return them.
        As each chunk folds, ``on_chunk(group, chunk, tally)`` fires
        before the merge and ``progress(done, total)`` after it, both
        under the session lock.
        """
        task_list = list(tasks)
        with self._lock:
            if self._server is None or self._closed:
                raise RuntimeError("session is not open")
            results: dict[Any, MsedTally] = {}
            self._batch = {
                "results": results,
                "total": len(task_list),
                "done": 0,
                "progress": progress,
                "on_chunk": on_chunk,
            }
            self._batch_event.clear()
            for task in task_list:
                held = (
                    self.checkpoint.lookup(
                        task.group, task.chunk, spec_fingerprint(task.spec)
                    )
                    if self.checkpoint is not None
                    else None
                )
                if held is None:
                    self._queue.add_task(task)
                else:
                    self._fold_locked(task, held, computed=False)
            finished = self._batch["done"] >= self._batch["total"]
        while not finished:
            self._batch_event.wait(timeout=0.1)
            with self._lock:
                self._check_interrupt_locked()
                if self._error is not None:
                    message, self._error = self._error, None
                    raise self._degrade_locked(
                        f"distributed run failed: {message}"
                    )
                stolen = self._queue.reap_expired(time.monotonic())
                if stolen:
                    telemetry.counter("lease.expired", stolen)
                    telemetry.event("lease.expired", requeued=stolen)
                    log_line(f"[fleet] re-queued {stolen} expired lease(s)")
                if (
                    self.worker_processes
                    and not self._workers
                    and not any(
                        worker.is_alive() for worker in self.worker_processes
                    )
                ):
                    # A local fleet cannot grow back: with every spawned
                    # worker dead and none connected, waiting is forever.
                    # (A listen-mode session keeps waiting — external
                    # workers may join at any time.)
                    raise self._degrade_locked(
                        "all local workers exited with work outstanding; "
                        "see their stderr for the underlying failure"
                    )
                finished = self._batch["done"] >= self._batch["total"]
        with self._lock:
            self._batch = None
        return results

    # -- message handling (worker threads) ------------------------------

    def _handle_message(self, worker: str, message: dict) -> dict | None:
        op = message.get("op")
        if op == "next":
            return self._next_lease(worker)
        if op == "results":
            self._take_results(worker, from_wire(message["results"]))
            return None  # one-way: the worker never waits on an ack
        if op == "telemetry":
            # One-way counter deltas a worker ships while idle; folded
            # into the coordinator's registry under its name so fleet
            # totals survive the worker process.
            counters = message.get("counters")
            if isinstance(counters, dict):
                telemetry.merge_worker_counters(counters, worker=worker)
                # Mirror the deltas into the event log too: chaos firings
                # happen inside worker processes (no session there), so
                # without this the post-hoc report could not reconstruct
                # fault counts from ``events.jsonl`` alone.
                telemetry.event(
                    "telemetry.worker", worker=worker, counters=counters
                )
            return None
        return {"op": "error", "message": f"unknown op {op!r}"}

    def _next_lease(self, worker: str) -> dict:
        with self._lock:
            if self._closed:
                return {"op": "shutdown"}
            now = time.monotonic()
            stolen = self._queue.reap_expired(now)
            if stolen:
                telemetry.counter("lease.expired", stolen)
                telemetry.event("lease.expired", requeued=stolen)
            leased = self._queue.claim(worker, now, len(self._workers))
            if not leased:
                return {"op": "idle", "delay": self.poll_interval}
            return tasks_frame(leased)

    def _take_results(self, worker: str, entries: list[dict]) -> None:
        """Fold one ``results`` frame under one lock hold, and journal
        every chunk it folded in one fsync'd append before returning —
        that is, before this worker's next frame is read (a malformed
        entry still journals the chunks folded ahead of it)."""
        with self._lock:
            journal = []
            try:
                for entry in entries:
                    task_id = entry["id"]
                    if "error" in entry:
                        self._fail_locked(task_id, entry["error"])
                        continue
                    tally, seconds = entry["tally"], entry.get("seconds")
                    if not self._queue.complete(task_id, seconds):
                        telemetry.counter("chunks.duplicate")
                        continue  # a stolen lease's duplicate: fold once
                    task = self._queue.tasks[task_id]
                    folded = self._fold_locked(
                        task, tally, computed=True, worker=worker,
                        seconds=seconds,
                    )
                    if folded and self.checkpoint is not None:
                        journal.append(
                            (
                                task.group,
                                task.chunk,
                                tally,
                                spec_fingerprint(task.spec),
                            )
                        )
            finally:
                if journal:
                    self.checkpoint.record_many(journal)

    def _fail_locked(self, task_id: int, error: str) -> None:
        if task_id in self._queue.completed:
            return
        errors = self._attempt_errors.setdefault(task_id, [])
        errors.append(error)
        self._queue.requeue(task_id)
        telemetry.counter("chunks.failed")
        telemetry.event(
            "chunk.failed",
            task=task_id,
            attempts=len(errors),
            error=errors[-1],
            requeued=1,
        )
        if len(errors) >= MAX_TASK_ATTEMPTS:
            # A poison chunk: it failed on MAX_TASK_ATTEMPTS distinct
            # leases, so retrying elsewhere won't help.  Surface
            # *every* attempt's error — they may differ, and the first
            # one is often the honest one.
            detail = "; ".join(
                f"attempt {index}: {message}"
                for index, message in enumerate(errors, start=1)
            )
            self._error = (
                f"task {task_id} failed on {len(errors)} attempts "
                f"[{detail}]"
            )
            self._batch_event.set()

    def _worker_joined(self, worker: str, rejoin: bool = False) -> None:
        with self._lock:
            self._workers.add(worker)
            telemetry.counter("worker.rejoins" if rejoin else "worker.joins")
            telemetry.gauge("workers.connected", len(self._workers))
            telemetry.event(
                "worker.rejoin" if rejoin else "worker.join", worker=worker
            )
            if rejoin:
                self.rejoins += 1
                log_line(
                    f"[fleet] worker {worker} rejoined "
                    f"(rejoin #{self.rejoins})"
                )

    def _worker_gone(self, worker: str) -> None:
        with self._lock:
            self._workers.discard(worker)
            stolen = self._queue.release_worker(worker)
            telemetry.gauge("workers.connected", len(self._workers))
            telemetry.event("worker.leave", worker=worker, requeued=stolen)
            if stolen:
                telemetry.counter("leases.stolen", stolen)
                log_line(
                    f"[fleet] worker {worker} left; re-queued {stolen} "
                    f"lease(s)"
                )

    def _protocol_error(self, worker: str, exc: Exception) -> None:
        """A torn/garbage frame: count it, log it, and let the caller
        drop only that worker's connection (its leases re-queue)."""
        with self._lock:
            self.protocol_errors += 1
            telemetry.counter("protocol.errors")
            telemetry.event("protocol.error", worker=worker, error=repr(exc))
            log_line(
                f"[protocol] dropping worker {worker} after unparseable "
                f"frame: {exc!r}"
            )

    # -- fold (lock held) ------------------------------------------------

    def _fold_locked(
        self,
        task: Any,
        tally: MsedTally,
        computed: bool,
        worker: str | None = None,
        seconds: float | None = None,
    ) -> bool:
        """Fold one chunk into the open batch; ``False`` if no batch is
        open (a late result after a degraded barrier).  A ``computed``
        chunk (not a journal replay) also counts and reports its span;
        the caller journals it."""
        batch = self._batch
        if batch is None:  # pragma: no cover - late result after barrier
            return False
        if batch["on_chunk"] is not None:
            batch["on_chunk"](task.group, task.chunk, tally)
        held = batch["results"].get(task.group)
        if held is None:
            batch["results"][task.group] = MsedTally().merge(tally)
        else:
            held.merge(tally)
        if computed:
            self._folds += 1
            telemetry.counter("chunks.computed", group=str(task.group))
            telemetry.record_spec(task.group, spec_fingerprint(task.spec))
            if seconds is not None:
                # The worker timed its own decode; surface it as the
                # same ``decode_chunk`` span the in-process path emits
                # so the report's slowest-points table covers both.
                telemetry.histogram(
                    "span.decode_chunk",
                    seconds,
                    point=str(task.group),
                    worker=worker or "?",
                )
                telemetry.event(
                    "span",
                    name="decode_chunk",
                    seconds=round(seconds, 6),
                    attrs={
                        "point": str(task.group),
                        "worker": worker or "?",
                        "trials": tally.trials,
                    },
                )
        else:
            telemetry.counter("chunks.replayed", group=str(task.group))
        batch["done"] += 1
        if batch["progress"] is not None:
            batch["progress"](batch["done"], batch["total"])
        if batch["done"] >= batch["total"]:
            self._batch_event.set()
        if (
            self.interrupt_after is not None
            and self._folds >= self.interrupt_after
        ):
            self._batch_event.set()
        return True

    def _degrade_locked(self, message: str) -> DistributedDegraded:
        """Build the graceful-degradation exit (lock held): write the
        durable partial-results report next to the journal, and return
        the exception for the caller to raise.  Everything folded so
        far survives; ``--resume`` finishes the run later."""
        telemetry.event(
            "run.degraded",
            reason=message,
            requeues=self._queue.requeues,
            rejoins=self.rejoins,
            protocol_errors=self.protocol_errors,
        )
        report_path = None
        if self.checkpoint is not None:
            batch = self._batch or {}
            report_path = self.checkpoint.path.parent / PARTIAL_RESULTS_NAME
            atomic_write_json(
                report_path,
                {
                    "version": 1,
                    "key": self.checkpoint.key,
                    "reason": message,
                    "batch": {
                        "done": batch.get("done", 0),
                        "total": batch.get("total", 0),
                    },
                    "requeues": self._queue.requeues,
                    "rejoins": self.rejoins,
                    "protocol_errors": self.protocol_errors,
                    "groups": self.checkpoint.folded(),
                    "resumable": True,
                },
            )
            message += (
                f"; partial results + checkpoint saved under "
                f"{report_path.parent} — re-run with --resume to finish"
            )
        else:
            message += (
                "; no checkpoint journal was configured, so completed "
                "chunks were not preserved (use --checkpoint-dir)"
            )
        self._batch = None
        return DistributedDegraded(message, report_path=report_path)

    def _check_interrupt_locked(self) -> None:
        if (
            self.interrupt_after is not None
            and not self._interrupted
            and self._folds >= self.interrupt_after
        ):
            self._interrupted = True
            raise DistributedInterrupted(
                f"forced interrupt after {self._folds} folded chunks"
                + (
                    f"; checkpoint saved to {self.checkpoint.path}"
                    if self.checkpoint is not None
                    else ""
                )
            )
