"""The worker side: connect, pull batch leases, push tallies — and come
back after a network blip.

``repro-muse worker --connect HOST:PORT`` runs :func:`serve_worker`: a
single-threaded pull loop against the coordinator's queue.  Each lease
is a ``tasks`` frame naming consecutive chunks of one spec (protocol
version 2, :mod:`repro.distribute.wire`); the spec's runner is rebuilt
(and cached) through the PR-3 per-worker cache
(:func:`repro.orchestrate.worker.runner_for` via
:func:`run_chunk_task`), each chunk executed with whatever decode
backend this host has, and the batch's tallies shipped back as plain
integers in one ``results`` frame — so a heterogeneous fleet (numpy
here, scalar there) still folds byte-identical results.  Dispatch is
*pipelined*: the next lease request is already queued at the
coordinator while the current batch computes, and the finished batch's
results ship in the same write as the following request, so
steady-state execution never waits on a socket round-trip.

A worker is expendable by design: if it dies mid-batch the coordinator
re-queues every chunk of its leases, and if a chunk raises it reports
that chunk's failure and moves on rather than wedging.  But expendable
is not the same as disposable — a *transient* connection failure
(flaky switch, injected ``reset`` chaos, coordinator restart) no
longer ends the worker.  The session loop reconnects with exponential
backoff + jitter and rejoins the fleet (``hello`` with ``rejoin:
true``, which the coordinator counts and logs), so a blip costs the
chunks of one batch lease (recomputed elsewhere), not a worker.  The
loop only ends for good when the coordinator says ``shutdown``, closes
the connection cleanly (EOF on an idle worker), or stays unreachable
for the whole reconnect window.

Fault injection: with a chaos spec active (``--chaos`` or the
inherited ``REPRO_CHAOS``), the loop consults a deterministic
:class:`~repro.distribute.chaos.FaultPlan` at each chunk of a batch —
hang, crash, reset, torn frame, duplicated result — so the fleet's
failure modes are reproducible test subjects instead of production
surprises, and a fault's event index counts chunks whatever the lease
sizes were.

Telemetry: a worker process never opens its own telemetry session
(two processes appending one event log would interleave batches).  It
keeps plain integer counters — chunks executed/failed, reconnects,
chaos firings — and ships the *deltas* to the coordinator as one-way
``{"op": "telemetry", "counters": {...}}`` frames riding the normal
result/poll flushes, where they fold into the coordinator's registry
under ``worker=<name>`` labels.  Each chunk's result entry also
carries its compute ``seconds``, which sizes the coordinator's next
lease of that spec and becomes the same ``decode_chunk`` span the
in-process path records.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import socket
import time

from repro.distribute.chaos import CHAOS_CRASH_EXIT, FaultPlan, plan_for
from repro.distribute.wire import (
    PROTOCOL_VERSION,
    read_tasks,
    recv_message,
    send_message,
    send_messages,
    to_wire,
)
from repro.orchestrate.worker import run_chunk_task

#: How long a worker that lost its connection keeps trying to rejoin
#: before concluding the coordinator is gone and exiting cleanly.
RECONNECT_TIMEOUT = 10.0


class _ChaosReset(ConnectionError):
    """An injected connection reset (chaos); handled like a real one."""


def _connect_with_retry(
    host: str, port: int, timeout: float
) -> socket.socket:
    """Retry until the coordinator is listening (workers often start
    first, e.g. under a process supervisor), with exponential backoff
    plus jitter so a rejoining fleet doesn't reconnect in lockstep.

    Raises :class:`ConnectionError` carrying the *last* underlying
    ``OSError`` once the deadline passes — "refused for 10s" and "no
    route to host" need different fixes, so the timeout must not eat
    the evidence.
    """
    deadline = time.monotonic() + timeout
    delay = 0.05
    while True:
        try:
            return socket.create_connection((host, port), timeout=30.0)
        except OSError as exc:
            now = time.monotonic()
            if now >= deadline:
                raise ConnectionError(
                    f"coordinator at {host}:{port} unreachable for "
                    f"{timeout:.1f}s (last error: {exc!r})"
                ) from exc
            # Full jitter on an exponential ceiling: sleep in
            # [0.5, 1.5) * delay, capped at the remaining budget.
            time.sleep(min(delay * (0.5 + random.random()), deadline - now))
            delay = min(delay * 2, 2.0)


def _with_backend(task, backend: str | None):
    """Re-target a task's spec at this worker's decode backend.

    Safe by the cross-backend contract: scalar and numpy tally
    byte-identically, so a mixed fleet still folds one truth.
    """
    if backend is None or not hasattr(task.spec, "backend"):
        return task
    return dataclasses.replace(
        task, spec=dataclasses.replace(task.spec, backend=backend)
    )


def _send_torn_frame(wfile, frame: dict) -> None:
    """Write a deliberately unparseable prefix of ``frame`` (chaos
    ``torn``): the coordinator must treat it as a protocol error, not
    a crash."""
    line = json.dumps(frame, separators=(",", ":")).encode()
    wfile.write(line[: max(8, len(line) // 3)] + b"\xff\xfe\n")
    wfile.flush()


def _bump(counters: dict, name: str, amount: int = 1) -> None:
    counters[name] = counters.get(name, 0) + amount


def _results_frames(entries: list[dict]) -> list[dict]:
    """The (0 or 1) ``results`` frames carrying a batch's entries."""
    return [{"op": "results", "results": entries}] if entries else []


def _telemetry_frames(counters: dict, shipped: dict) -> list[dict]:
    """The (0 or 1) wire frames carrying unshipped counter deltas."""
    deltas = {
        name: value - shipped.get(name, 0)
        for name, value in counters.items()
        if value != shipped.get(name, 0)
    }
    if not deltas:
        return []
    shipped.update(counters)
    return [{"op": "telemetry", "counters": deltas}]


def _serve_session(
    sock: socket.socket,
    worker_name: str,
    backend: str | None,
    plan: FaultPlan | None,
    rejoin: bool,
    executed: list,
    counters: dict | None = None,
    shipped: dict | None = None,
) -> bool:
    """One connection's pull loop.

    Returns ``True`` on a clean end (shutdown op, or EOF while idle —
    the coordinator finished); raises ``ConnectionError`` on an abrupt
    loss so the caller can rejoin.  ``executed`` is a single-element
    counter that survives the exception path; ``counters``/``shipped``
    hold the telemetry tallies and the high-water mark of what the
    coordinator has already been told.
    """
    counters = counters if counters is not None else {}
    shipped = shipped if shipped is not None else {}
    sock.settimeout(None)
    rfile = sock.makefile("rb")
    wfile = sock.makefile("wb")
    send_message(
        wfile,
        {
            "op": "hello",
            "version": PROTOCOL_VERSION,
            "worker": worker_name,
            "rejoin": rejoin,
        },
    )
    welcome = recv_message(rfile)
    if not welcome or welcome.get("op") != "welcome":
        raise RuntimeError(
            f"coordinator refused the connection: {welcome!r}"
        )
    # Pipelined dispatch: the request for lease N+1 is already in
    # flight while batch N computes, and batch N's results ride in the
    # same write as the *next* lease request — so the round-trip stall
    # (send results, await ack, send next, await tasks) collapses to
    # zero between back-to-back batches.  ``pending`` holds the result
    # entries of the last computed batch until the next reply arrives;
    # losing the connection just requeues that batch's chunks.
    pending: list[dict] = []
    send_message(wfile, {"op": "next"})
    while True:
        reply = recv_message(rfile)
        if reply is None:
            if pending:
                raise ConnectionError("coordinator went away mid-result")
            return True
        op = reply.get("op")
        if op == "shutdown":
            return True
        if op not in ("idle", "tasks"):
            raise RuntimeError(f"unexpected coordinator reply: {reply!r}")
        if op == "idle" and not pending:
            # An idle beat is the natural moment to fold this worker's
            # counter deltas back to the coordinator: it costs one
            # extra frame on a poll that was being sent anyway, and
            # every batch ends in an idle beat.
            time.sleep(float(reply.get("delay", 0.05)))
        # Pending results go out with this request even on an idle
        # reply, unslept: the coordinator may be waiting on exactly
        # them to close the barrier.
        send_messages(
            wfile,
            [
                *_results_frames(pending),
                *_telemetry_frames(counters, shipped),
                {"op": "next"},
            ],
        )
        pending = []
        if op == "idle":
            continue
        for task_id, task in read_tasks(reply):
            task = _with_backend(task, backend)
            if plan is not None:
                if plan.should("hang"):  # straggle past the lease timeout
                    _bump(counters, "worker.chaos.hang")
                    time.sleep(plan.spec.hang_seconds)
                if plan.should("crash"):  # die holding the lease
                    os._exit(CHAOS_CRASH_EXIT)
                if plan.should("reset"):  # blip before reporting
                    _bump(counters, "worker.chaos.reset")
                    raise _ChaosReset("chaos: connection reset before result")
            started = time.perf_counter()
            try:
                *_, tally = run_chunk_task(task)
            except Exception as exc:  # report, don't die: the chunk may
                # succeed on a worker with different capabilities.
                _bump(counters, "worker.chunks_failed")
                pending.append({"id": task_id, "error": repr(exc)})
                continue
            executed[0] += 1
            _bump(counters, "worker.chunks_executed")
            entry = {
                "id": task_id,
                "tally": to_wire(tally),
                "seconds": round(time.perf_counter() - started, 6),
            }
            pending.append(entry)
            if plan is not None and plan.should("torn"):
                _bump(counters, "worker.chaos.torn")
                _send_torn_frame(wfile, _results_frames(pending)[0])
                raise _ChaosReset("chaos: torn results frame")
            if plan is not None and plan.should("dup"):
                _bump(counters, "worker.chaos.dup")
                pending.append(entry)  # exactly-once fold drops it


def serve_worker(
    host: str,
    port: int,
    backend: str | None = None,
    connect_timeout: float = 10.0,
    name: str | None = None,
    chaos: "str | None" = None,
    reconnect_timeout: float = RECONNECT_TIMEOUT,
) -> int:
    """Serve one worker until the coordinator shuts the run down.

    Returns the number of chunks executed (handy for tests and logs).
    ``chaos`` (a spec string; defaults to ``$REPRO_CHAOS``) arms
    deterministic fault injection scoped to this worker's name.
    """
    worker_name = name or f"pid-{os.getpid()}"
    plan = plan_for(chaos, worker_name)
    executed = [0]
    counters: dict = {}
    shipped: dict = {}
    rejoin = False
    while True:
        try:
            sock = _connect_with_retry(
                host, port, reconnect_timeout if rejoin else connect_timeout
            )
        except OSError:
            if rejoin:
                # The coordinator stayed gone past the reconnect
                # window: the run is over (or moved); stop quietly.
                return executed[0]
            raise
        if rejoin:
            _bump(counters, "worker.reconnects")
        try:
            finished = _serve_session(
                sock, worker_name, backend, plan, rejoin, executed,
                counters, shipped,
            )
        except (ConnectionError, BrokenPipeError, OSError):
            finished = False  # abrupt loss: back off and rejoin
        finally:
            sock.close()
        if finished:
            return executed[0]
        rejoin = True
