"""Fleet telemetry: metrics, spans, event logs, and run manifests.

One :class:`Telemetry` object owns a run's observability state — a
:class:`~repro.telemetry.registry.MetricsRegistry`, a CRC'd JSONL
event log, a Prometheus textfile, and the end-of-run
``run-manifest.json`` — and is installed process-wide by
:func:`telemetry_session`.  Instrumented sites never hold a handle;
they call the module-level helpers (:func:`event`, :func:`counter`,
:func:`span`, …), which are **no-ops when no session is active**: one
``is None`` check, no allocation, no I/O.  That is the zero-cost
contract that lets instrumentation live permanently in the hot layers
(coordinator, worker, scheduler, cache, chaos).

The companion invariant is *non-perturbation*: telemetry only reads
clocks and counts events — it never touches an RNG stream, a chunk
plan, or a fold — so tallies are byte-identical with telemetry on or
off (pinned by the parity tests in ``tests/telemetry/``).

The package itself is small: the sinks, the manifest and the report
load when a session opens or a report renders
(:func:`repro._lazy.lazy_exports`).

Worker subprocesses do **not** open their own session against the
coordinator's run directory (concurrent appends to one event log
would interleave batches); they keep plain counter dicts and ship
deltas over the wire as one-way ``telemetry`` frames, which the
coordinator folds into its registry under ``worker=<name>`` labels.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, ContextManager, Iterator

from repro._lazy import lazy_exports
from repro.telemetry.spans import span_recorder

__getattr__, __dir__ = lazy_exports(globals(), {
    ".log": ("log_enabled", "log_level", "log_line"),
    ".manifest": ("MANIFEST_NAME",),
    ".report": ("render_report",),
    ".sinks": ("EVENT_LOG_NAME", "PROM_NAME", "read_events"),
})

__all__ = [
    "Telemetry",
    "telemetry_session",
    "current",
    "set_current",
    "counter",
    "gauge",
    "histogram",
    "event",
    "span",
    "record_spec",
    "attach_summary",
    "merge_worker_counters",
    "read_events",
    "render_report",
    "log_line",
    "log_level",
    "log_enabled",
    "EVENT_LOG_NAME",
    "PROM_NAME",
    "MANIFEST_NAME",
]


class Telemetry:
    """All observability state of one run, bound to one directory."""

    def __init__(self, run_dir: str | Path, **meta: Any) -> None:
        from repro.telemetry.registry import MetricsRegistry
        from repro.telemetry.sinks import (
            EVENT_LOG_NAME,
            PROM_NAME,
            EventLogSink,
            PrometheusTextfileSink,
        )

        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.meta = {k: v for k, v in meta.items() if v is not None}
        self.registry = MetricsRegistry()
        self.epoch = time.perf_counter()
        self.started_unix = time.time()
        self.summary: Any = None
        self.spec_fingerprints: dict[str, str] = {}
        self._pid = os.getpid()
        self._emit_lock = threading.Lock()
        self._event_log = EventLogSink(self.run_dir / EVENT_LOG_NAME)
        self._prom = PrometheusTextfileSink(self.run_dir / PROM_NAME)
        self._closed = False

    # -- events ------------------------------------------------------

    def emit(self, record: dict[str, Any]) -> None:
        """Append one event (its ``t`` offset is stamped here)."""
        record.setdefault("t", round(time.perf_counter() - self.epoch, 6))
        with self._emit_lock:
            self._event_log.emit(record)
        self._prom.write(self.registry)

    def event(self, type_: str, **fields: Any) -> None:
        self.emit({"type": type_, **fields})

    @property
    def events_written(self) -> int:
        return self._event_log.events_written

    # -- metrics -----------------------------------------------------

    def counter(self, name: str, amount: float = 1, **labels: Any) -> None:
        self.registry.counter_inc(name, amount, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self.registry.gauge_set(name, value, **labels)

    def histogram(self, name: str, value: float, **labels: Any) -> None:
        self.registry.histogram_observe(name, value, **labels)

    def span(self, name: str, **attrs: Any) -> ContextManager[None]:
        return span_recorder(self, name, **attrs)

    # -- run metadata ------------------------------------------------

    def record_spec(self, group: Any, fingerprint: str) -> None:
        self.spec_fingerprints[str(group)] = fingerprint

    def attach_summary(self, summary: Any) -> None:
        """Machine-readable results (tallies) for the manifest."""
        self.summary = summary

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        from repro.orchestrate.persist import atomic_write_json
        from repro.telemetry.manifest import MANIFEST_NAME, build_manifest

        if self._closed:
            return
        self._closed = True
        self.event("run.close", events=self._event_log.events_written + 1)
        manifest = build_manifest(self)
        with self._emit_lock:
            self._event_log.close()
        self._prom.write(self.registry, force=True)
        atomic_write_json(self.run_dir / MANIFEST_NAME, manifest)


# -- process-wide session ------------------------------------------------

_CURRENT: Telemetry | None = None


def current() -> Telemetry | None:
    """The active session, or ``None`` — the zero-cost gate.

    A forked child (process-pool worker on Linux) inherits the parent's
    module global; honouring it there would mean several processes
    appending to one event log.  The owner-PID check makes telemetry
    silently inert in such children — their work is observed from the
    parent's side instead.
    """
    telemetry = _CURRENT
    if telemetry is not None and telemetry._pid != os.getpid():
        return None
    return telemetry


def set_current(telemetry: Telemetry | None) -> Telemetry | None:
    """Install ``telemetry`` process-wide; returns the previous one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    return previous


@contextmanager
def telemetry_session(
    run_dir: str | Path | None, **meta: Any
) -> Iterator[Telemetry | None]:
    """Install a session for the duration of a run.

    ``run_dir=None`` yields ``None`` without side effects, so callers
    can wrap unconditionally::

        with telemetry_session(telemetry_dir, experiment="table4", ...) as tel:
            ...

    On exit the event log is flushed, the Prometheus textfile gets its
    final write, and ``run-manifest.json`` lands atomically — even if
    the body raised (the manifest of a failed run is still evidence).
    """
    if run_dir is None:
        yield None
        return
    telemetry = Telemetry(run_dir, **meta)
    previous = set_current(telemetry)
    telemetry.event("run.start", **telemetry.meta)
    try:
        yield telemetry
    finally:
        set_current(previous)
        telemetry.close()


# -- no-op-when-disabled helpers ----------------------------------------


def counter(name: str, amount: float = 1, **labels: Any) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.counter(name, amount, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.gauge(name, value, **labels)


def histogram(name: str, value: float, **labels: Any) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.histogram(name, value, **labels)


def event(type_: str, **fields: Any) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.event(type_, **fields)


def span(name: str, **attrs: Any) -> ContextManager[None]:
    telemetry = current()
    if telemetry is None:
        return nullcontext()
    return telemetry.span(name, **attrs)


def record_spec(group: Any, fingerprint: str) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.record_spec(group, fingerprint)


def attach_summary(summary: Any) -> None:
    telemetry = current()
    if telemetry is not None:
        telemetry.attach_summary(summary)


def merge_worker_counters(counters: dict[str, float], worker: str) -> None:
    """Fold a worker's wire-shipped counter deltas into the session."""
    telemetry = current()
    if telemetry is not None:
        telemetry.registry.merge_counters(counters, worker=worker)
