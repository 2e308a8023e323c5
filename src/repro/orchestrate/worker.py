"""Picklable shard tasks and the worker-side runner cache.

A shard task must cross a process boundary, so it carries *recipes*,
not objects: a :class:`CodeRef` names a zero-argument-cheap factory
("module:callable" plus args) that the worker calls to rebuild the code
— the expensive per-code state (ELC tables, engine lookup tables) is
built once per worker and cached, instead of being pickled per task.

The contract a spec implements:

* it is a frozen (hashable, picklable) dataclass;
* ``spec.build()`` returns a *runner* exposing
  ``run_chunk(chunk, key) -> tally`` where the tally supports
  ``merge`` (associative fold, see :class:`MsedTally`).

:func:`run_chunk_task` is the function the process pool actually
executes; :mod:`repro.orchestrate.pool` folds its results by group.
:func:`traced_chunk` is the one chunk body both it and the in-process
path of :func:`repro.orchestrate.pool.run_grid` run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any

from repro.orchestrate.plan import Chunk


@dataclass(frozen=True)
class CodeRef:
    """A picklable reference to a code factory: ``"module:callable"``.

    Examples: ``CodeRef("repro.core.codes:muse_80_69")``,
    ``CodeRef("repro.reliability.monte_carlo:muse_design_point", (3,))``.
    """

    target: str
    args: tuple = ()

    def build(self) -> Any:
        module_name, sep, attr = self.target.partition(":")
        if not sep or not attr:
            raise ValueError(
                f"CodeRef target must look like 'module:callable', "
                f"got {self.target!r}"
            )
        factory = getattr(importlib.import_module(module_name), attr)
        return factory(*self.args)


def as_code_ref(code_ref: "CodeRef | str | None") -> CodeRef:
    """Normalise a user-supplied ref (``CodeRef`` or string) or fail."""
    if code_ref is None:
        raise ValueError(
            "this run needs a picklable code_ref: result-cache cells are "
            "keyed by it and multi-process or distributed workers rebuild "
            "the code from it; pass e.g. "
            "CodeRef('repro.core.codes:muse_80_69') or the 'module:callable' "
            "string directly"
        )
    if isinstance(code_ref, CodeRef):
        return code_ref
    return CodeRef(code_ref)


def checked_code_ref(code_ref, code, signature) -> CodeRef:
    """Resolve ``code_ref`` and prove it rebuilds *this* code.

    Workers tally whatever the ref's factory returns, so a ref naming a
    different code would silently break the jobs-invariance contract;
    one parent-side rebuild per run catches the mismatch up front.
    """
    ref = as_code_ref(code_ref)
    rebuilt = ref.build()
    if signature(rebuilt) != signature(code):
        raise ValueError(
            f"code_ref {ref.target!r} (args={ref.args!r}) rebuilds "
            f"{rebuilt!r}, which does not match this simulator's code "
            f"{code!r}; workers would tally a different code"
        )
    return ref


@dataclass(frozen=True)
class MuseSimSpec:
    """Rebuild a :class:`MuseMsedSimulator` inside a worker."""

    code: CodeRef
    k_symbols: int = 2
    ripple_check: bool = True
    backend: str = "auto"
    #: Registered fault-scenario name (repro.scenarios).  Part of the
    #: spec — and therefore of ``spec_fingerprint`` — so result-cache
    #: and checkpoint cells of two scenarios can never collide.
    scenario: str = "msed"

    def build(self):
        from repro.reliability.monte_carlo import MuseMsedSimulator

        return MuseMsedSimulator(
            self.code.build(),
            k_symbols=self.k_symbols,
            ripple_check=self.ripple_check,
            backend=self.backend,
            scenario=self.scenario,
        )


@dataclass(frozen=True)
class RsSimSpec:
    """Rebuild an :class:`RsMsedSimulator` inside a worker."""

    code: CodeRef
    k_symbols: int = 2
    device_bits: int | None = 4
    backend: str = "auto"
    #: Registered fault-scenario name; see :class:`MuseSimSpec`.
    scenario: str = "msed"

    def build(self):
        from repro.reliability.monte_carlo import RsMsedSimulator

        return RsMsedSimulator(
            self.code.build(),
            k_symbols=self.k_symbols,
            device_bits=self.device_bits,
            backend=self.backend,
            scenario=self.scenario,
        )


def group_labels(count: int, group_ns: "str | None") -> list:
    """Fold-group labels for a design-point grid.

    Bare indices by default; ``group_ns`` prefixes them
    (``"frontier:3"``) so two different grids sharing one distributed
    session — or one checkpoint journal — can never collide.
    """
    if group_ns is None:
        return list(range(count))
    return [f"{group_ns}:{index}" for index in range(count)]


@dataclass(frozen=True)
class ChunkTask:
    """One shard: run ``spec``'s chunk ``chunk`` of stream ``key``.

    ``group`` labels which logical run (design point, experiment row)
    the resulting tally folds into.
    """

    group: Any
    spec: Any
    chunk: Chunk
    key: int


#: Per-process runner cache: spec -> built runner.  Specs are frozen
#: dataclasses, so equality/hash are structural and a forked or spawned
#: worker rebuilds each distinct runner exactly once.
_RUNNERS: dict[Any, Any] = {}


def runner_for(spec: Any) -> Any:
    runner = _RUNNERS.get(spec)
    if runner is None:
        runner = spec.build()
        _RUNNERS[spec] = runner
    return runner


def traced_chunk(runner: Any, group: Any, chunk: Chunk, key: int) -> Any:
    """``runner.run_chunk(chunk, key)`` under a ``decode_chunk`` span
    labelled by the fold ``group``.

    The span is a no-op in pool children and loopback worker
    subprocesses (no telemetry session there — the coordinator
    observes their chunks instead), but an external ``repro-muse
    worker --telemetry-dir`` run records its own per-chunk trail.
    """
    from repro import telemetry

    with telemetry.span("decode_chunk", point=str(group)):
        return runner.run_chunk(chunk, key)


def run_chunk_task(task: ChunkTask) -> tuple[Any, Chunk, Any]:
    """Execute one shard; the pool's sole entry point into a worker.

    Returns ``(group, chunk, tally)``: the parent folds the tally by
    group and can hand each chunk to a per-chunk hook.
    """
    runner = runner_for(task.spec)
    tally = traced_chunk(runner, task.group, task.chunk, task.key)
    return task.group, task.chunk, tally
