"""Pluggable batch decode engines behind an open backend registry.

Entry points:

* :func:`register_backend` — add a backend (name, availability probe,
  one engine factory per code family) to the registry; the built-in
  ``scalar``, ``numpy`` and ``native`` backends register themselves
  below.
* :func:`get_engine` — resolve a backend name ("scalar", "numpy",
  "native" or "auto") into a cached MUSE :class:`DecodeEngine` for one
  code (:func:`repro.rs.engine.get_rs_engine` is its RS twin).
* :func:`registered_backends` / :func:`available_backends` —
  capability probes for callers that build CLI choices, gate features
  or skip tests.

Every backend decodes the one counter-hashed trial stream of
:mod:`repro.orchestrate.corruption`, so the choice changes speed, never
a tally.  ``auto`` starts at the fastest available backend and steps
down a rung when that backend refuses a code (native past its kernels'
fixed scratch, say, or a rung with no engine for the code's family);
an *explicit* request for a backend that is unavailable or refuses the
code raises :class:`BackendUnavailableError` rather than silently
running something else.  Setting ``REPRO_DISABLE_BACKENDS`` (a comma
list, e.g. ``"native"``) force-disables backends, which is how the
degradation paths are exercised even on hosts that have a C compiler.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

from repro import telemetry
from repro.engine.base import (
    BackendUnavailableError,
    BatchDecodeResult,
    DecodeEngine,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED_NO_MATCH,
    STATUS_DETECTED_RIPPLE,
    status_of,
)
from repro.engine.cc import native_kernels_available

if TYPE_CHECKING:
    from repro.core.codec import MuseCode


@dataclass(frozen=True)
class RegisteredBackend:
    """One registry entry: how to detect a backend and build its engines.

    ``engines`` maps a code family (``"MUSE"``, ``"RS"``) to a factory
    ``(code, option) -> engine``; the option is ``ripple_check`` for
    MUSE and ``device_bits`` for RS.  A factory raises
    :class:`BackendUnavailableError` for a code it cannot run, and a
    family missing from ``engines`` refuses every code of that family.
    ``probe`` must be cheap — it runs on every
    :func:`available_backends` call — and must not raise.  ``priority``
    orders ``auto`` resolution: the highest-priority available backend
    is tried first.
    """

    name: str
    probe: Callable[[], bool]
    engines: Mapping[str, Callable[..., DecodeEngine]]
    priority: int


_REGISTRY: dict[str, RegisteredBackend] = {}

#: Environment switch that force-disables backends ("numpy,native").
DISABLE_ENV = "REPRO_DISABLE_BACKENDS"


def register_backend(
    name: str,
    probe: Callable[[], bool],
    engines: Mapping[str, Callable[..., DecodeEngine]],
    *,
    priority: int = 0,
) -> None:
    """Register (or replace) a decode backend.

    ``name`` becomes selectable everywhere a backend can be chosen —
    ``get_engine``/``get_rs_engine``, the simulators, CLI ``--backend``
    choices, the distributed worker override — with no further wiring.
    """
    if not name or name == "auto":
        raise ValueError(f"invalid backend name {name!r}")
    _REGISTRY[name] = RegisteredBackend(name, probe, engines, priority)


def _disabled() -> frozenset[str]:
    raw = os.environ.get(DISABLE_ENV, "")
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def _entries() -> list[RegisteredBackend]:
    """Registry entries, lowest priority first (auto picks the last)."""
    order = list(_REGISTRY)
    return sorted(
        _REGISTRY.values(), key=lambda e: (e.priority, order.index(e.name))
    )


def registered_backends() -> tuple[str, ...]:
    """Every registered backend name, whether or not it can run here."""
    return tuple(entry.name for entry in _entries())


def _is_available(entry: RegisteredBackend) -> bool:
    if entry.name in _disabled():
        return False
    try:
        return bool(entry.probe())
    except Exception:  # a broken probe means "not available", not a crash
        return False


def available_backends() -> tuple[str, ...]:
    """The backends that can actually run in this environment."""
    return tuple(
        entry.name for entry in _entries() if _is_available(entry)
    )


def _rungs() -> tuple[str, ...]:
    """:func:`available_backends`, refusing an empty ladder."""
    rungs = available_backends()
    if not rungs:
        raise BackendUnavailableError(
            f"no decode backend is available here: each of "
            f"{', '.join(registered_backends())} is disabled by "
            f"{DISABLE_ENV}={os.environ.get(DISABLE_ENV, '')!r} or fails "
            f"its probe"
        )
    return rungs


def resolve_backend(backend: str = "auto") -> str:
    """Normalise a backend request.

    ``auto`` names the highest-priority available backend (native >
    numpy > scalar for the built-ins), the first rung
    :func:`get_engine` tries; an explicit name must be registered (else
    ``ValueError``) *and* available (else
    :class:`BackendUnavailableError` — an explicit request never
    silently degrades).  With no backend available at all, ``auto``
    raises :class:`BackendUnavailableError` too.
    """
    if backend == "auto":
        return _rungs()[-1]
    entry = _REGISTRY.get(backend)
    if entry is None:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {registered_backends()}"
        )
    if not _is_available(entry):
        raise BackendUnavailableError(
            f"{backend} backend requested but its dependencies are not "
            f"available here (available: {available_backends()})"
        )
    return backend


def _built(cache: dict, name: str, family: str, code, option):
    """The ``family`` engine of backend ``name`` for ``code``, built at
    most once."""
    engine = cache.get((family, name, option))
    if engine is None:
        factory = _REGISTRY[name].engines.get(family)
        if factory is None:
            raise BackendUnavailableError(
                f"backend {name!r} has no {family} engine"
            )
        # Table construction: the classic hidden startup cost, as a
        # visible span.
        with telemetry.span("engine_build", backend=name):
            engine = factory(code, option)
        cache[(family, name, option)] = engine
    return engine


def cached_engine(code, family: str, backend: str, option):
    """The ``family`` engine binding ``code`` to ``backend``, cached on
    the code.

    The one resolver behind :func:`get_engine` (family ``"MUSE"``,
    ``option`` is ``ripple_check``) and
    :func:`repro.rs.engine.get_rs_engine` (family ``"RS"``, ``option``
    is ``device_bits``).  Engines precompute dense lookup tables from
    the code, so they live in a dict on the code instance keyed per
    ``(family, backend, option)`` — a worker process pays table
    construction once per code, not once per chunk.

    ``auto`` tries the available rungs from the top down and keeps the
    first that accepts the code.  Its choice is cached too (keyed by
    the available rungs, so ``REPRO_DISABLE_BACKENDS`` still takes
    effect), so a refusing rung is tried once per code rather than
    once per chunk.

    Every call counts one ``engine.resolve`` labelled with the backend
    that answered; every build is an ``engine_build`` span.
    """
    cache = code.__dict__.setdefault("_engine_cache", {})
    if backend != "auto":
        engine = _built(cache, resolve_backend(backend), family, code, option)
    else:
        rungs = _rungs()
        key = ("auto", family, rungs, option)
        engine = cache.get(key)
        if engine is None:
            for name in reversed(rungs):
                try:
                    engine = _built(cache, name, family, code, option)
                    break
                except BackendUnavailableError:
                    if name == rungs[0]:
                        raise
            cache[key] = engine
    telemetry.counter("engine.resolve", backend=engine.name)
    return engine


def get_engine(
    code: "MuseCode", backend: str = "auto", ripple_check: bool = True
) -> DecodeEngine:
    """Build (or fetch the cached) MUSE engine binding ``code`` to a
    backend — see :func:`cached_engine` for caching and ``auto``."""
    return cached_engine(code, "MUSE", backend, ripple_check)


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------

def _lazy(target: str) -> Callable[..., DecodeEngine]:
    """A factory for the ``"module:Class"`` engine ``target`` that
    imports it on first use, so registering a backend costs nothing
    until it is actually selected."""
    module, _, attr = target.partition(":")

    def build(code, option):
        return getattr(importlib.import_module(module), attr)(code, option)

    return build


register_backend(
    "scalar",
    lambda: True,
    {
        "MUSE": _lazy("repro.engine.scalar:ScalarDecodeEngine"),
        "RS": _lazy("repro.rs.engine:ScalarRsEngine"),
    },
    priority=0,
)
register_backend(
    "numpy",
    lambda: True,
    {
        "MUSE": _lazy("repro.engine.numpy_backend:NumpyDecodeEngine"),
        "RS": _lazy("repro.rs.engine:NumpyRsEngine"),
    },
    priority=10,
)
register_backend(
    "native",
    native_kernels_available,
    {
        "MUSE": _lazy("repro.engine.native:NativeDecodeEngine"),
        "RS": _lazy("repro.rs.engine_native:NativeRsEngine"),
    },
    priority=20,
)


__all__ = [
    "BackendUnavailableError",
    "BatchDecodeResult",
    "DecodeEngine",
    "RegisteredBackend",
    "STATUS_CLEAN",
    "STATUS_CORRECTED",
    "STATUS_DETECTED_NO_MATCH",
    "STATUS_DETECTED_RIPPLE",
    "available_backends",
    "cached_engine",
    "get_engine",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "status_of",
]
