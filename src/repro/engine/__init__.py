"""Batch decode engines on three fixed backends.

Entry points:

* :data:`BACKENDS` and :data:`ENGINES` — the backends, slowest first,
  and the engine class each one runs for each code family (``"MUSE"``,
  ``"RS"``), the one place a backend name maps to an implementation.
* :func:`get_engine` — resolve a backend name ("scalar", "numpy",
  "native" or "auto") into a cached MUSE :class:`DecodeEngine` for one
  code (:func:`repro.rs.engine.get_rs_engine` is its RS twin).
* :func:`available_backends` — the capability probe for callers that
  gate features or skip tests.

Every backend decodes the one counter-hashed trial stream of
:mod:`repro.orchestrate.corruption`, so the choice changes speed, never
a tally.  ``auto`` starts at the fastest available backend and steps
down a rung when that backend refuses a code (native past its kernels'
fixed scratch, say); an *explicit* request for a backend that is
unavailable or refuses the code raises :class:`BackendUnavailableError`
rather than silently running something else.  Setting
``REPRO_DISABLE_BACKENDS`` (a comma list, e.g. ``"native"``)
force-disables backends, which is how the degradation paths are
exercised even on hosts that have a C compiler.
"""

from __future__ import annotations

import importlib
import os
from typing import TYPE_CHECKING

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


#: Every backend, slowest first; ``auto`` tries the available ones from
#: the last.
BACKENDS = ("scalar", "numpy", "native")

#: ``family -> backend -> "module:Class"``, imported on first use.  An
#: engine is built as ``Class(code, option)`` (``ripple_check`` for
#: MUSE, ``device_bits`` for RS) and raises
#: :class:`BackendUnavailableError` for a code it cannot run.
ENGINES = {
    "MUSE": {
        "scalar": "repro.engine.scalar:ScalarDecodeEngine",
        "numpy": "repro.engine.numpy_backend:NumpyDecodeEngine",
        "native": "repro.engine.native:NativeDecodeEngine",
    },
    "RS": {
        "scalar": "repro.rs.engine:ScalarRsEngine",
        "numpy": "repro.rs.engine:NumpyRsEngine",
        "native": "repro.rs.engine_native:NativeRsEngine",
    },
}

#: Environment switch that force-disables backends ("numpy,native").
DISABLE_ENV = "REPRO_DISABLE_BACKENDS"


def _disabled() -> frozenset[str]:
    raw = os.environ.get(DISABLE_ENV, "")
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


def _is_available(name: str) -> bool:
    """Not disabled, and for native, the kernels compile and load."""
    if name in _disabled():
        return False
    return name != "native" or native_kernels_available()


def available_backends() -> tuple[str, ...]:
    """The backends that can actually run in this environment."""
    return tuple(name for name in BACKENDS if _is_available(name))


def _rungs() -> tuple[str, ...]:
    """:func:`available_backends`, refusing an empty ladder."""
    rungs = available_backends()
    if not rungs:
        raise BackendUnavailableError(
            f"no decode backend is available here: each of "
            f"{', '.join(BACKENDS)} is disabled by "
            f"{DISABLE_ENV}={os.environ.get(DISABLE_ENV, '')!r} or fails "
            f"its probe"
        )
    return rungs


def resolve_backend(backend: str = "auto") -> str:
    """Normalise a backend request.

    ``auto`` names the fastest available backend, the first rung
    :func:`get_engine` tries; an explicit name must be one of
    :data:`BACKENDS` (else ``ValueError``) *and* available (else
    :class:`BackendUnavailableError` — an explicit request never
    silently degrades).  With no backend available at all, ``auto``
    raises :class:`BackendUnavailableError` too.
    """
    if backend == "auto":
        return _rungs()[-1]
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if not _is_available(backend):
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
        module, _, attr = ENGINES[family][name].partition(":")
        # Table construction: the classic hidden startup cost, as a
        # visible span.
        with telemetry.span("engine_build", backend=name):
            engine = getattr(importlib.import_module(module), attr)(
                code, option
            )
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


__all__ = [
    "BACKENDS",
    "BackendUnavailableError",
    "BatchDecodeResult",
    "DecodeEngine",
    "ENGINES",
    "STATUS_CLEAN",
    "STATUS_CORRECTED",
    "STATUS_DETECTED_NO_MATCH",
    "STATUS_DETECTED_RIPPLE",
    "available_backends",
    "cached_engine",
    "get_engine",
    "resolve_backend",
    "status_of",
]
