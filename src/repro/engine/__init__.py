"""Pluggable batch decode engines behind an open backend registry.

Entry points:

* :func:`register_backend` — add a backend (name, availability probe,
  engine factories) to the registry; the built-in ``scalar``, ``numpy``
  and ``native`` backends register themselves below, and a future
  ``cupy`` backend slots in the same way without touching any call
  site.
* :func:`get_engine` — resolve a backend name ("scalar", "numpy",
  "native" or "auto") into a cached :class:`DecodeEngine` for one code.
* :func:`registered_backends` / :func:`available_backends` —
  capability probes for callers that build CLI choices, gate features
  or skip tests.

Every backend decodes the one counter-hashed trial stream of
:mod:`repro.orchestrate.corruption`, so the choice changes speed, never
a tally.  ``auto`` starts at the fastest available backend and steps
down a rung when that backend's factory refuses a code (native past its
kernels' fixed scratch, say); an *explicit* request for a backend that
is unavailable or refuses the code raises
:class:`BackendUnavailableError` rather than silently running something
else.  Setting ``REPRO_DISABLE_BACKENDS`` (a comma list, e.g.
``"native"``) force-disables backends, which is how the degradation
paths are exercised even on hosts that have a C compiler.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro import telemetry
from repro.engine.base import (
    BackendUnavailableError,
    BatchDecodeResult,
    DecodeEngine,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED_NO_MATCH,
    STATUS_DETECTED_RIPPLE,
    STATUS_NAMES,
    status_of,
)
from repro.engine.cc import native_kernels_available

if TYPE_CHECKING:
    from repro.core.codec import MuseCode


@dataclass(frozen=True)
class RegisteredBackend:
    """One registry entry: how to detect and build a backend.

    ``factory(code, ripple_check)`` builds the MUSE decode engine;
    ``rs_factory(code, device_bits)`` builds the Reed-Solomon engine
    (``None`` for MUSE-only backends).  A factory raises
    :class:`BackendUnavailableError` for a code it cannot run.
    ``probe`` must be cheap — it runs on every :func:`available_backends`
    call — and must not raise.  ``priority`` orders ``auto``
    resolution: the highest-priority available backend is tried first.
    """

    name: str
    probe: Callable[[], bool]
    factory: Callable[..., DecodeEngine]
    rs_factory: Callable[..., object] | None
    priority: int


_REGISTRY: dict[str, RegisteredBackend] = {}

#: Environment switch that force-disables backends ("numpy,native").
DISABLE_ENV = "REPRO_DISABLE_BACKENDS"


def register_backend(
    name: str,
    probe: Callable[[], bool],
    factory: Callable[..., DecodeEngine],
    *,
    rs_factory: Callable[..., object] | None = None,
    priority: int = 0,
) -> None:
    """Register (or replace) a decode backend.

    ``name`` becomes selectable everywhere a backend can be chosen —
    ``get_engine``/``get_rs_engine``, the simulators, CLI ``--backend``
    choices, the distributed worker override — with no further wiring.
    """
    if not name or name == "auto":
        raise ValueError(f"invalid backend name {name!r}")
    _REGISTRY[name] = RegisteredBackend(
        name=name,
        probe=probe,
        factory=factory,
        rs_factory=rs_factory,
        priority=priority,
    )


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


def resolve_backend(backend: str = "auto") -> str:
    """Normalise a backend request.

    ``auto`` names the highest-priority available backend (native >
    numpy > scalar for the built-ins), the first rung
    :func:`get_engine` tries; an explicit name must be registered (else
    ``ValueError``) *and* available (else
    :class:`BackendUnavailableError` — an explicit request never
    silently degrades).
    """
    if backend == "auto":
        return available_backends()[-1]
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


def _built(cache: dict, name: str, code, option, rs: bool):
    """The engine of backend ``name`` for ``code``, built at most once."""
    engine = cache.get((name, option))
    if engine is None:
        entry = _REGISTRY[name]
        factory = entry.rs_factory if rs else entry.factory
        if factory is None:
            raise BackendUnavailableError(
                f"backend {name!r} has no Reed-Solomon engine"
            )
        # Table construction: the classic hidden startup cost, as a
        # visible span.
        with telemetry.span("engine_build", backend=name):
            engine = factory(code, option)
        cache[(name, option)] = engine
    return engine


def cached_engine(code, backend: str, option, *, rs: bool = False):
    """The engine binding ``code`` to ``backend``, cached on the code.

    The one resolver behind :func:`get_engine` (``option`` is
    ``ripple_check``) and :func:`repro.rs.engine.get_rs_engine`
    (``option`` is ``device_bits``, ``rs=True``).  Engines precompute
    dense lookup tables from the code, so they live in a dict on the
    code instance keyed per ``(backend, option)`` — a worker process
    pays table construction once per code, not once per chunk.

    ``auto`` tries the available rungs from the top down and keeps the
    first whose factory accepts the code.  Its choice is cached too
    (keyed by the available rungs, so ``REPRO_DISABLE_BACKENDS`` still
    takes effect), so a refusing rung is tried once per code rather
    than once per chunk.

    Every call counts one ``engine.resolve`` labelled with the backend
    that answered; every build is an ``engine_build`` span.
    """
    cache = code.__dict__.setdefault(
        "_rs_engine_cache" if rs else "_engine_cache", {}
    )
    if backend != "auto":
        engine = _built(cache, resolve_backend(backend), code, option, rs)
    else:
        rungs = available_backends()
        key = ("auto", rungs, option)
        engine = cache.get(key)
        if engine is None:
            for name in reversed(rungs):
                try:
                    engine = _built(cache, name, code, option, rs)
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
    return cached_engine(code, backend, ripple_check)


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
#
# Factories import lazily so that registering a backend costs nothing
# until it is actually selected.

def _scalar_factory(code, ripple_check=True):
    from repro.engine.scalar import ScalarDecodeEngine

    return ScalarDecodeEngine(code, ripple_check)


def _scalar_rs_factory(code, device_bits=4):
    from repro.rs.engine import ScalarRsEngine

    return ScalarRsEngine(code, device_bits)


def _numpy_factory(code, ripple_check=True):
    from repro.engine.numpy_backend import NumpyDecodeEngine

    return NumpyDecodeEngine(code, ripple_check)


def _numpy_rs_factory(code, device_bits=4):
    from repro.rs.engine import NumpyRsEngine

    return NumpyRsEngine(code, device_bits)


def _native_factory(code, ripple_check=True):
    from repro.engine.native import NativeDecodeEngine

    return NativeDecodeEngine(code, ripple_check)


def _native_rs_factory(code, device_bits=4):
    from repro.rs.engine_native import NativeRsEngine

    return NativeRsEngine(code, device_bits)


register_backend(
    "scalar",
    probe=lambda: True,
    factory=_scalar_factory,
    rs_factory=_scalar_rs_factory,
    priority=0,
)
register_backend(
    "numpy",
    probe=lambda: True,
    factory=_numpy_factory,
    rs_factory=_numpy_rs_factory,
    priority=10,
)
register_backend(
    "native",
    probe=native_kernels_available,
    factory=_native_factory,
    rs_factory=_native_rs_factory,
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
    "STATUS_NAMES",
    "available_backends",
    "cached_engine",
    "get_engine",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "status_of",
]
