"""The fault scenarios of the Monte-Carlo simulators.

A *scenario* is a named corruption recipe: given the clean codeword of
trial ``t`` it decides which symbols/bits to disturb and how.  Every
scenario is a pure function of ``(spec, chunk range, splitmix64 key)``
— the same determinism contract as the MSED stream
(:mod:`repro.orchestrate.corruption`) — so its tallies are
byte-identical across ``(chunk_size, jobs, workers)`` and backends at
a fixed seed.

Every fault scenario ships two synchronised implementations of the
**same** stream (the historical MSED stream has neither; its
generators live in :mod:`repro.orchestrate.corruption`):

* ``corrupt_batch(skey, view, k_symbols)`` — vectorised over a whole
  chunk (:class:`BatchSymbolView`, numpy);
* ``corrupt_word(skey, view, k_symbols)`` — the pure-Python scalar
  reference over one word (:class:`WordSymbolView`).

The views belong to the code-family layer of
:mod:`repro.orchestrate.corruption` (re-exported here): each
:class:`~repro.orchestrate.corruption.CodeFamily` builds them over its
own word storage, and the family-generic ``scenario_chunk`` /
``scenario_word`` generators hand them to the scenario, so one recipe
serves MUSE and RS alike.

Both draw from ``skey`` — :func:`scenario_stream_key` of the run key
and the scenario *name* — with integer-only arithmetic, so the scalar
and batch paths agree bit for bit and two scenarios sharing a seed
never share a corruption stream.  The clean data words stay on the
base key's ``DATA`` stream, so every scenario corrupts the *same*
encoded words.

The native backend's fused kernels replay the msed and ``mbu`` streams
in C (:func:`repro.orchestrate.corruption.fused_stream` lists what they
can replay); the simulators generate then decode every other scenario.

:data:`~repro.scenarios.library.SCENARIOS`, the table at the end of
:mod:`repro.scenarios.library`, is the single source of scenario names:
CLI ``--scenario`` choices and spec fields (and therefore
``spec_fingerprint`` result-cache cells) derive from it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.orchestrate.corruption import BatchSymbolView, WordSymbolView
from repro.orchestrate.rng import derive_key

__all__ = [
    "BatchSymbolView",
    "SCENARIOS",
    "Scenario",
    "STREAM_SCENARIO",
    "WordSymbolView",
    "resolve_scenario",
    "scenario_names",
    "scenario_stream_key",
]

#: Stream tag separating every scenario's draws from the base
#: DATA/CHOICE/VALUE streams of :mod:`repro.orchestrate.corruption`.
STREAM_SCENARIO = 3


def scenario_stream_key(key: int, name: str) -> int:
    """The per-scenario draw key under run key ``key``.

    Hashing the *name* in means two scenarios at the same seed can
    never consume each other's draws, while the clean data words
    (drawn from ``key`` itself) stay shared across scenarios.
    """
    return derive_key(key, STREAM_SCENARIO, zlib.crc32(name.encode("utf-8")))


@dataclass(frozen=True)
class Scenario:
    """One named corruption recipe.

    ``corrupt_batch`` / ``corrupt_word`` both receive the scenario
    stream key, a symbol view, and the simulator's ``k_symbols`` (which
    a scenario may ignore — e.g. row failure corrupts every symbol).
    ``None`` marks the ``"msed"`` scenario, whose generators predate
    the other scenarios and live on the base key's streams
    (:func:`repro.orchestrate.corruption.corruption_chunk`).
    """

    name: str
    summary: str
    corrupt_batch: Optional[Callable] = field(default=None, repr=False)
    corrupt_word: Optional[Callable] = field(default=None, repr=False)


def resolve_scenario(name: str) -> Scenario:
    """The :class:`Scenario` named ``name``."""
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(
            f"unknown scenario {name!r}; registered: {', '.join(SCENARIOS)}"
        )
    return scenario


def scenario_names() -> tuple[str, ...]:
    """Every scenario name, ``"msed"`` first (it leads CLI choices)."""
    return tuple(SCENARIOS)


# The table needs Scenario and the views above, so it loads last.
from repro.scenarios.library import SCENARIOS  # noqa: E402
