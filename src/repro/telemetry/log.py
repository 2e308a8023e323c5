"""Leveled stderr logging gated by the ``REPRO_LOG`` environment knob.

The runtime's human-facing output (progress lines, fleet fault
notices, campaign allocation tables) historically went straight to
``print(..., file=sys.stderr)`` with no way to silence it — hostile
to cron jobs and log scrapers alike.  Every such site now routes
through :func:`log_line`, which honours::

    REPRO_LOG=silent   nothing at all
    REPRO_LOG=normal   progress + lifecycle lines (the default)
    REPRO_LOG=debug    everything, including debug-level chatter

The gate is re-read from the environment on each call (it's one dict
lookup) so tests — and operators flipping verbosity mid-run via a
wrapper — never fight a cached module global.
"""

from __future__ import annotations

import os
import sys
from typing import Any, TextIO

LEVELS = {"silent": 0, "normal": 1, "debug": 2}

#: Environment variable naming the active level.
ENV_VAR = "REPRO_LOG"
DEFAULT_LEVEL = "normal"


def log_level() -> int:
    """The active numeric level (unknown values fall back to normal)."""
    name = os.environ.get(ENV_VAR, DEFAULT_LEVEL).strip().lower()
    return LEVELS.get(name, LEVELS[DEFAULT_LEVEL])


def log_enabled(level: str = "normal") -> bool:
    return LEVELS.get(level, 1) <= log_level()


def log_line(
    message: str, *, level: str = "normal", stream: TextIO | None = None, **_: Any
) -> None:
    """Print ``message`` to ``stream`` (stderr) if the gate allows it.

    ``stream`` stays injectable so progress reporters can keep writing
    to a caller-supplied file object under test.
    """
    if not log_enabled(level):
        return
    print(message, file=stream if stream is not None else sys.stderr, flush=True)
