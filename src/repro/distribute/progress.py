"""The ``--progress`` printer.

One printer, :class:`ChunkProgress`, serves every path — in process,
``--jobs N`` pools and ``--distribute`` fleets — because every chunk
grid runs through :func:`repro.orchestrate.pool.run_grid`, which calls
it as a plain :data:`~repro.orchestrate.pool.ProgressCallback`.  It
writes to stderr so it never contaminates the report on stdout (the
regression the CLI tests pin: default output is byte-identical with
the flag off, and stdout is unchanged even with it on):

* ``[progress] chunks done/total elapsed``, once per computed chunk,
  throttled to ``min_interval`` seconds between lines (0 in tests for
  determinism) but always printing a grid's final line, so even a
  sub-second run shows exactly one;
* ``[campaign]`` allocation lines, one block per adaptive campaign
  round (:meth:`ChunkProgress.allocation`, which the campaign runner
  finds on its ``progress`` callback).

Lines go through :func:`repro.telemetry.log.log_line`, so the whole
progress surface obeys the ``REPRO_LOG`` gate (``silent`` mutes it,
``normal`` — the default — keeps historical behaviour).

Timing here uses ``time.perf_counter()`` exclusively — never
``time.time()`` — so NTP steps or a suspended laptop can't produce
negative elapsed values or spurious throttle stalls.  The same
invariant holds for lease deadlines (``time.monotonic()`` in
:mod:`repro.distribute.queue`/``coordinator``); it is pinned by a
source-level test in ``tests/distribute/test_progress.py``.
"""

from __future__ import annotations

import sys
import time
from typing import Any, TextIO

from repro.telemetry.log import log_line


class ChunkProgress:
    """``progress(done, total)`` printer plus campaign allocations."""

    def __init__(
        self, stream: TextIO | None = None, min_interval: float = 1.0
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._started = time.perf_counter()
        self._last = -float("inf")

    def __call__(self, done: int, total: int) -> None:
        now = time.perf_counter()
        if done < total and now - self._last < self.min_interval:
            return
        self._last = now
        elapsed = now - self._started
        log_line(
            f"[progress] chunks {done}/{total} elapsed {elapsed:.1f}s",
            stream=self.stream,
        )

    def allocation(
        self,
        round_no: int,
        entries: "list[tuple[Any, int, int, float]]",
    ) -> None:
        """One campaign allocation round: where the next trials go.

        ``entries`` is ``(group, allocated, total_trials, ci_half_width)``
        per point that received trials.  Allocation rounds
        are rare (a handful per campaign) and are the scheduler's whole
        observable story, so they bypass the throttle.
        """
        elapsed = time.perf_counter() - self._started
        log_line(
            f"[campaign] round {round_no}: {len(entries)} point(s) "
            f"allocated, elapsed {elapsed:.1f}s",
            stream=self.stream,
        )
        for group, allocated, total, half in entries:
            log_line(
                f"[campaign]   point {group}: +{allocated} trials "
                f"(-> {total}) ci-half {half:.3g}",
                stream=self.stream,
            )
