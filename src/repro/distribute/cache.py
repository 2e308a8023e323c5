"""Fingerprint-keyed result cache: a completed cell never re-simulates.

The checkpoint journal (:mod:`repro.distribute.checkpoint`) makes one
*run* resumable; this cache makes the *results themselves* durable
across runs.  Every folded chunk tally is filed under its **cell** —
the ``(stream key, spec fingerprint)`` pair — where the fingerprint is
:func:`~repro.distribute.checkpoint.spec_fingerprint`: the spec's
structural identity minus the decode backend (scalar, numpy and native
tally byte-identically, so a cell computed on one backend is served to
all of them).  Because every chunk's tally is a pure
function of ``(spec, chunk range, key)``, a cache hit *is* the
recomputation: re-running any completed ``(code, scenario, seed)``
cell folds straight off disk with zero new trials.

On-disk layout: one CRC'd JSON-lines file per cell, named by a
``sha256(key, fingerprint)`` digest, under the ``--cache-dir``
directory.  The line format is shared with the checkpoint journal
(:func:`_encode_line` / :func:`_decode_line`), and so is the salvage:
a cell whose records are damaged (a kill mid-flush tears the last one)
is rewritten on load to its header and valid prefix, the original kept
as a ``.corrupt`` sidecar, before anything appends to it — so the
chunks the damage lost recompute once — and a record torn exactly at
its newline, which still decodes, is kept and gets its newline back
(:func:`~repro.distribute.checkpoint.keep_prefix`).  A cell torn
inside its header line (a kill during its first flush leaves a prefix
of the header it would write) is quarantined the same way and starts
empty.  Any other file under a cell's name — undecodable, or the
header of another cell — is foreign: left as it is, never appended
to, every lookup a miss.  Appends batch in memory and land via one
fsync'd :func:`~repro.orchestrate.persist.durable_append` per
:meth:`flush`.
The one caller is :func:`repro.orchestrate.pool.run_grid`: it looks
every cell up before running a grid, records each chunk it runs, and
flushes when the grid ends — in process, over a pool or on a
distributed session alike.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.distribute.checkpoint import (
    _TALLY_FIELDS,
    _decode_line,
    _encode_line,
    keep_prefix,
    quarantine_and_rewrite,
    spec_fingerprint,
)
from repro.orchestrate.persist import durable_append
from repro.orchestrate.plan import Chunk
from repro.reliability.metrics import MsedTally

CACHE_VERSION = 1

__all__ = ["ResultCache", "CACHE_VERSION"]


class ResultCache:
    """Chunk tallies shared across runs, keyed by ``(key, fingerprint)``.

    The cache owns fingerprinting (callers hand it raw specs), so the
    grid fold and the scheduler stay free of any ``repro.distribute``
    import and two runs that differ only in backend share cells.
    Counters make the zero-recompute guarantee checkable: a re-run of
    a completed cell must finish with ``trials_recorded == 0``.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.trials_served = 0
        self.trials_recorded = 0
        # digest -> {(start, size): MsedTally}; None = not yet loaded
        self._cells: dict[str, dict[tuple[int, int], MsedTally]] = {}
        self._pending: dict[str, list[bytes]] = {}
        self._headered: set[str] = set()
        self._foreign: set[str] = set()

    def _digest(self, key: int, fingerprint: str) -> str:
        material = f"{key}\n{fingerprint}".encode()
        return hashlib.sha256(material).hexdigest()[:24]

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.jsonl"

    @staticmethod
    def _header(key: int, fingerprint: str) -> bytes:
        return _encode_line(
            {"version": CACHE_VERSION, "key": key, "spec": fingerprint}
        )

    def _load(
        self, digest: str, key: int, fingerprint: str
    ) -> dict[tuple[int, int], MsedTally]:
        cell = self._cells.get(digest)
        if cell is not None:
            return cell
        cell = {}
        self._cells[digest] = cell
        path = self._path(digest)
        if not path.exists():
            return cell
        raw = path.read_bytes()
        if not raw:
            return cell
        own_header = self._header(key, fingerprint)
        if raw != own_header and own_header.startswith(raw):
            # Torn inside this cell's own header: nothing to keep.
            quarantine_and_rewrite(path, [])
            return cell
        lines = raw.splitlines()
        header = _decode_line(lines[0])
        if (
            header is None
            or header.get("version") != CACHE_VERSION
            or header.get("key") != key
            or header.get("spec") != fingerprint
        ):
            # A foreign or undecodable file under our digest: leave it
            # alone and treat the cell as empty (every lookup misses,
            # nothing is appended on top of it).
            self._foreign.add(digest)
            return cell
        self._headered.add(digest)
        kept = 1
        for line in lines[1:]:
            record = _decode_line(line)
            if record is None:
                break  # torn tail: keep the valid prefix, drop the rest
            counts = record["counts"]
            tally = MsedTally(**{name: counts[name] for name in _TALLY_FIELDS})
            cell[(record["start"], record["size"])] = tally
            kept += 1
        keep_prefix(path, raw, lines, kept)
        return cell

    def lookup(self, key: int, spec: Any, chunk: Chunk) -> MsedTally | None:
        """The stored tally for this exact chunk of this cell, or None."""
        fingerprint = spec_fingerprint(spec)
        digest = self._digest(key, fingerprint)
        cell = self._load(digest, key, fingerprint)
        held = cell.get((chunk.start, chunk.size))
        if held is None:
            self.misses += 1
            telemetry.counter("cache.misses")
            telemetry.event("cache.lookup", hit=False)
            return None
        self.hits += 1
        self.trials_served += held.trials
        telemetry.counter("cache.hits")
        telemetry.counter("cache.trials_served", held.trials)
        telemetry.event("cache.lookup", hit=True, trials=held.trials)
        copy = MsedTally()
        copy.merge(held)
        return copy

    def record(self, key: int, spec: Any, chunk: Chunk, tally: MsedTally) -> None:
        """File one computed chunk tally under its cell (flush later)."""
        fingerprint = spec_fingerprint(spec)
        digest = self._digest(key, fingerprint)
        cell = self._load(digest, key, fingerprint)
        if (chunk.start, chunk.size) in cell:
            return
        held = MsedTally().merge(tally)
        cell[(chunk.start, chunk.size)] = held
        if digest in self._foreign:
            # In-memory only: same-run lookups still hit, but the
            # foreign bytes on disk are never appended onto.
            return
        record = {
            "start": chunk.start,
            "size": chunk.size,
            "counts": {name: getattr(held, name) for name in _TALLY_FIELDS},
        }
        queue = self._pending.setdefault(digest, [])
        if digest not in self._headered and not queue:
            queue.append(self._header(key, fingerprint))
        queue.append(_encode_line(record))
        self.trials_recorded += tally.trials

    def flush(self) -> None:
        """Durably append every pending record (one fsync per cell)."""
        for digest, lines in self._pending.items():
            durable_append(self._path(digest), b"".join(lines))
            self._headered.add(digest)
        self._pending.clear()
