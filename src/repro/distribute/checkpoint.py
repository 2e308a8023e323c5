"""Persistent tally checkpoints: a self-healing append-only journal.

The journal records one line per completed :class:`ChunkTask` —
``(group, chunk range, chunk tally, spec fingerprint)`` — under a
header naming the run's stream ``key``.  Per-*chunk* tallies (not just
a folded total per group) are what make resume exact under **any**
batch structure: an adaptive run submits rounds of chunk ranges, a
resumed coordinator replays the same deterministic rounds, and every
chunk the journal already holds is answered from disk while the rest
recompute — the fold is the same integer sums either way, so the
resumed tally (and every adaptive stopping decision derived from it)
is byte-identical to an uninterrupted run.  A chunk plan that
*doesn't* match the journal (different ``chunk_size``) simply misses
and recomputes — still correct, just unsaved work.

Durability model (version 2):

* every line carries a CRC32 of its own payload, and every append is
  fsync'd (:func:`repro.orchestrate.persist.durable_append`) — O(1)
  per record, unlike the version-1 whole-file rewrite;
* appends are not atomic, so a crash (or an injected ``journal``
  chaos fault) can tear the final line — and **only** the final line,
  because the fsync orders everything before it;
* on load, the journal keeps the longest valid prefix of records.  A
  damaged file is **salvaged**, not fatal: the original is quarantined
  as a ``.corrupt`` sidecar, the valid prefix is rewritten atomically,
  and a resumed run re-simulates only the chunks the tear lost
  (:attr:`CheckpointJournal.salvage` reports what happened).  A tear
  exactly at the final newline loses nothing: the record still
  decodes, and :func:`keep_prefix` restores the newline before the
  next append (the result cache shares the routine).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.orchestrate.corruption import STREAM_VERSION
from repro.orchestrate.persist import (
    atomic_write_text,
    decode_crc_line,
    durable_append,
    encode_crc_line,
)
from repro.orchestrate.plan import Chunk
from repro.reliability.metrics import MsedTally

JOURNAL_VERSION = 2
JOURNAL_NAME = "checkpoint.jsonl"

#: Quarantine suffix for a damaged journal (sits next to the salvaged
#: rewrite so the evidence survives for post-mortems).
CORRUPT_SUFFIX = ".corrupt"

_TALLY_FIELDS = (
    "trials",
    "detected_no_match",
    "detected_confinement",
    "miscorrected",
    "silent",
)


def _group_key(group: Any) -> str:
    """A stable string key for a task group (JSON round-trippable)."""
    return json.dumps(group, sort_keys=True)


def spec_fingerprint(spec: Any) -> str:
    """What must match for a journalled chunk to be reusable.

    The trial stream's version
    (:data:`~repro.orchestrate.corruption.STREAM_VERSION`) and the
    spec's structural repr, minus the decode backend: every backend
    tallies byte-identically, so a checkpoint taken on one backend
    resumes on any other — but a changed code, ``k_symbols``, decode
    policy or stream must refuse, not silently fold chunks of a
    different experiment.

    Memoised per spec: the coordinator fingerprints every chunk it
    looks up, journals and reports, and a run has a handful of specs.
    """
    try:
        return _memo_fingerprint(spec)
    except TypeError:  # an unhashable spec: fingerprint it fresh
        return _fingerprint(spec)


def _fingerprint(spec: Any) -> str:
    if dataclasses.is_dataclass(spec) and hasattr(spec, "backend"):
        spec = dataclasses.replace(spec, backend="any")
    return f"stream-v{STREAM_VERSION} {spec!r}"


_memo_fingerprint = functools.lru_cache(maxsize=512)(_fingerprint)


# The CRC'd-line codec now lives in :mod:`repro.orchestrate.persist`
# (it is shared with the result cache and the telemetry event log);
# the private aliases keep this module's historical import surface.
_encode_line = encode_crc_line
_decode_line = decode_crc_line


def quarantine_and_rewrite(path: Path, lines: list[bytes]) -> Path:
    """Salvage the damaged file at ``path``: move it aside as its
    ``.corrupt`` sidecar and atomically write ``lines`` (the header and
    valid prefix, newline-terminated) in its place, so the healed file
    is complete on disk before anything appends to it.  Returns the
    sidecar's path."""
    corrupt_path = path.with_name(path.name + CORRUPT_SUFFIX)
    os.replace(path, corrupt_path)
    atomic_write_text(path, b"".join(lines).decode())
    return corrupt_path


def keep_prefix(
    path: Path, raw: bytes, lines: list[bytes], kept: int
) -> Path | None:
    """Leave the CRC'd log at ``path`` (read as ``raw``, split into
    ``lines``) holding its first ``kept`` lines, newline-terminated,
    before anything appends to it — the one salvage step of the
    checkpoint journal and the result cache.

    Lines past the prefix (damage, and records behind it that would
    never load again) are quarantined with the whole file
    (:func:`quarantine_and_rewrite`), whose sidecar path is returned.
    A file that keeps every line but lost its final newline — torn
    exactly at it, so its last record still decodes — gets the newline
    back in place; otherwise the next append would glue a record onto
    that line and the following load would drop both.
    """
    if kept < len(lines):
        return quarantine_and_rewrite(
            path, [line + b"\n" for line in lines[:kept]]
        )
    if not raw.endswith(b"\n"):
        durable_append(path, b"\n")
    return None


@dataclass(frozen=True)
class SalvageReport:
    """What loading a damaged journal kept and dropped."""

    records_kept: int
    lines_dropped: int
    corrupt_path: Path


class CheckpointJournal:
    """All completed chunks of one run, persisted as CRC'd JSON lines.

    In memory: ``(group key, start, size) -> MsedTally``.  On disk: a
    header line plus one appended line per record.  Every
    :meth:`record` / :meth:`record_many` call persists its records
    before returning, in one fsync'd append (appends are O(1)), so a
    hard kill loses at most the torn tail of the append in flight.

    ``chaos`` (a :class:`repro.distribute.chaos.FaultPlan`) injects the
    ``journal`` fault class: a scheduled append writes a torn line and
    the journal goes silent afterwards, exactly as a crash mid-append
    would leave the file.
    """

    def __init__(
        self,
        path: str | Path,
        key: int,
        chaos: Any | None = None,
    ):
        self.path = Path(path)
        self.key = key
        self.chaos = chaos
        self.salvage: SalvageReport | None = None
        self._entries: dict[tuple[str, int, int], MsedTally] = {}
        self._fingerprints: dict[str, str] = {}
        self._pending: list[dict] = []
        self._header_written = False
        self._torn = False  # a chaos journal fault fired: play dead

    # -- construction ---------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str | Path,
        key: int,
        resume: bool = False,
        chaos: Any | None = None,
    ) -> "CheckpointJournal":
        """Start (or resume) the journal under ``directory``.

        A fresh run refuses to clobber an existing journal — passing
        ``resume=True`` is the explicit opt-in that loads it instead.
        A resumed journal must match this run's stream ``key`` (seed):
        folding chunks of a different stream would silently corrupt the
        tally.  A damaged journal salvages its valid prefix rather than
        refusing (see the module docstring).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        journal = cls(directory / JOURNAL_NAME, key, chaos=chaos)
        if journal.path.exists():
            if not resume:
                raise FileExistsError(
                    f"{journal.path} already holds a checkpoint journal; "
                    f"pass resume=True (--resume) to continue it, or remove "
                    f"the directory to start over"
                )
            journal._load()
        elif resume:
            # Resuming nothing is fine (first run of a resumable
            # campaign) — start empty.
            pass
        return journal

    def _load(self) -> None:
        raw = self.path.read_bytes()
        lines = [line for line in raw.split(b"\n")]
        # Drop the trailing empty element a well-formed final newline
        # produces; keep interior blanks so they count as damage.
        if lines and lines[-1] == b"":
            lines.pop()
        header = _decode_line(lines[0]) if lines else None
        if header is None or "version" not in header:
            self._refuse_legacy_or_quarantine(raw, lines)
            return
        if header.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"checkpoint journal {self.path} has version "
                f"{header.get('version')!r}, expected {JOURNAL_VERSION}"
            )
        if header.get("key") != self.key:
            raise ValueError(
                f"checkpoint journal {self.path} belongs to stream key "
                f"{header.get('key')} but this run uses key {self.key} "
                f"(different --seed?); refusing to mix streams"
            )
        kept = 0
        for line in lines[1:]:
            record = _decode_line(line)
            if record is None or not self._adopt(record):
                break
            kept += 1
        self._header_written = True
        corrupt_path = keep_prefix(self.path, raw, lines, 1 + kept)
        if corrupt_path is not None:
            self.salvage = SalvageReport(
                records_kept=kept,
                lines_dropped=len(lines) - 1 - kept,
                corrupt_path=corrupt_path,
            )

    def _adopt(self, record: dict) -> bool:
        """Fold one decoded record into memory; ``False`` if malformed
        or inconsistent (treated as damage by the loader)."""
        try:
            group_key = record["group"]
            start = record["start"]
            size = record["size"]
            spec = record["spec"]
            counts = record["counts"]
            tally = MsedTally(**{name: counts[name] for name in _TALLY_FIELDS})
        except (KeyError, TypeError):
            return False
        if not isinstance(group_key, str) or not isinstance(spec, str):
            return False
        known = self._fingerprints.get(group_key)
        if known is not None and known != spec:
            return False
        self._fingerprints[group_key] = spec
        self._entries[(group_key, start, size)] = tally
        return True

    def _refuse_legacy_or_quarantine(
        self, raw: bytes, lines: list[bytes]
    ) -> None:
        """First line isn't a valid v2 header: either a legacy v1
        whole-document journal (refuse with the version story) or
        damage so early nothing is salvageable (quarantine, start
        empty)."""
        try:
            legacy = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            legacy = None
        if isinstance(legacy, dict) and "version" in legacy:
            raise ValueError(
                f"checkpoint journal {self.path} has version "
                f"{legacy.get('version')!r}, expected {JOURNAL_VERSION}"
            )
        self.salvage = SalvageReport(
            records_kept=0,
            lines_dropped=len(lines),
            corrupt_path=quarantine_and_rewrite(
                self.path, [self._header_line()]
            ),
        )
        self._header_written = True

    def _header_line(self) -> bytes:
        return _encode_line({"version": JOURNAL_VERSION, "key": self.key})

    def _record_dict(
        self, group_key: str, start: int, size: int, tally: MsedTally
    ) -> dict:
        return {
            "group": group_key,
            "start": start,
            "size": size,
            "spec": self._fingerprints.get(group_key, ""),
            "counts": {name: getattr(tally, name) for name in _TALLY_FIELDS},
        }

    # -- queries --------------------------------------------------------

    def lookup(
        self, group: Any, chunk: Chunk, fingerprint: str
    ) -> MsedTally | None:
        """The journalled tally for one chunk, or ``None`` (a *copy*:
        callers fold it into mutable accumulators)."""
        group_key = _group_key(group)
        self._check_fingerprint(group_key, fingerprint)
        held = self._entries.get((group_key, chunk.start, chunk.size))
        if held is None:
            return None
        return MsedTally().merge(held)

    def _check_fingerprint(self, group_key: str, fingerprint: str) -> None:
        known = self._fingerprints.get(group_key)
        if known is not None and known != fingerprint:
            raise ValueError(
                f"checkpoint journal {self.path} recorded group {group_key} "
                f"for a different simulator configuration\n"
                f"  journal: {known}\n"
                f"  this run: {fingerprint}\n"
                f"resume with the original settings or start a fresh "
                f"checkpoint directory"
            )

    def __len__(self) -> int:
        return len(self._entries)

    def folded(self) -> dict[str, dict]:
        """Per-group folded totals (+ chunk counts) of everything held —
        what the partial-results report publishes."""
        out: dict[str, dict] = {}
        for (group_key, _start, _size), tally in sorted(self._entries.items()):
            entry = out.setdefault(
                group_key, {"chunks": 0, **dict.fromkeys(_TALLY_FIELDS, 0)}
            )
            entry["chunks"] += 1
            for name in _TALLY_FIELDS:
                entry[name] += getattr(tally, name)
        return out

    # -- updates --------------------------------------------------------

    def record(
        self, group: Any, chunk: Chunk, tally: MsedTally, fingerprint: str
    ) -> None:
        """Journal one completed chunk and persist it now."""
        self.record_many([(group, chunk, tally, fingerprint)])

    def record_many(
        self, records: list[tuple[Any, Chunk, MsedTally, str]]
    ) -> None:
        """Journal ``(group, chunk, tally, fingerprint)`` records and
        persist them all in one fsync'd append."""
        for group, chunk, tally, fingerprint in records:
            group_key = _group_key(group)
            self._check_fingerprint(group_key, fingerprint)
            self._fingerprints[group_key] = fingerprint
            self._entries[(group_key, chunk.start, chunk.size)] = (
                MsedTally().merge(tally)
            )
            self._pending.append(
                self._record_dict(group_key, chunk.start, chunk.size, tally)
            )
        self.flush()

    def flush(self) -> None:
        """Persist any records still pending (one fsync'd append)."""
        if self._pending:
            self.save()

    def save(self) -> None:
        """Append every pending record (fsync'd)."""
        if self._torn:
            # A chaos journal fault already "crashed" the journal: the
            # run continues, but disk state stays frozen at the tear.
            self._pending.clear()
            return
        payload = b""
        if not self._header_written and not self.path.exists():
            payload += self._header_line()
        for record in self._pending:
            line = _encode_line(record)
            if self.chaos is not None and self.chaos.should("journal"):
                # Tear this record mid-line — what a crash between
                # write and fsync leaves — and go silent.
                payload += line[: max(1, len(line) * 2 // 3)].rstrip(b"\n")
                self._torn = True
                break
            payload += line
        durable_append(self.path, payload)
        self._header_written = True
        self._pending.clear()
