"""Checkpoint journal: durable appends, salvage, resume gating,
fingerprints."""

import json

import pytest

from repro.distribute.checkpoint import (
    CORRUPT_SUFFIX,
    JOURNAL_NAME,
    JOURNAL_VERSION,
    CheckpointJournal,
    _decode_line,
    spec_fingerprint,
)
from repro.orchestrate.plan import Chunk
from repro.orchestrate.worker import CodeRef, MuseSimSpec
from repro.reliability.metrics import MsedTally

KEY = 0xDEAD_BEEF
FP = "spec"


def tally(**counts) -> MsedTally:
    t = MsedTally()
    t.record_counts(**counts)
    return t


class TestRoundTrip:
    def test_record_then_reopen_replays_entries(self, tmp_path):
        journal = CheckpointJournal.open(tmp_path, KEY)
        journal.record(0, Chunk(0, 64), tally(miscorrected=3, silent=1), FP)
        journal.record(0, Chunk(64, 64), tally(detected_no_match=64), FP)
        journal.record("k-sweep:1", Chunk(0, 64), tally(silent=2), FP)

        reopened = CheckpointJournal.open(tmp_path, KEY, resume=True)
        assert len(reopened) == 3
        replay = reopened.lookup(0, Chunk(0, 64), FP)
        assert replay == MsedTally(
            trials=4, detected_no_match=0, detected_confinement=0,
            miscorrected=3, silent=1,
        )
        assert reopened.lookup("k-sweep:1", Chunk(0, 64), FP).silent == 2
        assert reopened.lookup(0, Chunk(128, 64), FP) is None  # not done

    def test_lookup_returns_a_copy(self, tmp_path):
        journal = CheckpointJournal.open(tmp_path, KEY)
        journal.record(0, Chunk(0, 8), tally(silent=1), FP)
        journal.lookup(0, Chunk(0, 8), FP).record_silent()  # mutate copy
        assert journal.lookup(0, Chunk(0, 8), FP).trials == 1

    def test_mismatched_chunk_size_misses(self, tmp_path):
        """A resumed run with a different chunking recomputes (correct,
        just unsaved) instead of mis-folding partial ranges."""
        journal = CheckpointJournal.open(tmp_path, KEY)
        journal.record(0, Chunk(0, 64), tally(silent=1), FP)
        assert journal.lookup(0, Chunk(0, 100), FP) is None


class TestGating:
    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        CheckpointJournal.open(tmp_path, KEY).record(
            0, Chunk(0, 1), tally(silent=1), FP
        )
        with pytest.raises(FileExistsError, match="--resume"):
            CheckpointJournal.open(tmp_path, KEY)

    def test_resume_with_no_journal_starts_empty(self, tmp_path):
        journal = CheckpointJournal.open(tmp_path, KEY, resume=True)
        assert len(journal) == 0

    def test_key_mismatch_refused(self, tmp_path):
        CheckpointJournal.open(tmp_path, KEY).record(
            0, Chunk(0, 1), tally(silent=1), FP
        )
        with pytest.raises(ValueError, match="stream key"):
            CheckpointJournal.open(tmp_path, KEY + 1, resume=True)

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text(json.dumps({"version": 99, "key": KEY, "groups": {}}))
        with pytest.raises(ValueError, match="version"):
            CheckpointJournal.open(tmp_path, KEY, resume=True)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        journal = CheckpointJournal.open(tmp_path, KEY)
        journal.record(0, Chunk(0, 8), tally(silent=1), "config-a")
        with pytest.raises(ValueError, match="different simulator"):
            journal.lookup(0, Chunk(0, 8), "config-b")
        reopened = CheckpointJournal.open(tmp_path, KEY, resume=True)
        with pytest.raises(ValueError, match="different simulator"):
            reopened.lookup(0, Chunk(0, 8), "config-b")


class TestSpecFingerprint:
    def test_backend_excluded(self):
        """Scalar and numpy tally byte-identically, so a checkpoint
        taken on one backend must resume on the other."""
        ref = CodeRef("repro.core.codes:muse_80_69")
        scalar = MuseSimSpec(code=ref, backend="scalar")
        numpy = MuseSimSpec(code=ref, backend="numpy")
        assert spec_fingerprint(scalar) == spec_fingerprint(numpy)

    def test_config_changes_included(self):
        ref = CodeRef("repro.core.codes:muse_80_69")
        assert spec_fingerprint(
            MuseSimSpec(code=ref, k_symbols=2)
        ) != spec_fingerprint(MuseSimSpec(code=ref, k_symbols=3))
        assert spec_fingerprint(
            MuseSimSpec(code=ref, ripple_check=True)
        ) != spec_fingerprint(MuseSimSpec(code=ref, ripple_check=False))


class TestDurability:
    def test_every_line_is_crc_valid_json(self, tmp_path):
        """Every append leaves a file of individually verifiable lines:
        a header naming the version + key, then one record per chunk."""
        journal = CheckpointJournal.open(tmp_path, KEY)
        for index in range(10):
            journal.record(
                index % 2, Chunk(index * 8, 8), tally(silent=index), FP
            )
            lines = journal.path.read_bytes().splitlines()
            decoded = [_decode_line(line) for line in lines]
            assert all(record is not None for record in decoded)
            assert decoded[0] == {"version": JOURNAL_VERSION, "key": KEY}
            assert len(decoded) == index + 2  # header + one per record

    def test_folded_summary_matches_chunk_sum(self, tmp_path):
        journal = CheckpointJournal.open(tmp_path, KEY)
        journal.record(0, Chunk(0, 8), tally(silent=3), FP)
        journal.record(0, Chunk(8, 8), tally(miscorrected=2), FP)
        folded = journal.folded()[json.dumps(0)]
        assert folded["chunks"] == 2
        assert folded["trials"] == 5
        assert folded["silent"] == 3
        assert folded["miscorrected"] == 2

    def test_appends_do_not_rewrite_earlier_lines(self, tmp_path):
        """Persistence is O(1) per record: old lines stay byte-stable."""
        journal = CheckpointJournal.open(tmp_path, KEY)
        journal.record(0, Chunk(0, 8), tally(silent=1), FP)
        first = journal.path.read_bytes()
        journal.record(0, Chunk(8, 8), tally(silent=2), FP)
        assert journal.path.read_bytes().startswith(first)


def _journal_with_records(tmp_path, count=4):
    journal = CheckpointJournal.open(tmp_path, KEY)
    for index in range(count):
        journal.record(0, Chunk(index * 8, 8), tally(silent=index + 1), FP)
    return journal


class TestSalvage:
    """A damaged journal heals: keep the valid prefix, quarantine the
    evidence, re-simulate only what the damage lost."""

    def test_torn_final_line_drops_only_that_record(self, tmp_path):
        _journal_with_records(tmp_path, count=4)
        path = tmp_path / JOURNAL_NAME
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])  # tear the last append

        journal = CheckpointJournal.open(tmp_path, KEY, resume=True)
        assert len(journal) == 3
        assert journal.lookup(0, Chunk(0, 8), FP).silent == 1
        assert journal.lookup(0, Chunk(24, 8), FP) is None  # the torn one
        assert journal.salvage is not None
        assert journal.salvage.records_kept == 3
        assert journal.salvage.lines_dropped == 1

    def test_crc_flip_invalidates_that_line(self, tmp_path):
        """Bit rot that still parses as JSON is caught by the CRC."""
        _journal_with_records(tmp_path, count=3)
        path = tmp_path / JOURNAL_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"silent":2', b'"silent":9')
        path.write_bytes(b"".join(lines))

        journal = CheckpointJournal.open(tmp_path, KEY, resume=True)
        # Prefix semantics: everything from the damaged line on is gone.
        assert len(journal) == 1
        assert journal.lookup(0, Chunk(0, 8), FP).silent == 1

    def test_garbage_interior_line_keeps_prefix(self, tmp_path):
        _journal_with_records(tmp_path, count=3)
        path = tmp_path / JOURNAL_NAME
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"\xff\xfenot json at all\n"
        path.write_bytes(b"".join(lines))

        journal = CheckpointJournal.open(tmp_path, KEY, resume=True)
        assert len(journal) == 1
        assert journal.salvage.lines_dropped == 2

    def test_quarantine_preserves_damaged_original(self, tmp_path):
        _journal_with_records(tmp_path, count=2)
        path = tmp_path / JOURNAL_NAME
        damaged = path.read_bytes()[:-7]
        path.write_bytes(damaged)

        journal = CheckpointJournal.open(tmp_path, KEY, resume=True)
        corrupt = path.with_name(JOURNAL_NAME + CORRUPT_SUFFIX)
        assert journal.salvage.corrupt_path == corrupt
        assert corrupt.read_bytes() == damaged
        # The healed journal on disk is fully valid again...
        lines = path.read_bytes().splitlines()
        assert all(_decode_line(line) is not None for line in lines)
        # ...and appending + reopening works with no residual damage.
        journal.record(0, Chunk(8, 8), tally(silent=7), FP)
        reopened = CheckpointJournal.open(tmp_path, KEY, resume=True)
        assert reopened.salvage is None
        assert len(reopened) == 2

    def test_record_torn_at_its_newline_survives_two_resumes(self, tmp_path):
        """A journal cut exactly at its final newline still decodes its
        last record: the resume keeps it and restores the newline, so
        the next record appends on a line of its own and a second
        resume holds both."""
        _journal_with_records(tmp_path, count=1)
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(path.read_bytes()[:-1])

        journal = CheckpointJournal.open(tmp_path, KEY, resume=True)
        assert journal.salvage is None
        assert journal.lookup(0, Chunk(0, 8), FP).silent == 1
        journal.record(0, Chunk(8, 8), tally(silent=2), FP)

        reopened = CheckpointJournal.open(tmp_path, KEY, resume=True)
        assert reopened.salvage is None
        assert reopened.lookup(0, Chunk(0, 8), FP).silent == 1
        assert reopened.lookup(0, Chunk(8, 8), FP).silent == 2
        assert not path.with_name(JOURNAL_NAME + CORRUPT_SUFFIX).exists()

    def test_salvaged_resume_refolds_byte_identically(self, tmp_path):
        """The healed prefix plus re-simulated lost chunks folds to the
        same totals as an undamaged journal."""
        full = _journal_with_records(tmp_path, count=4).folded()
        path = tmp_path / JOURNAL_NAME
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])

        journal = CheckpointJournal.open(tmp_path, KEY, resume=True)
        # The coordinator's resume loop: misses recompute and re-record.
        for index in range(4):
            chunk = Chunk(index * 8, 8)
            if journal.lookup(0, chunk, FP) is None:
                journal.record(0, chunk, tally(silent=index + 1), FP)
        assert journal.folded() == full

    def test_legacy_v1_journal_refused_with_version_error(self, tmp_path):
        """A pre-append-only whole-document journal names its version in
        the refusal instead of being silently quarantined."""
        path = tmp_path / JOURNAL_NAME
        path.write_text(
            json.dumps({"version": 1, "key": KEY, "groups": {}}, indent=2)
        )
        with pytest.raises(ValueError, match="version"):
            CheckpointJournal.open(tmp_path, KEY, resume=True)

    def test_unrecognizable_file_quarantines_and_starts_empty(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_bytes(b"\x00\x01\x02 total garbage\nmore garbage\n")
        journal = CheckpointJournal.open(tmp_path, KEY, resume=True)
        assert len(journal) == 0
        assert journal.salvage.records_kept == 0
        assert journal.salvage.corrupt_path.exists()
