"""Result-cache cells must never alias across fault scenarios.

The scenario name is part of the sim spec, hence of
``spec_fingerprint``, hence of the cache cell digest: two scenarios of
the same ``(code, seed)`` occupy distinct cells, and a lookup under
one scenario is never served a chunk computed under another.
"""

import itertools

import pytest

from repro.distribute.cache import ResultCache
from repro.distribute.checkpoint import CORRUPT_SUFFIX, spec_fingerprint
from repro.orchestrate.plan import Chunk
from repro.orchestrate.worker import CodeRef, MuseSimSpec, RsSimSpec
from repro.reliability.metrics import MsedTally
from repro.scenarios import scenario_names

KEY = 0xBEEF
MUSE_REF = CodeRef("repro.core.codes:muse_80_69")
RS_REF = CodeRef("repro.rs.reed_solomon:rs_144_128")


def tally(**counts) -> MsedTally:
    t = MsedTally()
    t.record_counts(**counts)
    return t


#: Literal fingerprints of Table-IV simulators' task specs — the keys
#: of their result-cache cells and checkpoint journal records.  A
#: refactor of the simulators must leave every one of them unmoved.
MC = "repro.reliability.monte_carlo"
TABLE_IV_FINGERPRINTS = [
    (
        "muse", 4, "msed", {},
        f"MuseSimSpec(code=CodeRef(target='{MC}:muse_design_point', "
        "args=(4,)), k_symbols=2, ripple_check=True, backend='any', "
        "scenario='msed')",
    ),
    (
        "muse", 4, "mbu", {},
        f"MuseSimSpec(code=CodeRef(target='{MC}:muse_design_point', "
        "args=(4,)), k_symbols=2, ripple_check=True, backend='any', "
        "scenario='mbu')",
    ),
    (
        "rs", 6, "msed", {},
        f"RsSimSpec(code=CodeRef(target='{MC}:rs_design_point', "
        "args=(6,)), k_symbols=2, device_bits=4, backend='any', "
        "scenario='msed')",
    ),
    (
        "rs", 6, "mbu", {},
        f"RsSimSpec(code=CodeRef(target='{MC}:rs_design_point', "
        "args=(6,)), k_symbols=2, device_bits=4, backend='any', "
        "scenario='mbu')",
    ),
    (
        "rs", 6, "msed", {"device_bits": None},
        f"RsSimSpec(code=CodeRef(target='{MC}:rs_design_point', "
        "args=(6,)), k_symbols=2, device_bits=None, backend='any', "
        "scenario='msed')",
    ),
    (
        "rs", 6, "mbu", {"device_bits": None},
        f"RsSimSpec(code=CodeRef(target='{MC}:rs_design_point', "
        "args=(6,)), k_symbols=2, device_bits=None, backend='any', "
        "scenario='mbu')",
    ),
]


class TestFingerprints:
    def test_distinct_across_all_scenarios(self):
        prints = {
            spec_fingerprint(MuseSimSpec(MUSE_REF, scenario=name))
            for name in scenario_names()
        }
        assert len(prints) == len(scenario_names())

    def test_distinct_for_rs_too(self):
        prints = {
            spec_fingerprint(RsSimSpec(RS_REF, scenario=name))
            for name in scenario_names()
        }
        assert len(prints) == len(scenario_names())

    def test_backend_still_collapses_within_a_scenario(self):
        """The scenario field must not break the cross-backend cell
        sharing the cache is built on."""
        a = spec_fingerprint(
            MuseSimSpec(MUSE_REF, backend="scalar", scenario="mbu")
        )
        b = spec_fingerprint(
            MuseSimSpec(MUSE_REF, backend="numpy", scenario="mbu")
        )
        assert a == b

    def test_default_spec_is_the_msed_cell(self):
        """Pre-scenario cache files were written with no scenario field;
        the default must stay ``msed`` so old msed cells keep hitting."""
        assert spec_fingerprint(MuseSimSpec(MUSE_REF)) == spec_fingerprint(
            MuseSimSpec(MUSE_REF, scenario="msed")
        )

    @pytest.mark.parametrize(
        "family, extra_bits, scenario, policy, expected",
        TABLE_IV_FINGERPRINTS,
        ids=[
            "muse+4b-msed",
            "muse+4b-mbu",
            "rs+6b-msed",
            "rs+6b-mbu",
            "rs+6b-msed-no-policy",
            "rs+6b-mbu-no-policy",
        ],
    )
    def test_table_iv_spec_is_pinned(
        self, family, extra_bits, scenario, policy, expected
    ):
        """A Table-IV simulator's spec, built the way ``build_table_iv``
        builds its points, fingerprints to its literal pin."""
        from repro.reliability import monte_carlo

        simulator = {
            "muse": monte_carlo.MuseMsedSimulator,
            "rs": monte_carlo.RsMsedSimulator,
        }[family]
        factory = f"{family}_design_point"
        spec = simulator(
            getattr(monte_carlo, factory)(extra_bits),
            backend="numpy",
            code_ref=CodeRef(f"{MC}:{factory}", (extra_bits,)),
            scenario=scenario,
            **policy,
        )._task_spec()
        assert spec_fingerprint(spec) == expected


class TestCacheCells:
    def test_foreign_scenario_cell_not_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        chunk = Chunk(0, 64)
        mbu = MuseSimSpec(MUSE_REF, scenario="mbu")
        wear = MuseSimSpec(MUSE_REF, scenario="wear")
        cache.record(KEY, mbu, chunk, tally(miscorrected=3, silent=1))

        assert cache.lookup(KEY, wear, chunk) is None
        held = cache.lookup(KEY, mbu, chunk)
        assert held is not None and held.miscorrected == 3

    def test_every_scenario_pair_isolated_on_disk(self, tmp_path):
        """Round-trip through a fresh cache: each scenario reads back
        exactly its own chunk, never a sibling's."""
        chunk = Chunk(0, 32)
        writer = ResultCache(tmp_path)
        for i, name in enumerate(scenario_names()):
            spec = MuseSimSpec(MUSE_REF, scenario=name)
            writer.record(KEY, spec, chunk, tally(miscorrected=i, silent=1))
        writer.flush()

        reader = ResultCache(tmp_path)
        for i, name in enumerate(scenario_names()):
            spec = MuseSimSpec(MUSE_REF, scenario=name)
            held = reader.lookup(KEY, spec, chunk)
            assert held is not None and held.miscorrected == i, name
        for a, b in itertools.permutations(scenario_names(), 2):
            digest_a = reader._digest(
                KEY, spec_fingerprint(MuseSimSpec(MUSE_REF, scenario=a))
            )
            digest_b = reader._digest(
                KEY, spec_fingerprint(MuseSimSpec(MUSE_REF, scenario=b))
            )
            assert digest_a != digest_b, (a, b)

    def test_rerun_of_a_scenario_cell_is_zero_recompute(self, tmp_path):
        """The cache's core guarantee holds for scenario cells: a
        second run of a completed cell serves everything from disk."""
        chunk_a, chunk_b = Chunk(0, 64), Chunk(64, 64)
        spec = RsSimSpec(RS_REF, scenario="scrub")
        writer = ResultCache(tmp_path)
        writer.record(KEY, spec, chunk_a, tally(detected_no_match=64))
        writer.record(KEY, spec, chunk_b, tally(miscorrected=2))
        writer.flush()

        reader = ResultCache(tmp_path)
        assert reader.lookup(KEY, spec, chunk_a).trials == 64
        assert reader.lookup(KEY, spec, chunk_b).miscorrected == 2
        assert reader.trials_recorded == 0

    def test_torn_cell_heals_on_the_next_load(self, tmp_path):
        """A cell torn by a kill mid-flush is rewritten on load to its
        valid prefix (the damaged file kept as ``.corrupt``), so the
        lost chunk recomputes once and later reruns record nothing."""
        chunks = (Chunk(0, 64), Chunk(64, 64))
        spec = MuseSimSpec(MUSE_REF)
        writer = ResultCache(tmp_path)
        for chunk in chunks:
            writer.record(KEY, spec, chunk, tally(miscorrected=1, silent=63))
        writer.flush()
        (cell,) = tmp_path.glob("*.jsonl")
        lines = cell.read_bytes().splitlines(keepends=True)
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) * 2 // 3]
        cell.write_bytes(torn)

        recorded = []
        for _ in range(3):
            rerun = ResultCache(tmp_path)
            for chunk in chunks:
                if rerun.lookup(KEY, spec, chunk) is None:
                    rerun.record(
                        KEY, spec, chunk, tally(miscorrected=1, silent=63)
                    )
            rerun.flush()
            recorded.append(rerun.trials_recorded)
        assert recorded == [64, 0, 0]
        assert cell.read_bytes() == b"".join(lines)
        assert cell.with_name(cell.name + CORRUPT_SUFFIX).read_bytes() == torn

    def test_record_torn_at_its_newline_is_kept(self, tmp_path):
        """A kill can cut a cell exactly at its last newline, leaving a
        record that still decodes: it is kept and its newline restored
        before the next append, so no chunk recomputes twice and no
        ``.corrupt`` sidecar appears."""
        chunks = (Chunk(0, 64), Chunk(64, 64))
        spec = MuseSimSpec(MUSE_REF)
        writer = ResultCache(tmp_path)
        writer.record(KEY, spec, chunks[0], tally(miscorrected=1, silent=63))
        writer.flush()
        (cell,) = tmp_path.glob("*.jsonl")
        cell.write_bytes(cell.read_bytes()[:-1])

        recorded = []
        for _ in range(3):
            rerun = ResultCache(tmp_path)
            for chunk in chunks:
                if rerun.lookup(KEY, spec, chunk) is None:
                    rerun.record(
                        KEY, spec, chunk, tally(miscorrected=1, silent=63)
                    )
            rerun.flush()
            recorded.append(rerun.trials_recorded)
        assert recorded == [64, 0, 0]
        assert not cell.with_name(cell.name + CORRUPT_SUFFIX).exists()
        assert len(cell.read_bytes().splitlines()) == 3  # header + 2 chunks

    def test_cell_torn_inside_its_header_heals(self, tmp_path):
        """A kill during a cell's first flush can leave only part of its
        header line: the fragment is quarantined as ``.corrupt`` and the
        cell starts empty, so both chunks recompute once and later
        reruns record nothing."""
        chunks = (Chunk(0, 64), Chunk(64, 64))
        spec = MuseSimSpec(MUSE_REF)
        writer = ResultCache(tmp_path)
        for chunk in chunks:
            writer.record(KEY, spec, chunk, tally(miscorrected=1, silent=63))
        writer.flush()
        (cell,) = tmp_path.glob("*.jsonl")
        untorn = cell.read_bytes()
        header = untorn.splitlines(keepends=True)[0]
        torn = header[: len(header) // 2]
        cell.write_bytes(torn)

        recorded = []
        for _ in range(3):
            rerun = ResultCache(tmp_path)
            for chunk in chunks:
                if rerun.lookup(KEY, spec, chunk) is None:
                    rerun.record(
                        KEY, spec, chunk, tally(miscorrected=1, silent=63)
                    )
            rerun.flush()
            recorded.append(rerun.trials_recorded)
        assert recorded == [128, 0, 0]
        assert cell.read_bytes() == untorn
        assert cell.with_name(cell.name + CORRUPT_SUFFIX).read_bytes() == torn
