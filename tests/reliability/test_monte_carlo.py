"""Monte-Carlo MSED simulator tests, including Table IV shape anchors."""

import pytest

from repro.core.codes import muse_80_67, muse_80_69, muse_80_70, muse_144_132
from repro.engine import available_backends
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    build_table_iv,
    largest_144_multiplier,
    muse_design_point,
    rs_design_point,
)
from repro.rs.reed_solomon import rs_144_128

VECTOR_BACKENDS = [b for b in available_backends() if b != "scalar"]
MUSE_CODES = [muse_144_132, muse_80_69, muse_80_67, muse_80_70]
MUSE_CODE_IDS = ["144_132", "80_69", "80_67_eq5", "80_70_eq6_hybrid"]

class TestMuseSimulator:
    def test_deterministic_under_seed(self):
        simulator = MuseMsedSimulator(muse_80_69())
        first = simulator.run(trials=500, seed=7)
        second = simulator.run(trials=500, seed=7)
        assert first == second

    @pytest.mark.parametrize("ripple", [True, False], ids=["ripple", "noripple"])
    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("factory", MUSE_CODES, ids=MUSE_CODE_IDS)
    def test_backends_produce_identical_tallies(self, factory, backend, ripple):
        """Same (trials, seed) -> byte-identical MsedResult on every
        backend: generation is shared, only the decoder differs (the
        native rung takes the fused chunk path here)."""
        code = factory()
        scalar = MuseMsedSimulator(
            code, ripple_check=ripple, backend="scalar"
        ).run(trials=1200, seed=2022)
        vector = MuseMsedSimulator(
            code, ripple_check=ripple, backend=backend
        ).run(trials=1200, seed=2022)
        assert scalar == vector

    def test_buckets_partition_trials(self):
        result = MuseMsedSimulator(muse_80_69()).run(trials=800, seed=1)
        assert (
            result.detected + result.miscorrected + result.silent == result.trials
        )

    def test_muse_144_132_msed_near_paper_value(self):
        """Paper: 86.71% for MUSE(144,132); allow Monte-Carlo noise."""
        result = MuseMsedSimulator(muse_144_132()).run(trials=4000, seed=3)
        assert 83.0 < result.msed_percent < 91.0

    def test_muse_80_69_msed_near_paper_value(self):
        """Paper: 85.03% for MUSE(80,69)."""
        result = MuseMsedSimulator(muse_80_69()).run(trials=4000, seed=3)
        assert 81.0 < result.msed_percent < 89.0

    def test_ripple_check_improves_detection(self):
        """The Figure-4 overflow detector contributes real coverage."""
        code = muse_144_132()
        with_ripple = MuseMsedSimulator(code, ripple_check=True).run(2000, seed=5)
        without = MuseMsedSimulator(code, ripple_check=False).run(2000, seed=5)
        assert with_ripple.msed_rate > without.msed_rate

    def test_three_symbol_errors_supported(self):
        result = MuseMsedSimulator(muse_80_69(), k_symbols=3).run(500, seed=9)
        assert result.trials == 500


class TestRsSimulator:
    def test_buckets_partition_trials(self):
        result = RsMsedSimulator(rs_144_128()).run(trials=800, seed=1)
        assert (
            result.detected + result.miscorrected + result.silent == result.trials
        )

    def test_rs_144_128_msed_near_paper_value(self):
        """Paper: 99.36% for RS(144,128) (with device-confined policy)."""
        result = RsMsedSimulator(rs_144_128()).run(trials=4000, seed=3)
        assert 97.5 < result.msed_percent <= 100.0

    def test_device_policy_ablation(self):
        """Without the device-confinement reject, MSED drops sharply."""
        strict = RsMsedSimulator(rs_144_128(), device_bits=4).run(2000, seed=5)
        loose = RsMsedSimulator(rs_144_128(), device_bits=None).run(2000, seed=5)
        assert strict.msed_rate > loose.msed_rate
        # The loose decoder's miss rate is roughly the locator-validity
        # fraction n/2^b = 18/256 ~= 7%.
        assert 0.02 < loose.miscorrection_rate < 0.15


class TestDesignPoints:
    def test_muse_extra_bits_mapping(self):
        assert muse_design_point(0).m == 65519
        assert muse_design_point(4).m == 4065
        assert muse_design_point(5).name == "MUSE(80,69)"
        with pytest.raises(ValueError):
            muse_design_point(6)

    def test_rs_extra_bits_mapping(self):
        assert rs_design_point(0).symbol_bits == 8
        assert rs_design_point(6).symbol_bits == 5
        with pytest.raises(ValueError):
            rs_design_point(1)
        with pytest.raises(ValueError):
            rs_design_point(8)

    def test_largest_multipliers_have_right_width(self):
        """Each recorded multiplier is what a fresh descending search
        finds, so building the table can skip the search."""
        from repro.core.error_model import SymbolErrorModel
        from repro.core.search import MultiplierSearch
        from repro.core.symbols import SymbolLayout
        from repro.reliability.monte_carlo import PAPER_144_MULTIPLIERS

        assert sorted(PAPER_144_MULTIPLIERS) == [12, 13, 14, 15, 16]
        model = SymbolErrorModel(SymbolLayout.sequential(144, 4))
        for r in (12, 13, 14, 15, 16):
            assert largest_144_multiplier(r).bit_length() == r
            search = MultiplierSearch(model, r).run_descending(stop_after=1)
            assert search.found
            assert PAPER_144_MULTIPLIERS[r] == search.multipliers[-1]

    def test_design_points_are_memoised(self):
        """Every Table-IV point is one code object per process, so the
        engines cached on it are built once."""
        for extra_bits in range(6):
            assert muse_design_point(extra_bits) is muse_design_point(
                extra_bits
            )
        assert muse_design_point(5) is muse_80_69()
        for extra_bits in (0, 2, 4, 6):
            assert rs_design_point(extra_bits) is rs_design_point(extra_bits)

    def test_second_table_build_builds_no_engine(self):
        """Only the first Table-IV build of a process pays for the
        design points' engine tables."""
        build_table_iv(trials=64, seed=1)
        points = [muse_design_point(extra) for extra in range(6)] + [
            rs_design_point(extra) for extra in (0, 2, 4, 6)
        ]
        before = [dict(point._engine_cache) for point in points]
        build_table_iv(trials=64, seed=1)
        assert [point._engine_cache for point in points] == before


class TestTableIVShape:
    """The qualitative claims of Table IV, asserted on a real run."""

    @pytest.fixture(scope="class")
    def table(self):
        # The closest pair the shape claims order is MUSE +0b vs +1b:
        # exact MSED 98.510 vs 98.248 %, 0.262 pp apart.  At 75k trials
        # per point the two estimates' difference has sigma 0.065 pp,
        # so a true ordering reads reversed with probability about
        # Phi(-4.0) = 3e-5.
        return build_table_iv(trials=75_000, seed=11)

    def test_muse_has_all_six_points(self, table):
        assert set(table.row("MUSE")) == {0, 1, 2, 3, 4, 5}

    def test_rs_has_even_points_only(self, table):
        assert set(table.row("RS")) == {0, 2, 4, 6}

    def test_muse_msed_degrades_monotonically_with_extra_bits(self, table):
        row = table.row("MUSE")
        rates = [row[e].result.msed_rate for e in range(5)]  # 144-bit points
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_rs_loses_chipkill_beyond_zero_extra_bits(self, table):
        row = table.row("RS")
        assert row[0].chipkill
        assert not row[2].chipkill
        assert not row[4].chipkill
        assert not row[6].chipkill

    def test_rs_collapses_at_six_extra_bits(self, table):
        """The paper's headline RS failure: ~54% MSED at 5-bit symbols."""
        row = table.row("RS")
        assert row[6].result.msed_percent < 75.0

    def test_muse_beats_rs_at_four_extra_bits(self, table):
        """At 4 extra bits: MUSE 86.71% (ChipKill) vs RS 86.79% (no
        ChipKill) in the paper — comparable rates, but only MUSE keeps
        the guarantee. We assert the guarantee difference and that the
        rates are within a few points."""
        muse = table.row("MUSE")[4]
        rs = table.row("RS")[4]
        assert muse.chipkill and not rs.chipkill
        assert abs(muse.result.msed_rate - rs.result.msed_rate) < 0.12

    def test_render_includes_both_families(self, table):
        text = table.render()
        assert "MUSE" in text and "RS" in text


#: ``build_table_iv(trials=4096, seed=2022)`` per point, as
#: ``(trials, detected_no_match, detected_confinement, miscorrected,
#: silent)`` in Table-IV order (MUSE +0..+5b, RS +0/+2/+4/+6b).
#: Literal values, so a change that moves every backend's stream at
#: once still fails here.
STREAM_PINS = {
    "msed": [
        (4096, 3958, 65, 73, 0),
        (4096, 3929, 93, 74, 0),
        (4096, 3813, 166, 117, 0),
        (4096, 3597, 258, 241, 0),
        (4096, 3130, 500, 466, 0),
        (4096, 2853, 611, 632, 0),
        (4096, 3817, 252, 27, 0),
        (4096, 3510, 489, 97, 0),
        (4096, 2696, 1012, 388, 0),
        (4096, 594, 2001, 1501, 0),
    ],
    "mbu": [
        (4096, 3964, 73, 59, 0),
        (4096, 3934, 93, 69, 0),
        (4096, 3815, 158, 123, 0),
        (4096, 3602, 258, 236, 0),
        (4096, 3021, 561, 514, 0),
        (4096, 2803, 681, 612, 0),
        (4096, 3859, 199, 38, 0),
        (4096, 3455, 489, 152, 0),
        (4096, 2633, 1021, 442, 0),
        (4096, 579, 2056, 1461, 0),
    ],
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("scenario", sorted(STREAM_PINS))
def test_table_iv_tallies_are_pinned(scenario, backend):
    table = build_table_iv(
        trials=4096, seed=2022, scenario=scenario, backend=backend
    )
    assert [
        (
            point.result.trials,
            point.result.detected_no_match,
            point.result.detected_confinement,
            point.result.miscorrected,
            point.result.silent,
        )
        for point in table.points
    ] == STREAM_PINS[scenario]
