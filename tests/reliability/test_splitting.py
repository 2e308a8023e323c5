"""Importance-splitting tests: unbiasedness against brute force.

The estimator's claim is exactness, not approximation: branching the
final corrupted symbol over all its values and weighting by the uniform
continuation probability must estimate the *same* silent/miscorrection
rates as the plain stream — so on a deliberately weak toy code
(TOY(16,7), the smallest valid C4B multiplier, whose 3-symbol silent
rate ~3e-3 is big enough to brute-force) the two estimators' confidence
intervals must agree.  The splitting tally shares the orchestrator's
fold contract: byte-identical across ``(chunk_size, jobs)`` and decode
backends.  ``SplittingEstimator`` takes the plain simulator itself, so
it splits under that simulator's decode policy.
"""

import dataclasses

import pytest

from repro.core.codes import muse_80_69, toy_16_7
from repro.engine import available_backends
from repro.orchestrate.worker import CodeRef
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    rs_design_point,
)
from repro.reliability.sampling.splitting import (
    SplittingEstimator,
    SplitTally,
    StratumTally,
)
from repro.rs.reed_solomon import rs_144_128

TOY_REF = "repro.core.codes:toy_16_7"
RS_REF = CodeRef("repro.reliability.monte_carlo:rs_design_point", (6,))

BRUTE_TRIALS = 200_000
SPLIT_TRIALS = 25_000
SEED = 17


@pytest.fixture(scope="module")
def toy_brute():
    """Brute-force reference rates on the weak toy, k=3."""
    return MuseMsedSimulator(toy_16_7(), k_symbols=3).run(
        trials=BRUTE_TRIALS, seed=SEED
    )


@pytest.fixture(scope="module")
def toy_split():
    return SplittingEstimator(MuseMsedSimulator(toy_16_7(), k_symbols=3)).run(
        trials=SPLIT_TRIALS, seed=SEED
    )


class TestUnbiasedness:
    """Satellite: splitting agrees with brute force where brute force
    can actually see the events."""

    def test_silent_rate_matches_brute_force(self, toy_brute, toy_split):
        brute_rate = toy_brute.silent_rate
        assert brute_rate > 1e-3  # the toy really is weak enough
        assert toy_split.events("silent") > 0
        # Each estimator's 95% interval must cover the other's point
        # estimate — the standard two-sided agreement check.
        assert toy_split.interval("silent").contains(brute_rate)
        assert toy_brute.interval(metric="silent").contains(
            toy_split.rate("silent")
        )

    def test_miscorrection_rate_matches_brute_force(self, toy_brute, toy_split):
        assert toy_split.interval("miscorrection").contains(
            toy_brute.miscorrection_rate
        )
        assert toy_brute.interval(metric="miscorrection").contains(
            toy_split.rate("miscorrection")
        )

    def test_splitting_tightens_the_error_bar(self, toy_brute, toy_split):
        """The point of splitting: fewer prefix trials, smaller CI.
        25k prefixes (each fanned over 15 continuations) must beat the
        200k-trial brute interval on the silent tail."""
        split_width = toy_split.interval("silent").width
        brute_width = toy_brute.interval(metric="silent").width
        assert split_width < brute_width

    def test_rs_miscorrection_matches_brute_force(self):
        """Same agreement on the RS family: the weak 5-bit-symbol code
        (RS +6 extra bits) miscorrects often enough to compare.  The
        brute run is 10x shorter than the MUSE one (256-value branch
        fans are pricier), so assert CI overlap and closeness rather
        than strict mutual containment — a 40k-trial brute estimate
        wobbles more than the split interval is wide."""
        code = rs_design_point(6)
        brute = RsMsedSimulator(code).run(trials=40_000, seed=SEED)
        split = SplittingEstimator(RsMsedSimulator(code)).run(trials=4_000, seed=SEED)
        split_interval = split.interval("miscorrection")
        brute_interval = brute.interval(metric="miscorrection")
        assert split_interval.lo <= brute_interval.hi
        assert brute_interval.lo <= split_interval.hi
        assert split.rate("miscorrection") == pytest.approx(
            brute.miscorrection_rate, abs=0.01
        )


class TestRareTail:
    def test_zero_event_cell_still_gets_an_upper_bound(self):
        """The motivating case: a strong code whose silent rate a plain
        run reports as '0 events'.  The splitting interval must stay
        [0, something-positive], not collapse to a point."""
        split = SplittingEstimator(MuseMsedSimulator(muse_80_69())).run(
            trials=2_000, seed=3
        )
        interval = split.interval("silent")
        assert split.events("silent") == 0
        assert interval.lo == 0.0
        assert 0.0 < interval.hi < 1.0

    def test_fractional_events_accumulate_before_whole_ones(self):
        """On the toy, a handful of prefixes already yields branch
        events — the variance win over 0/1 indicators."""
        split = SplittingEstimator(MuseMsedSimulator(toy_16_7(), k_symbols=3)).run(
            trials=3_000, seed=1
        )
        assert split.events("silent") > 0
        assert split.branches == split.prefixes * 15  # 4-bit symbols


class TestDecodePolicy:
    @pytest.mark.parametrize(
        "simulator, policy",
        [
            (lambda: RsMsedSimulator(rs_144_128()), {"device_bits": None}),
            (lambda: MuseMsedSimulator(muse_80_69()), {"ripple_check": False}),
        ],
        ids=["rs-device-policy-off", "muse-ripple-check-off"],
    )
    def test_split_keeps_the_simulators_decode_policy(self, simulator, policy):
        """The estimator decodes under its simulator's own policy: an
        RS simulator with the device policy off is split with the
        policy off, not under the x4 default."""
        default = simulator()
        own = SplittingEstimator(dataclasses.replace(default, **policy))
        assert own.run(300, seed=3).rate("miscorrection") != (
            SplittingEstimator(default).run(300, seed=3).rate("miscorrection")
        )


class TestFoldContract:
    def test_chunking_invariant(self):
        estimator = SplittingEstimator(MuseMsedSimulator(toy_16_7(), k_symbols=3))
        baseline = estimator.run(trials=5_000, seed=9)
        for chunk_size in (512, 1_777, 5_000):
            assert estimator.run(trials=5_000, seed=9, chunk_size=chunk_size) == baseline

    @pytest.mark.parametrize(
        "simulator, trials, chunk_size",
        [
            (
                lambda: MuseMsedSimulator(
                    toy_16_7(), k_symbols=3, code_ref=TOY_REF
                ),
                4_000,
                1_000,
            ),
            (
                lambda: RsMsedSimulator(rs_design_point(6), code_ref=RS_REF),
                600,
                150,
            ),
        ],
        ids=["muse", "rs"],
    )
    def test_jobs_invariant(self, simulator, trials, chunk_size):
        estimator = SplittingEstimator(simulator())
        serial = estimator.run(trials=trials, seed=9)
        sharded = estimator.run(
            trials=trials, seed=9, jobs=2, chunk_size=chunk_size
        )
        assert sharded == serial

    def test_backends_agree(self):
        if "numpy" not in available_backends():
            pytest.skip("numpy backend unavailable")
        runs = {
            backend: SplittingEstimator(
                MuseMsedSimulator(toy_16_7(), k_symbols=3, backend=backend)
            ).run(trials=2_000, seed=4)
            for backend in ("scalar", "numpy")
        }
        assert runs["scalar"] == runs["numpy"]

    def test_tally_merge_is_associative(self):
        def tally(width, *counts):
            t = SplitTally()
            t.record(width, *counts)
            return t

        parts = [
            tally(4, 10, 2, 4, 5, 7),
            tally(4, 3, 0, 0, 1, 1),
            tally(8, 6, 1, 1, 0, 0),
        ]
        forward = SplitTally()
        for part in parts:
            forward += part
        backward = SplitTally()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.freeze() == backward.freeze()
        assert forward.freeze().prefixes == 19

    def test_jobs_without_code_ref_raises(self):
        estimator = SplittingEstimator(MuseMsedSimulator(toy_16_7(), k_symbols=3))
        with pytest.raises(ValueError, match="code_ref"):
            estimator.run(trials=1_000, seed=1, jobs=2)


class TestValidation:
    def test_k_must_leave_a_prefix(self):
        from repro.orchestrate.corruption import muse_split_chunk
        from repro.orchestrate.plan import Chunk

        with pytest.raises(ValueError, match="k_symbols"):
            muse_split_chunk(toy_16_7(), Chunk(0, 8), key=1, k_symbols=1)

    def test_unknown_metric_rejected(self, toy_split):
        with pytest.raises(ValueError, match="metric"):
            toy_split.rate("msed")

    def test_stratum_merge(self):
        left = StratumTally(1, 2, 4, 3, 9)
        left.merge(StratumTally(1, 1, 1, 1, 1))
        assert left == StratumTally(2, 3, 5, 4, 10)
