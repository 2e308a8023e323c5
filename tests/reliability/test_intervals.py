"""Property tests for the Wilson binomial interval.

The contracts the adaptive sampler leans on:

* **coverage** — on a seeded grid of (n, p), the exact binomial
  coverage probability stays within Wilson's known small dip of
  nominal;
* **monotonicity** — at a fixed success fraction, more trials never
  widen the interval;
* **tabulated values** — the interval reproduces standard published
  numbers (the 10/100 case, Newcombe's 1998 examples) and its closed
  forms at 0 and n events;
* **score inversion** — each interior end is where the score test
  starts to reject, and the interval brackets ``k/n``;
* **edges** — 0 events pins lo to 0, all events pins hi to 1, zero
  trials yields the vacuous [0, 1].
"""

import math
import random
from statistics import NormalDist

import pytest
from hypothesis import given, strategies as st

from repro.reliability.sampling.intervals import wilson_interval

CONFIDENCE = 0.95

#: Seeded (n, p) grid shared by the coverage tests: several trial
#: counts, four random proportions each, reproducible by construction.
_RNG = random.Random(20260729)
COVERAGE_GRID = [
    (n, round(_RNG.uniform(0.02, 0.98), 3))
    for n in (11, 25, 60, 140)
    for _ in range(4)
]


def exact_coverage(n: int, p: float) -> float:
    """P[interval covers p] under Binomial(n, p), summed exactly."""
    return sum(
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        for k in range(n + 1)
        if wilson_interval(k, n, CONFIDENCE).contains(p)
    )


class TestCoverage:
    @pytest.mark.parametrize("n,p", COVERAGE_GRID)
    def test_wilson_coverage_near_nominal(self, n, p):
        """Wilson trades the guarantee for tightness; its coverage is
        known to oscillate a few points below nominal at small n
        (Brown, Cai & DasGupta 2001) but never collapses."""
        assert exact_coverage(n, p) >= CONFIDENCE - 0.03

    def test_wilson_mean_coverage_at_least_nominal_minus_epsilon(self):
        mean = sum(
            exact_coverage(n, p) for n, p in COVERAGE_GRID
        ) / len(COVERAGE_GRID)
        assert mean >= CONFIDENCE - 0.01


class TestMonotonicity:
    @pytest.mark.parametrize("k,n", [(1, 20), (3, 10), (9, 30), (0, 8)])
    def test_half_width_shrinks_as_n_grows(self, k, n):
        """Scaling (k, n) by s keeps the estimate and adds information;
        the interval must never widen."""
        widths = [
            wilson_interval(k * s, n * s, CONFIDENCE).width
            for s in (1, 2, 4, 8, 16)
        ]
        assert all(a >= b for a, b in zip(widths, widths[1:]))
        assert widths[-1] < widths[0]  # and strictly tightens overall

    def test_higher_confidence_is_wider(self):
        assert (
            wilson_interval(7, 50, 0.99).width
            > wilson_interval(7, 50, 0.95).width
            > wilson_interval(7, 50, 0.80).width
        )


class TestTabulatedValues:
    def test_wilson_10_of_100(self):
        """The standard worked example (e.g. statsmodels docs)."""
        interval = wilson_interval(10, 100, 0.95)
        assert interval.lo == pytest.approx(0.05523, abs=5e-5)
        assert interval.hi == pytest.approx(0.17437, abs=5e-5)

    @pytest.mark.parametrize(
        "k,n,lo,hi",
        [
            (81, 263, 0.2553, 0.3662),
            (15, 148, 0.0624, 0.1605),
            (0, 20, 0.0, 0.1611),
            (1, 29, 0.0061, 0.1718),
        ],
    )
    def test_newcombe_1998_examples(self, k, n, lo, hi):
        """Newcombe (1998), Table I, method 3 (score interval without
        continuity correction), published to four decimals."""
        interval = wilson_interval(k, n, 0.95)
        assert interval.lo == pytest.approx(lo, abs=5e-5)
        assert interval.hi == pytest.approx(hi, abs=5e-5)

    @pytest.mark.parametrize("n", [10, 50, 1000])
    def test_zero_events_closed_form(self, n):
        """At k = 0 the score interval's upper end is z^2 / (n + z^2)."""
        z2 = NormalDist().inv_cdf(0.975) ** 2
        assert wilson_interval(0, n).hi == pytest.approx(z2 / (n + z2))

    @pytest.mark.parametrize("n", [10, 50, 1000])
    def test_all_events_closed_form(self, n):
        """At k = n the lower end is n / (n + z^2), the mirror image."""
        z2 = NormalDist().inv_cdf(0.975) ** 2
        assert wilson_interval(n, n).lo == pytest.approx(n / (n + z2))

    def test_symmetry_under_success_failure_swap(self):
        forward = wilson_interval(17, 60)
        mirrored = wilson_interval(43, 60)
        assert forward.lo == pytest.approx(1.0 - mirrored.hi, abs=1e-9)
        assert forward.hi == pytest.approx(1.0 - mirrored.lo, abs=1e-9)


class TestScoreInversion:
    @given(
        n=st.integers(min_value=1, max_value=5_000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        confidence=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
    )
    def test_ends_are_where_the_score_test_rejects(
        self, n, fraction, confidence
    ):
        """Each interior end p solves |k/n - p| = z sqrt(p(1-p)/n): the
        interval is exactly the set the score test does not reject."""
        k = round(fraction * n)
        interval = wilson_interval(k, n, confidence)
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        for p in (interval.lo, interval.hi):
            if p in (0.0, 1.0):
                continue
            score = abs(k / n - p) / math.sqrt(p * (1.0 - p) / n)
            assert score == pytest.approx(z, rel=1e-6)

    @given(
        n=st.integers(min_value=1, max_value=5_000),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_interval_brackets_the_point_estimate(self, n, fraction):
        k = round(fraction * n)
        interval = wilson_interval(k, n)
        assert 0.0 <= interval.lo <= k / n <= interval.hi <= 1.0


class TestEdges:
    def test_zero_events_lo_is_zero(self):
        interval = wilson_interval(0, 42)
        assert interval.lo == 0.0
        assert 0.0 < interval.hi < 0.2

    def test_all_events_hi_is_one(self):
        interval = wilson_interval(42, 42)
        assert interval.hi == 1.0
        assert 0.8 < interval.lo < 1.0

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == wilson_interval(0, 0)
        interval = wilson_interval(0, 0)
        assert (interval.lo, interval.hi) == (0.0, 1.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(5, 3)
        with pytest.raises(ValueError, match="successes"):
            wilson_interval(-1, 3)
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(1, 3, confidence=1.0)

    def test_interval_helpers(self):
        interval = wilson_interval(5, 50)
        assert interval.half_width == pytest.approx(interval.width / 2)
        assert interval.contains(0.1)
        assert not interval.contains(0.9)
        assert interval.format(scale=100.0).startswith("[")
