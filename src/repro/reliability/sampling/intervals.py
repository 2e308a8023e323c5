"""Binomial confidence intervals for Monte-Carlo event counts.

The Table-IV Monte-Carlo reports event *rates* — detected, miscorrected,
silent fractions of the sampled trials — and a bare rate with no error
bar is meaningless for the rare cells ("0 events in N trials").  Every
reported rate carries a **Wilson score** interval, in pure stdlib
Python: the score-test inversion, with near-nominal coverage at every
``n`` and well-behaved at the 0/``n`` boundaries, which is why it also
drives the adaptive stopping rule
(:mod:`repro.reliability.sampling.sequential`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

__all__ = [
    "Interval",
    "wilson_interval",
]


@dataclass(frozen=True)
class Interval:
    """A two-sided confidence interval ``[lo, hi]`` on a proportion."""

    lo: float
    hi: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, p: float) -> bool:
        return self.lo <= p <= self.hi

    def format(self, scale: float = 1.0, digits: int = 4) -> str:
        """``[lo, hi]`` rendering, optionally scaled (100.0 -> percent)."""
        return (
            f"[{self.lo * scale:.{digits}g}, {self.hi * scale:.{digits}g}]"
        )

    def __str__(self) -> str:
        return self.format()


def _validate(successes: int, trials: int, confidence: float) -> None:
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, trials={trials}], got {successes}"
        )
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Interval:
    """Wilson score interval for ``successes`` out of ``trials``.

    The inversion of the normal score test: the interval is centred on
    ``(k + z^2/2) / (n + z^2)``, never escapes ``[0, 1]``, and stays
    informative at ``k = 0`` / ``k = n`` (unlike the Wald interval,
    which collapses to a point there).
    """
    _validate(successes, trials, confidence)
    if trials == 0:
        return Interval(0.0, 1.0, confidence)
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n = float(trials)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denom
    half = (
        z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    )
    # The boundary cases are exactly 0 / 1 algebraically; pin them so
    # float roundoff can't leave hi at 0.9999999... for k = n.
    lo = 0.0 if successes == 0 else max(0.0, centre - half)
    hi = 1.0 if successes == trials else min(1.0, centre + half)
    return Interval(lo, hi, confidence)
