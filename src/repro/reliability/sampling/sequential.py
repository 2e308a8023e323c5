"""The adaptive stopping rule: sample a design point until its CI is
tight, not until a fixed trial budget is spent.

A fixed-trial Monte-Carlo spends the same 10^4 (or 10^6) trials on a
design point whose failure rate is 46% as on one whose rate is 0.6% —
wildly over-sampling the first and under-sampling the second.
:class:`AdaptivePolicy` says when a point has had enough: once the
confidence interval of its target rate is narrow enough
(:meth:`AdaptivePolicy.satisfied`), or at the ``max_trials`` ceiling.
The campaign of :mod:`repro.reliability.sampling.scheduler` applies it
at every round barrier, to one point (``run_adaptive``) or to a whole
sweep.

Every round extends the *same* counter-hashed trial stream, so a
stopped tally is **byte-identical** to a fixed-trial run of the same
length at the same seed (the prefix property), and the stopping
decision — a pure function of the folded tallies — is identical across
``chunk_size``/``jobs``/backend.

The statistical caveat baked into the design: evaluating a confidence
interval repeatedly and stopping at the first success is *optional
stopping*, which inflates the error rate of naive fixed-n intervals.
Checking at round barriers (a handful of looks, not one per trial)
keeps the inflation small — the standard practical compromise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.reliability.metrics import METRICS, MsedResult
from repro.reliability.sampling.intervals import Interval

__all__ = [
    "AdaptivePolicy",
    "policy_from_cli",
]


@dataclass(frozen=True)
class AdaptivePolicy:
    """When to stop sampling one design point.

    A point stops at the first round barrier where either bound holds
    for the ``metric`` rate's two-sided Wilson ``confidence`` interval:

    * half-width <= ``ci_abs`` (absolute tolerance, skipped when 0), or
    * half-width <= ``ci_target`` x the point estimate (relative
      tolerance, skipped when 0 — and unsatisfiable while the estimate
      is 0, which is exactly right: "0 events" has not resolved the
      rate to any relative precision);

    or unconditionally once ``max_trials`` have been spent (the
    ceiling; the outcome's ``converged`` records which exit won).
    ``initial_trials`` is a point's first round.
    """

    ci_target: float = 0.1
    ci_abs: float = 0.0
    confidence: float = 0.95
    metric: str = "failure"
    initial_trials: int = 1_000
    max_trials: int = 1_000_000

    def __post_init__(self) -> None:
        if self.ci_target < 0 or self.ci_abs < 0:
            raise ValueError("ci_target and ci_abs must be >= 0")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown metric {self.metric!r}; choose from {sorted(METRICS)}"
            )
        if self.initial_trials < 1:
            raise ValueError("initial_trials must be >= 1")
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")

    def interval_of(self, result: MsedResult) -> Interval:
        return result.interval(confidence=self.confidence, metric=self.metric)

    def satisfied(self, result: MsedResult) -> bool:
        """Is ``result``'s target-rate interval tight enough to stop?"""
        if result.trials == 0:
            return False
        half = self.interval_of(result).half_width
        if self.ci_abs > 0 and half <= self.ci_abs:
            return True
        if self.ci_target > 0:
            rate = result.rate(self.metric)
            return rate > 0 and half <= self.ci_target * rate
        return False


def policy_from_cli(
    ci_target: float | None, max_trials: int | None
) -> AdaptivePolicy:
    """An :class:`AdaptivePolicy` from the CLI's optional overrides."""
    overrides = {}
    if ci_target is not None:
        overrides["ci_target"] = ci_target
    if max_trials is not None:
        overrides["max_trials"] = max_trials
    return replace(AdaptivePolicy(), **overrides)
