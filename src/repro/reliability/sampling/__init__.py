"""Adaptive rare-event sampling for the reliability Monte-Carlo.

Four layers over the PR-3 streaming orchestrator:

* :mod:`~repro.reliability.sampling.intervals` — Wilson-score and
  Clopper-Pearson binomial confidence intervals (stdlib-only), the
  error bars every reported rate now carries;
* :mod:`~repro.reliability.sampling.sequential` —
  :class:`AdaptivePolicy`, the stopping rule: a point has had enough
  trials once its target-rate CI is tight enough, or at the trial
  ceiling;
* :mod:`~repro.reliability.sampling.splitting` — importance splitting
  for the silent / miscorrection tails: ``SplittingEstimator(simulator)``
  samples corruption *prefixes* from a plain msed simulator's stream,
  branches the final corrupted symbol over all its values, and folds
  exact per-stratum integer counts into an unbiased, lower-variance
  rate estimate with real error bars even where the plain stream sees
  zero events;
* :mod:`~repro.reliability.sampling.scheduler` —
  :class:`CampaignRunner`, the one adaptive sampler, for a single point
  (``run_adaptive``) or a whole sweep.  Each round it spends the next
  batch of trials on the points furthest from their CI target
  (priority = half-width / goal), honours a campaign-wide trial
  budget, and folds completed cells from the cross-run result cache
  (a zero-event point runs to its trial ceiling) — while
  keeping every allocation a pure function of the folded tallies, so
  ``trials_used`` stays byte-identical across ``(chunk_size, jobs,
  workers)`` and backends.  Every round extends the same trial stream,
  so a stopped tally is byte-identical to a fixed-trial run of the
  same length — the prefix property.
"""

from repro.reliability.sampling.intervals import (
    INTERVAL_KINDS,
    Interval,
    binomial_interval,
    clopper_pearson_interval,
    wilson_interval,
)
from repro.reliability.sampling.sequential import (
    AdaptivePolicy,
    policy_from_cli,
)

# scheduler builds on sequential's policy type; keep it after.
from repro.reliability.sampling.scheduler import (
    CampaignOutcome,
    CampaignPolicy,
    CampaignRunner,
    CampaignScheduler,
)
from repro.reliability.sampling.splitting import (
    DEFAULT_SPLIT_CHUNK_SIZE,
    SplitResult,
    SplitSpec,
    SplitTally,
    SplittingEstimator,
)

__all__ = [
    "AdaptivePolicy",
    "CampaignOutcome",
    "CampaignPolicy",
    "CampaignRunner",
    "CampaignScheduler",
    "DEFAULT_SPLIT_CHUNK_SIZE",
    "INTERVAL_KINDS",
    "Interval",
    "SplitResult",
    "SplitSpec",
    "SplitTally",
    "SplittingEstimator",
    "binomial_interval",
    "clopper_pearson_interval",
    "policy_from_cli",
    "wilson_interval",
]
