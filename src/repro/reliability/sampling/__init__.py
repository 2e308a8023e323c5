"""Adaptive sampling for the reliability Monte-Carlo.

Three layers over the streaming orchestrator:

* :mod:`~repro.reliability.sampling.intervals` — Wilson-score and
  Clopper-Pearson binomial confidence intervals (stdlib-only), the
  error bars every reported rate now carries;
* :mod:`~repro.reliability.sampling.sequential` —
  :class:`AdaptivePolicy`, the stopping rule: a point has had enough
  trials once its target-rate CI is tight enough, or at the trial
  ceiling;
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

Each name loads its module on first use
(:func:`repro._lazy.lazy_exports`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".intervals": (
        "INTERVAL_KINDS",
        "Interval",
        "binomial_interval",
        "clopper_pearson_interval",
        "wilson_interval",
    ),
    ".sequential": ("AdaptivePolicy", "policy_from_cli"),
    ".scheduler": (
        "CampaignOutcome",
        "CampaignPolicy",
        "CampaignRunner",
        "CampaignScheduler",
    ),
})

__all__ = [
    "AdaptivePolicy",
    "CampaignOutcome",
    "CampaignPolicy",
    "CampaignRunner",
    "CampaignScheduler",
    "INTERVAL_KINDS",
    "Interval",
    "binomial_interval",
    "clopper_pearson_interval",
    "policy_from_cli",
    "wilson_interval",
]
