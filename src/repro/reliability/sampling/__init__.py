"""Adaptive sampling for the reliability Monte-Carlo.

Three layers over the streaming orchestrator:

* :mod:`~repro.reliability.sampling.intervals` — the Wilson-score
  binomial confidence interval (stdlib-only), the error bar every
  reported rate carries;
* :mod:`~repro.reliability.sampling.sequential` —
  :class:`AdaptivePolicy`, the stopping rule: a point has had enough
  trials once its target-rate CI is tight enough, or at the trial
  ceiling;
* :mod:`~repro.reliability.sampling.scheduler` —
  :class:`CampaignRunner`, the one adaptive sampler, for a single point
  (``run_adaptive``) or a whole sweep.  Each round grants every
  unfinished point the trials projected to close its CI gap (at most a
  doubling), and folds completed cells from the cross-run result cache
  (a zero-event point runs to its trial ceiling) — while keeping every
  allocation a pure function of the point's own folded tally, so
  ``trials_used`` stays byte-identical across ``(chunk_size, jobs,
  workers)`` and backends.  Every round extends the same trial stream,
  so a stopped tally is byte-identical to a fixed-trial run of the
  same length — the prefix property.

Each name loads its module on first use
(:func:`repro._lazy.lazy_exports`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".intervals": ("Interval", "wilson_interval"),
    ".sequential": ("AdaptivePolicy", "policy_from_cli"),
    ".scheduler": (
        "CampaignOutcome",
        "CampaignRunner",
        "CampaignScheduler",
    ),
})

__all__ = [
    "AdaptivePolicy",
    "CampaignOutcome",
    "CampaignRunner",
    "CampaignScheduler",
    "Interval",
    "policy_from_cli",
    "wilson_interval",
]
