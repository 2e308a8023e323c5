"""Reliability evaluation: the Table IV Monte-Carlo machinery.

* :class:`MuseMsedSimulator` / :class:`RsMsedSimulator` — k-symbol
  error injection and outcome classification for each code family.
* :func:`build_table_iv` — the full MUSE-vs-RS design-point sweep,
  fixed-budget or adaptive.
* :class:`MsedResult` — detected / miscorrected / silent accounting,
  every rate with a Wilson / Clopper-Pearson interval.
* :mod:`~repro.reliability.sampling` — adaptive sampling (the
  :class:`AdaptivePolicy` stopping rule, applied by one campaign
  scheduler to a single point or a whole sweep) and importance
  splitting for the silent / miscorrection tails
  (:class:`SplittingEstimator` over a plain msed simulator).

Each name loads its module on first use
(:func:`repro._lazy.lazy_exports`): a fixed-budget run never loads the
campaign scheduler or the splitting estimator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".analytic": ("AnalyticMsed", "predict", "predict_table_iv_muse_row"),
    ".metrics": ("DesignPoint", "MsedResult", "MsedTally", "TableIV"),
    ".monte_carlo": (
        "MuseMsedSimulator",
        "RsMsedSimulator",
        "build_table_iv",
        "largest_144_multiplier",
        "muse_design_point",
        "rs_design_point",
        "run_design_points",
        "run_design_points_adaptive",
        "run_design_points_with_outcomes",
    ),
    ".sampling": (
        "AdaptivePolicy",
        "Interval",
        "SplitResult",
        "SplittingEstimator",
        "binomial_interval",
        "clopper_pearson_interval",
        "wilson_interval",
    ),
})

__all__ = [
    "AdaptivePolicy",
    "AnalyticMsed",
    "DesignPoint",
    "Interval",
    "MsedResult",
    "MsedTally",
    "MuseMsedSimulator",
    "RsMsedSimulator",
    "SplitResult",
    "SplittingEstimator",
    "TableIV",
    "binomial_interval",
    "build_table_iv",
    "clopper_pearson_interval",
    "largest_144_multiplier",
    "muse_design_point",
    "predict",
    "predict_table_iv_muse_row",
    "rs_design_point",
    "run_design_points",
    "run_design_points_adaptive",
    "run_design_points_with_outcomes",
    "wilson_interval",
]
