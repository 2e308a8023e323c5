"""Bench: adaptive vs fixed-budget Table IV — trials saved, wall-clock.

The acceptance contract this file pins and records:

* at ``ci_target=0.1`` (relative 95% half-width on the failure rate)
  with a 20k ceiling, the adaptive table spends **strictly fewer
  trials than the fixed 10k default on at least half the design
  points** — easy cells stop early, only the rare-tail cells climb to
  the ceiling;
* statistically nothing is lost: on every point the adaptive and the
  fixed MSED estimates agree within 4 standard deviations of their
  difference (:func:`nested_z`), a check that fires by chance on at
  most 6.3e-4 of tables;
* the measured trials-saved and wall-clock go to
  ``benchmarks/BENCH_adaptive.json`` (a CI artifact) so the adaptive
  sampler's efficiency is tracked run over run.
"""

import json
import math
import time
from pathlib import Path

from repro.experiments import table4
from repro.reliability.sampling.sequential import AdaptivePolicy

ARTIFACT = Path(__file__).parent / "BENCH_adaptive.json"

FIXED_TRIALS = 10_000
SEED = 2022
POLICY = AdaptivePolicy(ci_target=0.1, metric="failure", max_trials=20_000)

#: The largest |z| :func:`nested_z` may read.  Under the normal
#: approximation a true agreement exceeds it with probability
#: 2 Phi(-4) = 6.3e-5 per point, at most 6.3e-4 over the 10 points.
Z_BOUND = 4.0


def nested_z(adaptive, fixed) -> float:
    """The difference of two MSED estimates of one point, in standard
    deviations.

    Both tallies are prefixes of the point's one trial stream, so the
    shorter one's trials are the longer one's first trials, and the
    difference of their rates has variance
    ``p (1 - p) |1/n_a - 1/n_f|`` with ``p`` estimated by the longer
    tally.  Equal lengths mean equal tallies, so any difference there
    reads infinite.  The failure rate is ``1 -`` MSED, so this covers
    it too.
    """
    longer = max(adaptive, fixed, key=lambda result: result.trials)
    p = longer.msed_rate
    variance = p * (1 - p) * abs(1 / adaptive.trials - 1 / fixed.trials)
    difference = adaptive.msed_rate - fixed.msed_rate
    if variance == 0:
        return 0.0 if difference == 0 else math.inf
    return difference / math.sqrt(variance)


def test_adaptive_table_iv_saves_trials_without_losing_accuracy():
    table4.build(trials=200, seed=SEED)  # warm caches (searches, engines)

    start = time.perf_counter()
    fixed = table4.build(trials=FIXED_TRIALS, seed=SEED)
    fixed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    adaptive = table4.build(seed=SEED, adaptive=POLICY)
    adaptive_seconds = time.perf_counter() - start

    points = []
    fewer = 0
    for fixed_point, adaptive_point in zip(fixed.points, adaptive.points):
        fixed_result = fixed_point.result
        adaptive_result = adaptive_point.result
        assert adaptive_point.sampling is not None
        # Accuracy: the two estimates agree within their own noise.
        z = nested_z(adaptive_result, fixed_result)
        assert abs(z) < Z_BOUND, (
            f"{fixed_point.family}+{fixed_point.extra_bits}: fixed MSED "
            f"{fixed_result.msed_rate:.4f} over {fixed_result.trials} "
            f"trials vs adaptive {adaptive_result.msed_rate:.4f} over "
            f"{adaptive_result.trials}: z = {z:.2f}"
        )
        failure_ci = adaptive_result.interval(metric="failure")
        fewer += adaptive_result.trials < fixed_result.trials
        points.append(
            {
                "family": fixed_point.family,
                "extra_bits": fixed_point.extra_bits,
                "fixed_trials": fixed_result.trials,
                "adaptive_trials": adaptive_result.trials,
                "converged": adaptive_point.sampling.converged,
                "fixed_msed_percent": round(fixed_result.msed_percent, 2),
                "adaptive_msed_percent": round(adaptive_result.msed_percent, 2),
                "nested_z": round(z, 3),
                "adaptive_failure_ci_95": [
                    round(failure_ci.lo, 6),
                    round(failure_ci.hi, 6),
                ],
            }
        )

    # Efficiency: at least half the points stop strictly below the
    # fixed budget (the rest are rare-tail cells that climb to the
    # ceiling — that extra spend is the sampler doing its job).
    assert fewer >= len(fixed.points) / 2, (
        f"only {fewer}/{len(fixed.points)} design points beat the fixed "
        f"{FIXED_TRIALS}-trial budget"
    )

    fixed_total = sum(p.result.trials for p in fixed.points)
    adaptive_total = sum(p.result.trials for p in adaptive.points)
    ARTIFACT.write_text(
        json.dumps(
            {
                "experiment": "table4-adaptive",
                "seed": SEED,
                "fixed_trials_per_point": FIXED_TRIALS,
                "policy": {
                    "ci_target": POLICY.ci_target,
                    "metric": POLICY.metric,
                    "confidence": POLICY.confidence,
                    "kind": "wilson",
                    "initial_trials": POLICY.initial_trials,
                    "max_trials": POLICY.max_trials,
                },
                "fixed_total_trials": fixed_total,
                "adaptive_total_trials": adaptive_total,
                "points_below_fixed_budget": fewer,
                "fixed_seconds": round(fixed_seconds, 4),
                "adaptive_seconds": round(adaptive_seconds, 4),
                "points": points,
            },
            indent=2,
        )
        + "\n"
    )
