"""Bench: campaign scheduler vs uniform per-point adaptive sampling.

The headline number of the campaign scheduler: on the real 10-point
Table-IV grid, reaching the *same* CI target on every point costs
noticeably fewer total trials than uniform per-point sampling, which
checks each point at geometric looks (100, 201, 403, ... doubling) and
stops it at the first look that meets the target — overshooting its
true requirement by up to 2x — while the campaign's 1/sqrt(n)
projection lands each point near it.  This file pins that claim
(>= 25% fewer trials, all points converged on both sides), the
loopback byte-identity of the campaign, and the result cache's
zero-recompute guarantee, and writes ``benchmarks/BENCH_scheduler.json``.
"""

import time
from pathlib import Path

from artifacts import merge_artifact
from repro.engine import resolve_backend
from repro.orchestrate.worker import CodeRef
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    muse_design_point,
    rs_design_point,
    run_design_points_adaptive,
)
from repro.reliability.sampling.sequential import AdaptivePolicy

ARTIFACT = Path(__file__).parent / "BENCH_scheduler.json"

SEED = 2022

#: The stopping rule both samplers must reach on every one of the 10
#: grid points.  initial_trials=100 makes the uniform sampler's
#: geometric looks coarse enough that its overshoot is visible; the
#: campaign re-projects each round and lands near the true requirement
#: instead.
POLICY = AdaptivePolicy(
    ci_target=0.2, metric="failure", initial_trials=100, max_trials=40_000
)


def _uniform_trials(simulator) -> int | None:
    """Trials uniform per-point sampling spends on ``simulator``: its
    first look — 100, 201, 403, ... (doubling) up to the ceiling — at
    which the tally meets POLICY, or None if none does.  A look's tally
    is the fixed run of that length: every look extends one stream."""
    look = POLICY.initial_trials
    while True:
        look = min(look, POLICY.max_trials)
        if POLICY.satisfied(simulator.run(look, seed=SEED)):
            return look
        if look == POLICY.max_trials:
            return None
        look = 2 * look + 1


def _table_iv_simulators():
    """The same 10 design points ``build_table_iv`` runs."""
    self_mod = "repro.reliability.monte_carlo"
    simulators = []
    for extra_bits in range(0, 6):
        simulators.append(
            MuseMsedSimulator(
                muse_design_point(extra_bits),
                code_ref=CodeRef(f"{self_mod}:muse_design_point", (extra_bits,)),
            )
        )
    for extra_bits in (0, 2, 4, 6):
        simulators.append(
            RsMsedSimulator(
                rs_design_point(extra_bits),
                code_ref=CodeRef(f"{self_mod}:rs_design_point", (extra_bits,)),
            )
        )
    return simulators


def test_campaign_beats_uniform_adaptive_by_a_quarter():
    simulators = _table_iv_simulators()

    start = time.perf_counter()
    uniform = [_uniform_trials(simulator) for simulator in simulators]
    uniform_seconds = time.perf_counter() - start

    start = time.perf_counter()
    campaign = run_design_points_adaptive(simulators, POLICY, seed=SEED)
    campaign_seconds = time.perf_counter() - start

    # Same target, met everywhere, on both sides.
    assert None not in uniform
    assert all(o.converged for o in campaign)
    for outcome in campaign:
        assert POLICY.satisfied(outcome.result)

    uniform_trials = sum(uniform)
    campaign_trials = sum(o.trials_used for o in campaign)
    savings = 1.0 - campaign_trials / uniform_trials
    assert savings >= 0.25, (
        f"campaign spent {campaign_trials} trials vs uniform "
        f"{uniform_trials} — only {savings:.1%} saved, expected >= 25%"
    )

    merge_artifact(
        ARTIFACT,
        {
            "experiment": "table4-campaign-vs-uniform",
            "seed": SEED,
            "backend": resolve_backend("auto"),
            "policy": {
                "ci_target": POLICY.ci_target,
                "metric": POLICY.metric,
                "initial_trials": POLICY.initial_trials,
                "max_trials": POLICY.max_trials,
            },
            "uniform_trials": uniform_trials,
            "campaign_trials": campaign_trials,
            "trials_saved_fraction": round(savings, 4),
            "uniform_seconds": round(uniform_seconds, 4),
            "campaign_seconds": round(campaign_seconds, 4),
            "uniform_trials_per_point": uniform,
            "campaign_trials_per_point": [o.trials_used for o in campaign],
            "note": (
                "both samplers reach the same CI target on all 10 "
                "Table-IV points; the campaign's 1/sqrt(n) projection "
                "avoids the geometric looks' overshoot"
            ),
        },
    )


def test_campaign_loopback_matches_in_process():
    """Acceptance: trials_used and tallies are byte-identical between
    jobs=1 and a 2-worker loopback session at the same seed."""
    from repro.distribute import DistributedSession

    simulators = _table_iv_simulators()
    policy = AdaptivePolicy(
        ci_target=0.3, metric="failure", initial_trials=100, max_trials=4_000
    )
    serial = run_design_points_adaptive(simulators, policy, seed=SEED)
    with DistributedSession(local_workers=2) as session:
        distributed = run_design_points_adaptive(
            simulators, policy, seed=SEED, chunk_size=500, executor=session
        )
    assert [o.trials_used for o in distributed] == [
        o.trials_used for o in serial
    ]
    assert [o.result for o in distributed] == [o.result for o in serial]

    merge_artifact(
        ARTIFACT,
        {
            "loopback_parity": {
                "workers": 2,
                "chunk_size": 500,
                "points": len(simulators),
                "trials_per_point": [o.trials_used for o in serial],
                "byte_identical": True,
            }
        },
    )


def test_campaign_cache_rerun_executes_zero_trials(tmp_path):
    """Acceptance: a re-run of a completed cell folds entirely from the
    fingerprint-keyed cache — zero new trials recorded."""
    from repro.distribute import ResultCache
    from repro.reliability.sampling.scheduler import CampaignRunner

    simulators = _table_iv_simulators()
    policy = AdaptivePolicy(
        ci_target=0.3, metric="failure", initial_trials=100, max_trials=4_000
    )
    cold = run_design_points_adaptive(
        simulators, policy, seed=SEED, cache_dir=str(tmp_path)
    )
    probe = ResultCache(tmp_path)
    warm = CampaignRunner(policy, cache=probe).run(simulators, seed=SEED)
    assert [o.result for o in warm] == [o.result for o in cold]
    assert probe.trials_recorded == 0
    assert probe.misses == 0
    assert all(o.trials_cached == o.trials_used for o in warm)

    merge_artifact(
        ARTIFACT,
        {
            "cache_rerun": {
                "points": len(simulators),
                "trials_served": probe.trials_served,
                "trials_recorded": probe.trials_recorded,
                "hits": probe.hits,
                "misses": probe.misses,
            }
        },
    )
