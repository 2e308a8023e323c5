"""Adaptive-stopping tests: the stopping rule and ``run_adaptive``.

``run_adaptive`` is the one-point campaign
(:func:`~repro.reliability.monte_carlo.run_design_points_adaptive`),
so these pin its headline contracts:

* **prefix property** — an adaptive run at a fixed seed ends with a
  tally byte-identical to a fixed-trial run of ``trials_used`` trials
  at that seed (the rounds literally extend the same counter-hashed
  stream), at every round barrier;
* **stopping behaviour** — easy cells (common target events) converge
  below the ceiling, hard cells (rare target events) run to it, and a
  point stops at the first barrier where the policy holds;
* **execution-shape invariance** — ``jobs > 1`` folds identically to
  ``jobs = 1``, across chunk sizes and decode backends, including the
  stopping decision itself (``trials_used``).
"""

import pytest

from repro.core.codes import muse_80_69
from repro.engine import available_backends
from repro.orchestrate.worker import CodeRef
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    build_table_iv,
    run_design_points_adaptive,
)
from repro.reliability.sampling.scheduler import CampaignScheduler, PointView
from repro.reliability.sampling.sequential import (
    AdaptivePolicy,
    policy_from_cli,
)
from repro.rs.reed_solomon import rs_144_128



def _muse(backend="auto"):
    return MuseMsedSimulator(
        muse_80_69(),
        backend=backend,
        code_ref=CodeRef("repro.core.codes:muse_80_69"),
    )


def _rs(backend="auto"):
    return RsMsedSimulator(
        rs_144_128(),
        backend=backend,
        code_ref=CodeRef("repro.rs.reed_solomon:rs_144_128"),
    )


#: Easy: MUSE(80,69)'s failure rate is ~15%, so a 30%-relative CI needs
#: only a few hundred trials.  Hard: its *silent* rate is ~0, so no
#: relative tolerance is ever met and the run must hit the ceiling.
EASY = AdaptivePolicy(
    ci_target=0.3, metric="failure", initial_trials=200, max_trials=4_000
)
HARD = AdaptivePolicy(
    ci_target=0.1, metric="silent", initial_trials=200, max_trials=1_500
)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="metric"):
            AdaptivePolicy(metric="typo")
        with pytest.raises(ValueError, match="ci_target"):
            AdaptivePolicy(ci_target=-0.1)
        with pytest.raises(ValueError, match="initial_trials"):
            AdaptivePolicy(initial_trials=0)

    def test_zero_tolerances_never_satisfied(self):
        policy = AdaptivePolicy(ci_target=0.0, ci_abs=0.0)
        result = _muse().run(400, seed=1)
        assert not policy.satisfied(result)

    def test_absolute_tolerance_alone_satisfies(self):
        policy = AdaptivePolicy(ci_target=0.0, ci_abs=0.5, metric="failure")
        assert policy.satisfied(_muse().run(400, seed=1))

    def test_policy_from_cli_overrides(self):
        policy = policy_from_cli(0.2, 5000)
        assert policy.ci_target == 0.2
        assert policy.max_trials == 5000
        assert policy.metric == AdaptivePolicy().metric
        assert policy_from_cli(None, None) == AdaptivePolicy()


def _barriers(simulator, policy, seed):
    """The campaign's round barriers for one point, replayed from the
    scheduler on fixed-run prefixes: ``[(total, satisfied), ...]`` up
    to the first satisfied barrier or the ceiling."""
    scheduler = CampaignScheduler(policy)
    barriers, total, result = [], 0, None
    while True:
        grants = scheduler.allocate([PointView(total, result)])
        if not grants:
            return barriers
        total += grants[0].trials
        result = simulator.run(total, seed=seed)
        barriers.append((total, policy.satisfied(result)))
        if barriers[-1][1]:
            return barriers


class TestStopping:
    def test_easy_cell_stops_under_ceiling(self):
        outcome = _muse().run_adaptive(EASY, seed=2022)
        assert outcome.converged
        assert outcome.trials_used < EASY.max_trials
        assert EASY.satisfied(outcome.result)
        assert outcome.rounds >= 1

    def test_hard_cell_hits_ceiling(self):
        outcome = _muse().run_adaptive(HARD, seed=2022)
        assert not outcome.converged
        assert outcome.trials_used == HARD.max_trials

    def test_stops_at_the_first_satisfied_barrier(self):
        """The stop lands on a round barrier — the first at which the
        policy holds — and every barrier is counted as a round."""
        simulator = _muse()
        outcome = simulator.run_adaptive(EASY, seed=2022)
        barriers = _barriers(simulator, EASY, seed=2022)
        assert [ok for _, ok in barriers] == [False] * (len(barriers) - 1) + [True]
        assert outcome.trials_used == barriers[-1][0]
        assert outcome.rounds == len(barriers)

    def test_describe_mentions_exit(self):
        easy = _muse().run_adaptive(EASY, seed=2022)
        hard = _muse().run_adaptive(HARD, seed=2022)
        assert "converged" in easy.describe()
        assert "ceiling" in hard.describe()

    def test_default_policy(self):
        outcome = _muse().run_adaptive(seed=2022)
        assert outcome.policy == AdaptivePolicy()
        assert outcome.converged

    def test_design_points_stop_independently(self):
        """A grid run spends less on the easy point than the hard one."""
        policy = AdaptivePolicy(
            ci_target=0.25, metric="failure", initial_trials=200,
            max_trials=6_000,
        )
        # rs_144_128 failure ~0.6% needs far more trials than
        # muse_80_69's ~15% at the same relative tolerance.
        outcomes = run_design_points_adaptive([_muse(), _rs()], policy, seed=2022)
        assert outcomes[0].trials_used < outcomes[1].trials_used
        assert outcomes[0] == _muse().run_adaptive(policy, seed=2022)


class TestPrefixProperty:
    """Adaptive reproduces the fixed-trial tally prefix."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("make", (_muse, _rs), ids=("muse", "rs"))
    def test_adaptive_tally_is_fixed_run_prefix(self, make, backend):
        simulator = make(backend)
        outcome = simulator.run_adaptive(EASY, seed=5)
        fixed = simulator.run(outcome.trials_used, seed=5)
        assert outcome.result == fixed  # byte-for-byte, every bucket

    def test_every_round_boundary_is_a_prefix(self):
        """Not just the final tally: stopping at an earlier barrier (via
        a lower ceiling) yields that barrier's fixed-trial tally too."""
        simulator = _muse()
        never = AdaptivePolicy(
            ci_target=0.0,  # never converge: run to the ceiling
            metric="failure",
            initial_trials=EASY.initial_trials,
            max_trials=EASY.max_trials,
        )
        barriers = [total for total, _ in _barriers(simulator, never, seed=5)]
        assert barriers[:4] == [200, 400, 800, 1600]
        for ceiling in barriers[:3] + [1000]:
            policy = AdaptivePolicy(
                ci_target=0.0,
                metric="failure",
                initial_trials=EASY.initial_trials,
                max_trials=ceiling,
            )
            outcome = simulator.run_adaptive(policy, seed=5)
            assert outcome.trials_used == ceiling
            assert outcome.result == simulator.run(ceiling, seed=5)


class TestExecutionShapeInvariance:
    """jobs>1 folds identically to jobs=1, across chunk sizes and
    backends — including the stopping decision."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("make", (_muse, _rs), ids=("muse", "rs"))
    def test_jobs_and_chunking_invariant(self, make, backend):
        simulator = make(backend)
        baseline = simulator.run_adaptive(EASY, seed=7)
        for jobs, chunk_size in ((1, 64), (1, 333), (2, 128), (2, None)):
            outcome = simulator.run_adaptive(
                EASY, seed=7, jobs=jobs, chunk_size=chunk_size
            )
            assert outcome == baseline, (
                f"adaptive outcome diverged at jobs={jobs} "
                f"chunk_size={chunk_size} backend={backend}"
            )

    def test_backends_agree_on_stopping_decision(self):
        backends = available_backends()
        if "numpy" not in backends or "scalar" not in backends:
            pytest.skip("needs both backends")
        outcomes = {
            backend: _muse(backend).run_adaptive(EASY, seed=11)
            for backend in ("scalar", "numpy")
        }
        assert outcomes["scalar"].result == outcomes["numpy"].result
        assert (
            outcomes["scalar"].trials_used == outcomes["numpy"].trials_used
        )


class TestTableIVAdaptive:
    def test_build_table_iv_adaptive_attaches_outcomes(self):
        policy = AdaptivePolicy(
            ci_target=0.5, metric="failure", initial_trials=150,
            max_trials=600,
        )
        table = build_table_iv(seed=3, adaptive=policy)
        assert len(table.points) == 10
        for point in table.points:
            assert point.sampling is not None
            assert point.sampling.policy == policy
            assert point.result.trials <= policy.max_trials
            assert point.result == point.sampling.result

    def test_build_table_iv_adaptive_jobs_invariant(self):
        policy = AdaptivePolicy(
            ci_target=0.5, metric="failure", initial_trials=150,
            max_trials=450,
        )
        serial = build_table_iv(seed=3, adaptive=policy)
        sharded = build_table_iv(
            seed=3, adaptive=policy, jobs=2, chunk_size=100
        )
        assert [p.result for p in sharded.points] == [
            p.result for p in serial.points
        ]
        assert [p.sampling for p in sharded.points] == [
            p.sampling for p in serial.points
        ]
