"""Campaign-scheduler tests: fleet-wide budget allocation contracts.

* **pure allocator** — priorities, 1/sqrt(n) projections, doubling
  caps, and greedy budget draining are a pure function of the folded
  tallies (unit-tested on hand-built views, no simulation);
* **execution-shape invariance** — a campaign's per-point
  ``trials_used`` and tallies are byte-identical across
  ``(chunk_size, jobs, workers)`` and backends at a fixed seed,
  including through a 2-worker loopback :class:`DistributedSession`;
* **budget** — a campaign-wide ``trial_budget`` is honoured exactly
  and reported as "budget exhausted" on the points it starves;
* **zero-event points** — a point whose stream sees no events runs
  to its trial ceiling;
* **result cache** — a warm re-run folds every cell from disk with
  zero new trials and byte-identical outcomes.
"""

import pytest

from repro.core.codes import muse_80_69
from repro.engine import available_backends
from repro.orchestrate.worker import CodeRef
from repro.reliability.metrics import MsedTally
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    run_design_points_adaptive,
)
from repro.reliability.sampling.scheduler import (
    CampaignPolicy,
    CampaignRunner,
    CampaignScheduler,
    PointView,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
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


#: muse_80_69's failure rate is ~15% — a loose relative CI converges in
#: a few hundred trials; rs_144_128's ~0.6% takes noticeably more, so a
#: two-point campaign exercises real priority contrast.
EASY = AdaptivePolicy(
    ci_target=0.3, metric="failure", initial_trials=200, max_trials=4_000
)


def _view(counts: int, trials: int) -> PointView:
    """A point that has seen ``counts`` failure events in ``trials``."""
    tally = MsedTally()
    tally.record_counts(
        miscorrected=counts, detected_no_match=trials - counts
    )
    return PointView(trials=trials, result=tally.freeze())


class TestCampaignPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="trial_budget"):
            CampaignPolicy(trial_budget=0)

    def test_defaults_wrap_base_policy(self):
        policy = CampaignPolicy(base=EASY)
        assert policy.base == EASY
        assert policy.trial_budget is None


class TestScheduler:
    """The allocator is a pure function of the folded tallies."""

    def setup_method(self):
        self.scheduler = CampaignScheduler(CampaignPolicy(base=EASY))

    def test_unexplored_point_bootstraps_at_initial_trials(self):
        view = PointView(trials=0, result=None)
        assert self.scheduler.priority(view) == float("inf")
        assert self.scheduler.desired_total(view) == EASY.initial_trials

    def test_satisfied_point_requests_nothing(self):
        # 3000 events in 20000 trials: half-width ~0.005 << 0.3*0.15.
        view = _view(3000, 20_000)
        assert self.scheduler.desired_total(view) == view.trials
        assert self.scheduler.allocate([view]) == []

    def test_priority_orders_hungrier_points_first(self):
        hungry = _view(3, 200)  # wide CI relative to its tiny rate
        nearly = _view(20, 300)  # unsatisfied, but much closer
        allocations = self.scheduler.allocate([nearly, hungry])
        assert [alloc.index for alloc in allocations] == [1, 0]
        assert allocations[0].priority > allocations[1].priority

    def test_round_grant_never_more_than_doubles(self):
        view = _view(1, 1_000)  # projection wants far more than 2x
        (alloc,) = self.scheduler.allocate([view])
        assert alloc.trials <= max(EASY.initial_trials, view.trials)

    def test_ceiling_caps_projection(self):
        view = _view(1, 3_900)  # wants more, but max_trials = 4000
        assert self.scheduler.desired_total(view) <= EASY.max_trials
        (alloc,) = self.scheduler.allocate([view])
        assert view.trials + alloc.trials <= EASY.max_trials

    def test_inactive_points_are_skipped(self):
        view = PointView(trials=0, result=None, active=False)
        assert self.scheduler.allocate([view]) == []

    def test_budget_drains_greedily_and_truncates_last_grant(self):
        views = [PointView(trials=0, result=None) for _ in range(3)]
        allocations = self.scheduler.allocate(views, budget_left=450)
        assert sum(alloc.trials for alloc in allocations) == 450
        # initial_trials=200 each: full, full, truncated to 50, by index
        assert [alloc.trials for alloc in allocations] == [200, 200, 50]
        assert [alloc.index for alloc in allocations] == [0, 1, 2]

    def test_zero_budget_allocates_nothing(self):
        views = [PointView(trials=0, result=None)]
        assert self.scheduler.allocate(views, budget_left=0) == []

    def test_allocation_is_deterministic(self):
        views = [_view(3, 200), _view(300, 2_000), PointView(0, None)]
        first = self.scheduler.allocate(views, budget_left=1_000)
        second = self.scheduler.allocate(views, budget_left=1_000)
        assert first == second


class TestExecutionShapeInvariance:
    """Tentpole contract: allocation is a pure function of folds, so
    ``trials_used`` and tallies match across every execution shape."""

    def test_jobs_and_chunking_invariant(self):
        runner = CampaignRunner(CampaignPolicy(base=EASY))
        simulators = [_muse(), _rs()]
        baseline = runner.run(simulators, seed=7)
        for jobs, chunk_size in ((1, 64), (1, 333), (2, 128), (2, None)):
            outcomes = runner.run(
                simulators, seed=7, jobs=jobs, chunk_size=chunk_size
            )
            assert outcomes == baseline, (
                f"campaign diverged at jobs={jobs} chunk_size={chunk_size}"
            )

    @pytest.mark.parametrize("backend", available_backends())
    def test_backends_agree(self, backend):
        runner = CampaignRunner(CampaignPolicy(base=EASY))
        auto = runner.run([_muse(), _rs()], seed=9)
        explicit = runner.run([_muse(backend), _rs(backend)], seed=9)
        assert [o.result for o in explicit] == [o.result for o in auto]
        assert [o.trials_used for o in explicit] == [
            o.trials_used for o in auto
        ]

    def test_two_worker_loopback_matches_in_process(self):
        from repro.distribute import DistributedSession

        policy = CampaignPolicy(base=EASY)
        serial = CampaignRunner(policy).run([_muse(), _rs()], seed=7)
        with DistributedSession(local_workers=2) as session:
            distributed = CampaignRunner(policy).run(
                [_muse(), _rs()], seed=7, chunk_size=500, executor=session
            )
        assert distributed == serial


class TestProgress:
    """``progress(done, total)`` counts a campaign's computed chunks on
    every execution path: once per chunk, each round ending once at
    done == total."""

    @staticmethod
    def _calls(**kwargs):
        calls = []
        run_design_points_adaptive(
            [_muse(), _rs()], EASY, seed=7, chunk_size=100,
            progress=lambda done, total: calls.append((done, total)),
            **kwargs,
        )
        return calls

    def test_in_process_campaign_reports_every_chunk(self):
        calls = self._calls()
        assert [done for done, _ in calls] == list(range(1, len(calls) + 1))
        assert all(done <= total for done, total in calls)
        # Every round closes at done == total, and no call repeats.
        closes = [done for done, total in calls if done == total]
        assert len(closes) >= 2
        assert closes[-1] == calls[-1][0] == calls[-1][1]

    def test_in_process_matches_pool_and_cache_paths(self, tmp_path):
        """The pool, result-cache and ``local:2`` fleet paths report
        the in-process calls, call for call."""
        from repro.distribute import DistributedSession

        calls = self._calls()
        assert self._calls(jobs=2) == calls
        assert self._calls(cache_dir=str(tmp_path)) == calls
        with DistributedSession(local_workers=2) as session:
            assert self._calls(executor=session) == calls


class TestBudget:
    def test_budget_is_honoured_exactly_when_it_starves_the_sweep(self):
        policy = CampaignPolicy(base=EASY, trial_budget=500)
        outcomes = CampaignRunner(policy).run([_muse(), _rs()], seed=7)
        assert sum(o.trials_used for o in outcomes) == 500
        starved = [o for o in outcomes if not o.converged]
        assert starved
        for outcome in starved:
            assert outcome.trials_used < outcome.policy.max_trials
            assert "budget exhausted" in outcome.describe()

    def test_ample_budget_changes_nothing(self):
        unbounded = CampaignRunner(CampaignPolicy(base=EASY)).run(
            [_muse(), _rs()], seed=7
        )
        spent = sum(o.trials_used for o in unbounded)
        bounded = CampaignRunner(
            CampaignPolicy(base=EASY, trial_budget=spent)
        ).run([_muse(), _rs()], seed=7)
        assert [o.result for o in bounded] == [o.result for o in unbounded]
        assert [o.converged for o in bounded] == [
            o.converged for o in unbounded
        ]

    def test_trial_budget_kwarg_threads_through_runner_api(self):
        outcomes = run_design_points_adaptive(
            [_muse(), _rs()], EASY, seed=7, trial_budget=500
        )
        assert sum(o.trials_used for o in outcomes) == 500


class TestEscalation:
    #: muse_80_69's *silent* rate is ~0: the plain stream sees no
    #: events, so this policy runs to the ceiling.
    ZERO_EVENT = AdaptivePolicy(
        ci_target=0.1, metric="silent", initial_trials=200, max_trials=4_000
    )

    def test_without_escalation_the_point_runs_to_the_ceiling(self):
        policy = CampaignPolicy(base=self.ZERO_EVENT)
        (outcome,) = CampaignRunner(policy).run([_muse()], seed=7)
        assert outcome.trials_used == self.ZERO_EVENT.max_trials

    def test_zero_event_point_reports_its_interval_at_the_ceiling(self):
        """No events and no convergence: the outcome says it hit the
        ceiling and carries the policy's own interval there, a
        positive upper bound rather than a point estimate of 0."""
        policy = CampaignPolicy(base=self.ZERO_EVENT)
        (outcome,) = CampaignRunner(policy).run([_muse()], seed=7)
        assert outcome.result.count("silent") == 0
        assert not outcome.converged
        assert outcome.describe().startswith(
            f"hit trial ceiling after {self.ZERO_EVENT.max_trials} trials"
        )
        interval = outcome.interval()
        assert interval == self.ZERO_EVENT.interval_of(outcome.result)
        assert interval.lo == 0.0
        assert 0.0 < interval.hi < 1.0


class TestResultCache:
    def test_warm_rerun_executes_zero_new_trials(self, tmp_path):
        from repro.distribute import ResultCache

        simulators = [_muse(), _rs()]
        cold = run_design_points_adaptive(
            simulators, EASY, seed=7, cache_dir=str(tmp_path)
        )
        assert all(o.trials_cached == 0 for o in cold)

        warm = run_design_points_adaptive(
            simulators, EASY, seed=7, cache_dir=str(tmp_path)
        )
        assert [o.result for o in warm] == [o.result for o in cold]
        assert [o.trials_used for o in warm] == [
            o.trials_used for o in cold
        ]
        for outcome in warm:
            assert outcome.trials_cached == outcome.trials_used

        # And the cache itself confirms: the warm run recorded nothing.
        probe = ResultCache(tmp_path)
        runner = CampaignRunner(CampaignPolicy(base=EASY), cache=probe)
        runner.run(simulators, seed=7)
        assert probe.trials_recorded == 0
        assert probe.hits > 0 and probe.misses == 0

    def test_warm_campaign_counts_cached_trials_alike_on_every_path(
        self, tmp_path
    ):
        """``trials_cached`` counts what the cache served, the same in
        process, on a pool and on a ``local:2`` fleet."""
        import shutil

        from repro.distribute import DistributedSession

        simulators = [_muse(), _rs()]
        cold = tmp_path / "cold"
        run_design_points_adaptive(
            simulators, EASY, seed=7, trial_budget=1500, cache_dir=str(cold)
        )

        def warm(name, **kwargs):
            directory = tmp_path / name
            shutil.copytree(cold, directory)
            outcomes = run_design_points_adaptive(
                simulators, EASY, seed=7, cache_dir=str(directory), **kwargs
            )
            return [
                (o.result, o.trials_used, o.trials_cached) for o in outcomes
            ]

        in_process = warm("in-process")
        (_, muse_used, muse_cached), (_, rs_used, rs_cached) = in_process
        assert muse_cached == muse_used  # converged inside the budget
        assert 0 < rs_cached < rs_used  # the cold run's prefix, no more
        assert warm("pool", jobs=2) == in_process
        with DistributedSession(local_workers=2) as session:
            assert warm("fleet", executor=session) == in_process

    def test_cache_hit_equals_recompute(self, tmp_path):
        baseline = run_design_points_adaptive([_muse()], EASY, seed=7)
        run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        cached = run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        assert [o.result for o in cached] == [o.result for o in baseline]

    def test_budget_counts_cached_trials(self, tmp_path):
        """Allocation must not depend on cache state: a warm run under
        the same budget makes the same grants (served from disk)."""
        policy = CampaignPolicy(base=EASY, trial_budget=500)
        cold = CampaignRunner(
            policy, cache=_fresh_cache(tmp_path)
        ).run([_muse(), _rs()], seed=7)
        warm = CampaignRunner(
            policy, cache=_fresh_cache(tmp_path)
        ).run([_muse(), _rs()], seed=7)
        assert [o.result for o in warm] == [o.result for o in cold]
        assert sum(o.trials_used for o in warm) == 500
        assert sum(o.trials_cached for o in warm) == 500

    def test_cache_survives_chunk_size_changes_via_allocation_history(
        self, tmp_path
    ):
        """Chunk boundaries derive from the allocation history, which
        is chunk_size-independent only at the default — a different
        chunk_size re-plans boundaries but must still agree on
        results (misses just recompute)."""
        cold = run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        other = run_design_points_adaptive(
            [_muse()], EASY, seed=7, chunk_size=77, cache_dir=str(tmp_path)
        )
        assert [o.result for o in other] == [o.result for o in cold]

    def test_torn_cache_tail_keeps_valid_prefix(self, tmp_path):
        from repro.distribute import ResultCache

        run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        (cell,) = tmp_path.glob("*.jsonl")
        cell.write_bytes(cell.read_bytes()[:-7])  # tear the last record
        probe = ResultCache(tmp_path)
        outcomes = run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        baseline = run_design_points_adaptive([_muse()], EASY, seed=7)
        assert [o.result for o in outcomes] == [
            o.result for o in baseline
        ]
        del probe

    def test_foreign_cell_file_is_left_alone(self, tmp_path):
        from repro.distribute import ResultCache

        run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        (cell,) = tmp_path.glob("*.jsonl")
        cell.write_bytes(b'{"something": "else"}\n')
        probe = ResultCache(tmp_path)
        outcomes = run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        baseline = run_design_points_adaptive([_muse()], EASY, seed=7)
        assert [o.result for o in outcomes] == [
            o.result for o in baseline
        ]
        # The foreign bytes were never appended onto.
        assert cell.read_bytes() == b'{"something": "else"}\n'
        del probe


def _fresh_cache(tmp_path):
    from repro.distribute import ResultCache

    return ResultCache(tmp_path)


class TestCampaignOutcome:
    def test_duck_types_adaptive_outcome(self):
        (outcome,) = CampaignRunner(CampaignPolicy(base=EASY)).run(
            [_muse()], seed=7
        )
        assert outcome.policy == EASY
        assert outcome.trials_used == outcome.result.trials
        assert outcome.interval() == EASY.interval_of(outcome.result)
        assert "converged" in outcome.describe()

    def test_describe_mentions_cached_trials(self, tmp_path):
        run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        (warm,) = run_design_points_adaptive(
            [_muse()], EASY, seed=7, cache_dir=str(tmp_path)
        )
        assert "cached" in warm.describe()
