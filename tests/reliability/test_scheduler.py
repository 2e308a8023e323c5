"""Campaign-scheduler tests: per-point allocation contracts.

* **pure allocator** — 1/sqrt(n) projections and doubling caps are a
  pure function of each point's folded tally (unit-tested on hand-built
  views, no simulation);
* **execution-shape invariance** — a campaign's per-point
  ``trials_used`` and tallies are byte-identical across
  ``(chunk_size, jobs, workers)`` and backends at a fixed seed,
  including through a 2-worker loopback :class:`DistributedSession`;
* **zero-event points** — a point whose stream sees no events runs
  to its trial ceiling, at any relative target;
* **result cache** — a warm re-run folds every cell from disk with
  zero new trials and byte-identical outcomes.
"""

from dataclasses import replace

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
#: two-point campaign runs its points for different numbers of rounds.
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


class TestScheduler:
    """The allocator is a pure function of the folded tallies."""

    def setup_method(self):
        self.scheduler = CampaignScheduler(EASY)

    def test_unexplored_point_bootstraps_at_initial_trials(self):
        view = PointView(trials=0, result=None)
        assert self.scheduler.desired_total(view) == EASY.initial_trials

    def test_satisfied_point_requests_nothing(self):
        # 3000 events in 20000 trials: half-width ~0.005 << 0.3*0.15.
        view = _view(3000, 20_000)
        assert self.scheduler.desired_total(view) == view.trials
        assert self.scheduler.allocate([view]) == []

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

    def test_allocations_follow_point_order(self):
        """No priority sort: grants come back in point order, however
        far each point is from its goal."""
        hungry = _view(3, 200)  # wide CI relative to its tiny rate
        nearly = _view(20, 300)  # unsatisfied, but much closer
        allocations = self.scheduler.allocate([nearly, hungry])
        assert [alloc.index for alloc in allocations] == [0, 1]

    def test_grant_depends_only_on_its_own_tally(self):
        views = [
            _view(3, 200), _view(300, 2_000), PointView(0, None),
            _view(20, 300), _view(1, EASY.max_trials),
        ]
        together = {
            alloc.index: alloc for alloc in self.scheduler.allocate(views)
        }
        for index, view in enumerate(views):
            alone = self.scheduler.allocate([view])
            if index not in together:
                assert alone == []
                continue
            (single,) = alone
            assert replace(single, index=index) == together[index]

    def test_unexplored_points_each_bootstrap_at_initial_trials(self):
        views = [PointView(trials=0, result=None) for _ in range(3)]
        allocations = self.scheduler.allocate(views)
        assert [(alloc.index, alloc.trials) for alloc in allocations] == [
            (0, EASY.initial_trials),
            (1, EASY.initial_trials),
            (2, EASY.initial_trials),
        ]
        # No tally yet: the a-priori binomial half-width.
        assert {alloc.half_width for alloc in allocations} == {0.5}

    def test_point_at_the_ceiling_gets_no_grant(self):
        view = _view(1, EASY.max_trials)  # unsatisfied, but out of trials
        assert not EASY.satisfied(view.result)
        assert self.scheduler.allocate([view]) == []

    @pytest.mark.parametrize("ci_target", [0.1, 0.38, 0.5, 0.9])
    def test_zero_event_point_has_no_relative_goal(self, ci_target):
        """0 events give no rate to be relative to, so the point
        projects to the ceiling at any relative target; a goal of
        ``ci_target`` x the interval's upper end would stop it after
        one round as soon as that product passes the zero-event
        half-width (``hi / 2``)."""
        policy = replace(EASY, ci_target=ci_target)
        scheduler = CampaignScheduler(policy)
        view = _view(0, 400)
        assert scheduler.goal_half_width(view.result) == 0.0
        assert scheduler.desired_total(view) == policy.max_trials
        (alloc,) = scheduler.allocate([view])
        assert alloc.trials == view.trials  # doubling, the per-round cap

    def test_absolute_tolerance_gives_a_zero_event_point_a_goal(self):
        policy = replace(EASY, ci_abs=0.01)
        scheduler = CampaignScheduler(policy)
        view = _view(0, 100)  # Wilson half-width ~0.018 > 0.01
        assert scheduler.goal_half_width(view.result) == 0.01
        assert view.trials < scheduler.desired_total(view) < policy.max_trials
        satisfied = _view(0, 1_000)  # half-width ~0.0019 <= 0.01
        assert scheduler.allocate([satisfied]) == []

    def test_allocation_is_deterministic(self):
        views = [_view(3, 200), _view(300, 2_000), PointView(0, None)]
        first = self.scheduler.allocate(views)
        second = self.scheduler.allocate(views)
        assert first == second


class TestExecutionShapeInvariance:
    """Tentpole contract: allocation is a pure function of folds, so
    ``trials_used`` and tallies match across every execution shape."""

    def test_jobs_and_chunking_invariant(self):
        runner = CampaignRunner(EASY)
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
        runner = CampaignRunner(EASY)
        auto = runner.run([_muse(), _rs()], seed=9)
        explicit = runner.run([_muse(backend), _rs(backend)], seed=9)
        assert [o.result for o in explicit] == [o.result for o in auto]
        assert [o.trials_used for o in explicit] == [
            o.trials_used for o in auto
        ]

    def test_two_worker_loopback_matches_in_process(self):
        from repro.distribute import DistributedSession

        serial = CampaignRunner(EASY).run([_muse(), _rs()], seed=7)
        with DistributedSession(local_workers=2) as session:
            distributed = CampaignRunner(EASY).run(
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


class TestEscalation:
    @staticmethod
    def zero_event(ci_target: float) -> AdaptivePolicy:
        """muse_80_69's *silent* rate is ~0: the plain stream sees no
        events, so this policy runs to the ceiling — whatever its
        relative target, since 0 events set no relative goal."""
        return AdaptivePolicy(
            ci_target=ci_target, metric="silent", initial_trials=200,
            max_trials=4_000,
        )

    @pytest.mark.parametrize("ci_target", [0.1, 0.5])
    def test_without_escalation_the_point_runs_to_the_ceiling(
        self, ci_target
    ):
        policy = self.zero_event(ci_target)
        (outcome,) = CampaignRunner(policy).run([_muse()], seed=7)
        assert outcome.trials_used == policy.max_trials

    @pytest.mark.parametrize("ci_target", [0.1, 0.5])
    def test_zero_event_point_reports_its_interval_at_the_ceiling(
        self, ci_target
    ):
        """No events and no convergence: the outcome says it hit the
        ceiling and carries the policy's own interval there, a
        positive upper bound rather than a point estimate of 0."""
        policy = self.zero_event(ci_target)
        (outcome,) = CampaignRunner(policy).run([_muse()], seed=7)
        assert outcome.result.count("silent") == 0
        assert not outcome.converged
        assert outcome.describe().startswith(
            f"hit trial ceiling after {policy.max_trials} trials"
        )
        interval = outcome.interval()
        assert interval == policy.interval_of(outcome.result)
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
        runner = CampaignRunner(EASY, cache=probe)
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
        # A lower ceiling stops the cold run partway through RS's
        # stream; its last round is cut short of EASY's grant.
        run_design_points_adaptive(
            simulators, replace(EASY, max_trials=1_500), seed=7,
            cache_dir=str(cold),
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
        assert muse_cached == muse_used  # converged inside the cold run
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


class TestPointIndependence:
    def test_a_point_runs_alike_alone_and_in_a_sweep(self):
        """With no campaign-wide budget, the other points of a sweep
        cannot move a point's rounds, grants or tally."""
        swept, _ = CampaignRunner(EASY).run([_muse(), _rs()], seed=7)
        (alone,) = CampaignRunner(EASY).run([_muse()], seed=7)
        assert swept == alone


class TestCampaignOutcome:
    def test_duck_types_adaptive_outcome(self):
        (outcome,) = CampaignRunner(EASY).run(
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
