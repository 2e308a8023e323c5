"""Campaign scheduling: the one adaptive sampler of the Monte-Carlo.

A campaign runs one design point (``run_adaptive``) or a whole sweep
(``--adaptive``) until every point meets its
:class:`AdaptivePolicy` stopping rule.  Instead of growing each point
on a fixed look schedule, which overshoots a point's true requirement
and tells its neighbours nothing, each round looks at the folded
tallies of **all** points and spends the next batch of trials where
they shrink confidence intervals fastest:

* the *priority* of a point is ``half_width / goal_half_width`` — how
  far its current interval is from the stopping rule of the base
  :class:`AdaptivePolicy` (largest first, bandit-style);
* the *allocation* for a point is the projected number of trials that
  closes the gap (binomial half-widths shrink like ``1/sqrt(n)``, so
  ``n_goal ≈ n · (half/goal)² · SAFETY``), capped per round at a
  doubling so noisy early projections are re-examined at the next
  barrier;
* a per-campaign ``trial_budget`` is drained greedily in priority
  order, so a fixed fleet spends a fixed budget where it buys the most
  certainty;
* a point whose stream sees zero events runs to ``max_trials`` and
  reports its interval there.

Determinism contract (same as every other runner in this repo): the
allocation is a **pure function of the folded tallies** — never of
wall-clock, worker count, or chunk arrival order.  Trials are
allocated in trial units and chunked with
:func:`~repro.orchestrate.plan.plan_chunk_range` *after* allocation,
so ``trials_used`` and every tally are byte-identical across
``(chunk_size, jobs, workers)`` and backends at a fixed seed.  Each
round's chunks run through :func:`~repro.orchestrate.pool.run_grid`,
in process, over a pool or on a distributed session, like a
fixed-budget run's — and so does its result-cache traffic; the
campaign runs no chunk any other way.  A point's rounds extend its one
trial stream, so its tally is byte-identical to a fixed-trial run of
the same length.

This module deliberately imports nothing from ``repro.distribute``:
the optional result cache is handed to ``run_grid`` as is, and the
allocation lines are printed by whatever ``allocation`` method the
progress callback carries, so the scheduler stays importable from the
bottom of the package graph.
(:mod:`repro.telemetry` sits below ``repro.distribute`` in that graph
— it only imports ``repro.orchestrate.persist`` — so the campaign
events emitted here keep that property.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Any, Callable, Sequence

from repro import telemetry
from repro.orchestrate.plan import plan_chunk_range
from repro.orchestrate.pool import run_grid
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import group_labels
from repro.reliability.metrics import MsedResult, MsedTally
from repro.reliability.sampling.intervals import Interval
from repro.reliability.sampling.sequential import AdaptivePolicy

__all__ = [
    "Allocation",
    "CampaignOutcome",
    "CampaignPolicy",
    "CampaignRunner",
    "CampaignScheduler",
    "PointView",
]

#: Margin on the 1/sqrt(n) half-width projection, so a point's
#: projected total lands just past its goal rather than just short.
SAFETY = 1.15


@dataclass(frozen=True)
class CampaignPolicy:
    """How a campaign spends trials across a whole sweep: the per-point
    stopping rule (``base``) and an optional campaign-wide
    ``trial_budget``."""

    base: AdaptivePolicy = field(default_factory=AdaptivePolicy)
    trial_budget: int | None = None

    def __post_init__(self) -> None:
        if self.trial_budget is not None and self.trial_budget < 1:
            raise ValueError("trial_budget must be at least 1")


@dataclass(frozen=True)
class PointView:
    """Everything the scheduler may see of one design point.

    A deliberately thin snapshot — folded trial count, frozen result,
    and whether the point still wants trials — so the allocator is
    trivially a pure function of fold state.
    """

    trials: int
    result: MsedResult | None
    active: bool = True


@dataclass(frozen=True)
class Allocation:
    """One point's share of a round: ``trials`` more for ``index``."""

    index: int
    trials: int
    priority: float
    half_width: float


@dataclass(frozen=True)
class CampaignScheduler:
    """Pure allocator: folded tallies in, next round's trials out."""

    policy: CampaignPolicy

    def goal_half_width(self, result: MsedResult) -> float:
        """The half-width at which ``base.satisfied`` would stop.

        Mirrors :meth:`AdaptivePolicy.satisfied`: the absolute
        tolerance if set, or the relative tolerance scaled by the
        observed rate.  A zero-event cell has no rate to be relative
        to, so aim at ``ci_target·hi`` — the optimistic upper bound —
        which keeps the projection growing until events appear or the
        point reaches ``max_trials``.
        """
        base = self.policy.base
        goals = []
        if base.ci_abs > 0:
            goals.append(base.ci_abs)
        if base.ci_target > 0:
            rate = result.rate(base.metric)
            if rate > 0:
                goals.append(base.ci_target * rate)
            else:
                goals.append(base.ci_target * base.interval_of(result).hi)
        return max(goals, default=0.0)

    def priority(self, view: PointView) -> float:
        """How far ``view`` is from stopping (larger = more urgent)."""
        if view.trials == 0 or view.result is None or view.result.trials == 0:
            return math.inf
        goal = self.goal_half_width(view.result)
        if goal <= 0:
            return math.inf
        return self.policy.base.interval_of(view.result).half_width / goal

    def desired_total(self, view: PointView) -> int:
        """Projected total trials that would satisfy the base policy."""
        base = self.policy.base
        if view.trials == 0 or view.result is None or view.result.trials == 0:
            return min(base.initial_trials, base.max_trials)
        goal = self.goal_half_width(view.result)
        if goal <= 0:
            return base.max_trials
        half = base.interval_of(view.result).half_width
        if half <= goal:
            return view.trials
        projected = math.ceil(view.trials * (half / goal) ** 2 * SAFETY)
        return max(view.trials + 1, min(base.max_trials, projected))

    def allocate(
        self, views: Sequence[PointView], budget_left: int | None = None
    ) -> list[Allocation]:
        """Split the next round's trials across ``views``.

        Returns allocations sorted by ``(-priority, index)``; the
        budget is drained greedily in that order and the last grant is
        truncated to fit.  Empty when every point is done or the
        budget is exhausted.
        """
        base = self.policy.base
        requests: list[Allocation] = []
        for index, view in enumerate(views):
            if not view.active or view.trials >= base.max_trials:
                continue
            want = self.desired_total(view) - view.trials
            if want <= 0:
                continue
            # Never more than double a point in one round: projections
            # from a handful of events are noisy, and the next barrier
            # re-projects from the fresher tally anyway.
            want = min(want, max(base.initial_trials, view.trials))
            if view.result is not None and view.result.trials > 0:
                half = base.interval_of(view.result).half_width
            else:
                half = 0.5  # a-priori binomial uncertainty
            requests.append(
                Allocation(
                    index=index,
                    trials=want,
                    priority=self.priority(view),
                    half_width=half,
                )
            )
        requests.sort(key=lambda alloc: (-alloc.priority, alloc.index))
        if budget_left is None:
            return requests
        granted: list[Allocation] = []
        remaining = budget_left
        for alloc in requests:
            if remaining <= 0:
                break
            take = min(alloc.trials, remaining)
            granted.append(replace(alloc, trials=take))
            remaining -= take
        return granted


@dataclass(frozen=True)
class CampaignOutcome:
    """What the campaign decided for one design point.

    The final tally (``result``, ``trials_used``), how the point
    ended (``converged``, ``rounds``, ``describe()``), the stopping
    rule's own interval (``policy``, ``interval()``), and how many of
    its trials were served from a result cache instead of being
    re-simulated.
    """

    result: MsedResult
    converged: bool
    rounds: int
    policy: AdaptivePolicy
    trials_cached: int = 0

    @property
    def trials_used(self) -> int:
        return self.result.trials

    def interval(self) -> Interval:
        return self.policy.interval_of(self.result)

    def describe(self) -> str:
        if self.converged:
            reason = "converged"
        elif self.result.trials >= self.policy.max_trials:
            reason = "hit trial ceiling"
        else:
            reason = "budget exhausted"
        cached = (
            f", {self.trials_cached} cached" if self.trials_cached else ""
        )
        return (
            f"{reason} after {self.result.trials} trials"
            f" ({self.rounds} rounds{cached})"
        )


@dataclass
class CampaignRunner:
    """Run a whole sweep under one :class:`CampaignPolicy`.

    Every round is one :func:`~repro.orchestrate.pool.run_grid` call,
    which serves and fills ``cache`` (the distribute layer's
    ``ResultCache``, optional) on every path; a point's
    ``trials_cached`` are the allocated trials that grid did not run.
    ``progress(done, total)`` counts the campaign's computed chunks
    across rounds, and a ``progress`` with an ``allocation(round_no,
    entries)`` method (the distribute layer's ``ChunkProgress``) also
    prints each round's allocation.
    """

    policy: CampaignPolicy = field(default_factory=CampaignPolicy)
    cache: Any | None = None

    def run(
        self,
        simulators: Sequence[Any],
        seed: int,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: Callable[[int, int], None] | None = None,
        executor: Any | None = None,
        group_ns: str | None = None,
    ) -> list[CampaignOutcome]:
        base = self.policy.base
        scheduler = CampaignScheduler(self.policy)
        key = derive_key(seed)
        count = len(simulators)
        groups = group_labels(count, group_ns)
        tallies = [MsedTally() for _ in range(count)]
        trials = [0] * count
        rounds = [0] * count
        converged = [False] * count
        budget_left = self.policy.trial_budget
        allocation = getattr(progress, "allocation", None)

        # One spec per point, built on first use (cache fingerprints,
        # or chunks leaving this process) and kept across rounds: each
        # _task_spec() rebuilds its code for the consistency check.
        spec_of = cache(lambda i: simulators[i]._task_spec())
        # Trials each point computed rather than took from the cache.
        computed = [0] * count

        def count_computed(i: int, chunk: Any, tally: MsedTally) -> None:
            computed[i] += tally.trials

        done_chunks = 0
        round_no = 0
        while True:
            views = [
                PointView(
                    trials=trials[i],
                    result=tallies[i].freeze() if trials[i] else None,
                    active=not converged[i],
                )
                for i in range(count)
            ]
            allocations = scheduler.allocate(views, budget_left)
            if not allocations:
                break
            round_no += 1
            telemetry.counter("campaign.rounds")
            telemetry.event(
                "campaign.round",
                round=round_no,
                budget_left=budget_left,
                allocations=[
                    {
                        "point": str(groups[alloc.index]),
                        "trials": alloc.trials,
                        "total": trials[alloc.index] + alloc.trials,
                        "half_width": alloc.half_width,
                        "priority": (
                            alloc.priority
                            if math.isfinite(alloc.priority)
                            else None
                        ),
                    }
                    for alloc in allocations
                ],
            )
            if allocation is not None:
                allocation(
                    round_no,
                    [
                        (
                            groups[alloc.index],
                            alloc.trials,
                            trials[alloc.index] + alloc.trials,
                            alloc.half_width,
                            alloc.priority,
                        )
                        for alloc in allocations
                    ],
                )

            cells: list[tuple[int, Any]] = []
            for alloc in allocations:
                i = alloc.index
                cells += [
                    (i, chunk)
                    for chunk in plan_chunk_range(
                        trials[i], trials[i] + alloc.trials, chunk_size
                    )
                ]
                trials[i] += alloc.trials
                rounds[i] += 1
                if budget_left is not None:
                    budget_left -= alloc.trials

            # Progress counts the campaign's computed chunks so far:
            # each round's grid reports on top of the rounds before it.
            offset = done_chunks

            def tick(done: int, total: int) -> None:
                nonlocal done_chunks
                done_chunks = offset + done
                progress(done_chunks, offset + total)

            folded = run_grid(
                simulators, cells, key, groups=groups, spec_of=spec_of,
                jobs=jobs, progress=None if progress is None else tick,
                executor=executor, cache=self.cache,
                on_chunk=None if self.cache is None else count_computed,
            )
            for i, tally in folded.items():
                tallies[i].merge(tally)

            for alloc in allocations:
                i = alloc.index
                if base.satisfied(tallies[i].freeze()):
                    converged[i] = True

        return [
            CampaignOutcome(
                result=tallies[i].freeze(),
                converged=converged[i],
                rounds=rounds[i],
                policy=base,
                trials_cached=(
                    trials[i] - computed[i] if self.cache is not None else 0
                ),
            )
            for i in range(count)
        ]
