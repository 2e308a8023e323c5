"""Campaign scheduling: the one adaptive sampler of the Monte-Carlo.

A campaign runs one design point (``run_adaptive``) or a whole sweep
(``--adaptive``) until every point meets its
:class:`AdaptivePolicy` stopping rule.  Instead of growing each point
on a fixed look schedule, which overshoots a point's true requirement,
each round looks at every unfinished point's folded tally and grants
it the projected number of trials that closes the gap between its
interval and its goal (binomial half-widths shrink like
``1/sqrt(n)``, so ``n_goal ≈ n · (half/goal)² · SAFETY``), capped per
round at a doubling so noisy early projections are re-examined at the
next barrier.  A point whose stream sees zero events has no relative
goal, so it keeps doubling to ``max_trials`` and reports its interval
there.

Determinism contract (same as every other runner in this repo): each
point's grant is a **pure function of its own folded tally** — never of
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
from dataclasses import dataclass, field
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
    "CampaignRunner",
    "CampaignScheduler",
    "PointView",
]

#: Margin on the 1/sqrt(n) half-width projection, so a point's
#: projected total lands just past its goal rather than just short.
SAFETY = 1.15


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
    half_width: float


@dataclass(frozen=True)
class CampaignScheduler:
    """Pure allocator: folded tallies in, next round's trials out."""

    policy: AdaptivePolicy

    def goal_half_width(self, result: MsedResult) -> float:
        """The half-width at which ``policy.satisfied`` would stop, or 0
        when no finite goal exists.

        Mirrors :meth:`AdaptivePolicy.satisfied`: the absolute
        tolerance if set, or the relative tolerance scaled by the
        observed rate.  A zero-event cell has no rate to be relative
        to, so the relative tolerance sets no goal there and the point
        keeps doubling until events appear or it reaches
        ``max_trials``.
        """
        policy = self.policy
        goals = []
        if policy.ci_abs > 0:
            goals.append(policy.ci_abs)
        rate = result.rate(policy.metric)
        if policy.ci_target > 0 and rate > 0:
            goals.append(policy.ci_target * rate)
        return max(goals, default=0.0)

    def desired_total(self, view: PointView) -> int:
        """Projected total trials that would satisfy the policy."""
        policy = self.policy
        if view.trials == 0 or view.result is None or view.result.trials == 0:
            return min(policy.initial_trials, policy.max_trials)
        goal = self.goal_half_width(view.result)
        if goal <= 0:
            return policy.max_trials
        half = policy.interval_of(view.result).half_width
        if half <= goal:
            return view.trials
        projected = math.ceil(view.trials * (half / goal) ** 2 * SAFETY)
        return max(view.trials + 1, min(policy.max_trials, projected))

    def allocate(self, views: Sequence[PointView]) -> list[Allocation]:
        """The next round's grant for every point of ``views`` that
        still wants trials, in point order; empty when every point is
        done."""
        policy = self.policy
        allocations: list[Allocation] = []
        for index, view in enumerate(views):
            if not view.active or view.trials >= policy.max_trials:
                continue
            want = self.desired_total(view) - view.trials
            if want <= 0:
                continue
            # Never more than double a point in one round: projections
            # from a handful of events are noisy, and the next barrier
            # re-projects from the fresher tally anyway.
            want = min(want, max(policy.initial_trials, view.trials))
            if view.result is not None and view.result.trials > 0:
                half = policy.interval_of(view.result).half_width
            else:
                half = 0.5  # a-priori binomial uncertainty
            allocations.append(
                Allocation(index=index, trials=want, half_width=half)
            )
        return allocations


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
        reason = "converged" if self.converged else "hit trial ceiling"
        cached = (
            f", {self.trials_cached} cached" if self.trials_cached else ""
        )
        return (
            f"{reason} after {self.result.trials} trials"
            f" ({self.rounds} rounds{cached})"
        )


@dataclass
class CampaignRunner:
    """Run a whole sweep under one :class:`AdaptivePolicy`.

    Every round is one :func:`~repro.orchestrate.pool.run_grid` call,
    which serves and fills ``cache`` (the distribute layer's
    ``ResultCache``, optional) on every path; a point's
    ``trials_cached`` are the allocated trials that grid did not run.
    ``progress(done, total)`` counts the campaign's computed chunks
    across rounds, and a ``progress`` with an ``allocation(round_no,
    entries)`` method (the distribute layer's ``ChunkProgress``) also
    prints each round's allocation.
    """

    policy: AdaptivePolicy = field(default_factory=AdaptivePolicy)
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
        policy = self.policy
        scheduler = CampaignScheduler(policy)
        key = derive_key(seed)
        count = len(simulators)
        groups = group_labels(count, group_ns)
        tallies = [MsedTally() for _ in range(count)]
        trials = [0] * count
        rounds = [0] * count
        converged = [False] * count
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
            allocations = scheduler.allocate(views)
            if not allocations:
                break
            round_no += 1
            telemetry.counter("campaign.rounds")
            telemetry.event(
                "campaign.round",
                round=round_no,
                allocations=[
                    {
                        "point": str(groups[alloc.index]),
                        "trials": alloc.trials,
                        "total": trials[alloc.index] + alloc.trials,
                        "half_width": alloc.half_width,
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
                if policy.satisfied(tallies[i].freeze()):
                    converged[i] = True

        return [
            CampaignOutcome(
                result=tallies[i].freeze(),
                converged=converged[i],
                rounds=rounds[i],
                policy=policy,
                trials_cached=(
                    trials[i] - computed[i] if self.cache is not None else 0
                ),
            )
            for i in range(count)
        ]
