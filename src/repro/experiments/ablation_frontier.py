"""Ablation: the detection-vs-spare-bits frontier and the k-sweep.

Two studies beyond the paper's tables:

1. **Frontier** — MSED at *single-bit* redundancy granularity for MUSE
   (the flexibility claim of Section VII-E: RS can only move in
   two-symbol steps) including the ripple-check ablation at each point.
2. **k-sweep** — how MSED decays as the number of simultaneously
   corrupted symbols grows (k = 2..5), for MUSE(144,132) and
   RS(144,128).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distribute import execution_context
from repro.telemetry import telemetry_session
from repro.orchestrate.worker import CodeRef
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    muse_design_point,
    run_design_points_with_outcomes,
)
from repro.reliability.sampling.sequential import AdaptivePolicy, policy_from_cli
from repro.rs.reed_solomon import rs_144_128


def _converged(outcome) -> bool | None:
    return None if outcome is None else outcome.converged


def _n_cell(trials: int, converged: bool | None, width: int) -> str:
    """A trial-count cell, '^'-marked when the point hit the ceiling."""
    return f"{str(trials) + ('^' if converged is False else ''):>{width}}"


@dataclass(frozen=True)
class FrontierPoint:
    extra_bits: int
    code_name: str
    msed_percent: float
    msed_without_ripple: float
    #: 95% Wilson bounds on the full decoder's MSED rate (percent) and
    #: the trials each variant actually spent.
    msed_lo: float = 0.0
    msed_hi: float = 100.0
    trials: int = 0
    trials_without_ripple: int = 0
    converged: bool | None = None
    converged_without_ripple: bool | None = None


def frontier(
    trials: int = 4000,
    seed: int = 5,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: AdaptivePolicy | None = None,
    executor=None,
    progress_cb=None,
    cache_dir: str | None = None,
    scenario: str = "msed",
) -> list[FrontierPoint]:
    # One run_design_points call = one shared pool for all 12 runs
    # (full + ablated per point), not a pool spin-up per design point.
    codes = []
    simulators = []
    for extra_bits in range(0, 6):
        code = muse_design_point(extra_bits)
        ref = CodeRef(
            "repro.reliability.monte_carlo:muse_design_point", (extra_bits,)
        )
        codes.append((extra_bits, code))
        simulators.append(
            MuseMsedSimulator(
                code, backend=backend, code_ref=ref, scenario=scenario
            )
        )
        simulators.append(
            MuseMsedSimulator(
                code, ripple_check=False, backend=backend, code_ref=ref,
                scenario=scenario,
            )
        )
    results, outcomes = run_design_points_with_outcomes(
        simulators, trials, seed, jobs, chunk_size, progress_cb,
        adaptive=adaptive, executor=executor, group_ns="frontier",
        cache_dir=cache_dir,
    )
    points = []
    for index, (extra_bits, code) in enumerate(codes):
        full, ablated = results[2 * index], results[2 * index + 1]
        interval = full.interval()
        points.append(
            FrontierPoint(
                extra_bits=extra_bits,
                code_name=f"{code.name} m={code.m}",
                msed_percent=full.msed_percent,
                msed_without_ripple=ablated.msed_percent,
                msed_lo=100.0 * interval.lo,
                msed_hi=100.0 * interval.hi,
                trials=full.trials,
                trials_without_ripple=ablated.trials,
                converged=_converged(outcomes[2 * index]),
                converged_without_ripple=_converged(outcomes[2 * index + 1]),
            )
        )
    return points


@dataclass(frozen=True)
class KSweepPoint:
    k: int
    muse_msed: float
    rs_msed: float
    muse_trials: int = 0
    rs_trials: int = 0
    muse_converged: bool | None = None
    rs_converged: bool | None = None


def k_sweep(
    trials: int = 4000,
    seed: int = 5,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: AdaptivePolicy | None = None,
    executor=None,
    progress_cb=None,
    cache_dir: str | None = None,
    scenario: str = "msed",
) -> list[KSweepPoint]:
    from repro.core.codes import muse_144_132

    ks = (2, 3, 4, 5)
    simulators = []
    for k in ks:
        simulators.append(
            MuseMsedSimulator(
                muse_144_132(),
                k_symbols=k,
                backend=backend,
                code_ref=CodeRef("repro.core.codes:muse_144_132"),
                scenario=scenario,
            )
        )
        simulators.append(
            RsMsedSimulator(
                rs_144_128(),
                k_symbols=k,
                backend=backend,
                code_ref=CodeRef("repro.rs.reed_solomon:rs_144_128"),
                scenario=scenario,
            )
        )
    results, outcomes = run_design_points_with_outcomes(
        simulators, trials, seed, jobs, chunk_size, progress_cb,
        adaptive=adaptive, executor=executor, group_ns="k-sweep",
        cache_dir=cache_dir,
    )
    return [
        KSweepPoint(
            k=k,
            muse_msed=results[2 * index].msed_percent,
            rs_msed=results[2 * index + 1].msed_percent,
            muse_trials=results[2 * index].trials,
            rs_trials=results[2 * index + 1].trials,
            muse_converged=_converged(outcomes[2 * index]),
            rs_converged=_converged(outcomes[2 * index + 1]),
        )
        for index, k in enumerate(ks)
    ]


def render(
    frontier_points: list[FrontierPoint], sweep_points: list[KSweepPoint]
) -> str:
    lines = [
        "Frontier: MUSE MSED vs spare bits (single-bit granularity)",
        f"{'extra':<6} {'code':<24} {'MSED %':>8} {'[lo, hi] @95%':>18} "
        f"{'n':>8} {'no-ripple %':>12} {'ripple gain':>12}",
    ]
    ceiling_hit = False
    for point in frontier_points:
        gain = point.msed_percent - point.msed_without_ripple
        ceiling_hit |= (
            point.converged is False
            or point.converged_without_ripple is False
        )
        # The no-ripple variant stops on its own schedule; mark its
        # column too when *it* was the one truncated at the ceiling.
        no_ripple = f"{point.msed_without_ripple:.2f}" + (
            "^" if point.converged_without_ripple is False else ""
        )
        lines.append(
            f"{point.extra_bits:<6} {point.code_name:<24} "
            f"{point.msed_percent:>8.2f} "
            f"{f'[{point.msed_lo:.2f}, {point.msed_hi:.2f}]':>18} "
            f"{_n_cell(point.trials, point.converged, 8)} "
            f"{no_ripple:>12} "
            f"{gain:>+12.2f}"
        )
    lines.append("\nk-sweep: MSED vs number of corrupted symbols (144-bit codes)")
    lines.append(
        f"{'k':<4} {'MUSE(144,132) %':>16} {'n':>8} {'RS(144,128) %':>15} {'n':>8}"
    )
    for point in sweep_points:
        ceiling_hit |= (
            point.muse_converged is False or point.rs_converged is False
        )
        lines.append(
            f"{point.k:<4} {point.muse_msed:>16.2f} "
            f"{_n_cell(point.muse_trials, point.muse_converged, 8)} "
            f"{point.rs_msed:>15.2f} "
            f"{_n_cell(point.rs_trials, point.rs_converged, 8)}"
        )
    if ceiling_hit:
        lines.append("(^) adaptive run hit the --max-trials ceiling")
    return "\n".join(lines)


DEFAULT_TRIALS = 4000
DEFAULT_SEED = 5


def main(
    trials: int | None = None,
    seed: int | None = None,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: bool = False,
    ci_target: float | None = None,
    max_trials: int | None = None,
    distribute: str | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    progress: bool = False,
    cache_dir: str | None = None,
    scenario: str = "msed",
    telemetry_dir: str | None = None,
) -> str:
    trials = DEFAULT_TRIALS if trials is None else trials
    seed = DEFAULT_SEED if seed is None else seed
    policy = policy_from_cli(ci_target, max_trials) if adaptive else None
    # One session serves both studies (the group namespaces keep their
    # fold groups and checkpoint entries apart).
    with telemetry_session(
        telemetry_dir,
        experiment="ablation-frontier",
        seed=seed,
        backend=backend,
        scenario=scenario,
        adaptive=policy is not None,
        distribute=distribute,
    ), execution_context(
        distribute,
        seed=seed,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        backend=backend,
        progress=progress,
    ) as (executor, progress_cb):
        report = render(
            frontier(
                trials, seed, backend=backend, jobs=jobs,
                chunk_size=chunk_size, adaptive=policy, executor=executor,
                progress_cb=progress_cb, cache_dir=cache_dir,
                scenario=scenario,
            ),
            k_sweep(
                trials, seed, backend=backend, jobs=jobs,
                chunk_size=chunk_size, adaptive=policy, executor=executor,
                progress_cb=progress_cb, cache_dir=cache_dir,
                scenario=scenario,
            ),
        )
    if scenario != "msed":
        report = f"fault scenario: {scenario}\n{report}"
    print(report)
    return report


if __name__ == "__main__":
    main()
