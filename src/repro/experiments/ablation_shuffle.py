"""Ablation: multiplier-search yield with and without shuffling.

Extends the paper's Appendix G observation (the MUSE(80,67) search
finds nothing without the Eq.5 shuffle) into a sweep: for each error
model, how many valid multipliers exist under the sequential vs the
interleaved bit assignment, per redundancy budget.

A second study injects real multi-symbol errors (via the batch decode
engine) into the best code of each layout at the same redundancy
budget, asking whether shuffling also moves the *detection* rate or
only the search yield.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.error_model import ErrorDirection, SymbolErrorModel
from repro.distribute import execution_context
from repro.telemetry import telemetry_session
from repro.core.search import find_multipliers
from repro.core.symbols import SymbolLayout
from repro.orchestrate.worker import CodeRef
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    run_design_points_with_outcomes,
)
from repro.reliability.sampling.sequential import AdaptivePolicy, policy_from_cli


@dataclass(frozen=True)
class ShuffleAblationRow:
    label: str
    r: int
    sequential_found: int
    shuffled_found: int


def sweep() -> list[ShuffleAblationRow]:
    rows = []
    # C8A over 80 bits: the paper's Appendix G case, r = 12..14.
    sequential8 = SymbolErrorModel(
        SymbolLayout.sequential(80, 8), ErrorDirection.ONE_TO_ZERO
    )
    shuffled8 = SymbolErrorModel(SymbolLayout.eq5(), ErrorDirection.ONE_TO_ZERO)
    for r in (12, 13, 14):
        rows.append(
            ShuffleAblationRow(
                label="C8A/80b",
                r=r,
                sequential_found=len(find_multipliers(sequential8, r).multipliers),
                shuffled_found=len(find_multipliers(shuffled8, r).multipliers),
            )
        )
    # C4B over 80 bits: both layouts work; shuffling changes the count.
    sequential4 = SymbolErrorModel(SymbolLayout.sequential(80, 4))
    shuffled4 = SymbolErrorModel(SymbolLayout.eq6())
    for r in (11, 12):
        rows.append(
            ShuffleAblationRow(
                label="C4B/80b",
                r=r,
                sequential_found=len(find_multipliers(sequential4, r).multipliers),
                shuffled_found=len(find_multipliers(shuffled4, r).multipliers),
            )
        )
    return rows


@dataclass(frozen=True)
class ShuffleMsedRow:
    """MSED of one Table-I 80-bit design point under 2-symbol injection."""

    code_name: str
    layout: str
    m: int
    msed_percent: float
    #: 95% Wilson bounds on the MSED rate, in percent, and the trials
    #: actually spent (fixed budget or adaptive).
    msed_lo: float = 0.0
    msed_hi: float = 100.0
    trials: int = 0
    converged: bool | None = None


def msed_sweep(
    trials: int = 3000,
    seed: int = 7,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: AdaptivePolicy | None = None,
    executor=None,
    progress_cb=None,
    cache_dir: str | None = None,
    scenario: str = "msed",
) -> list[ShuffleMsedRow]:
    """Monte-Carlo MSED across the 80-bit design points, per layout.

    The search sweep above shows shuffling decides which codes *exist*
    (no same-model layout pair shares a budget); this study injects the
    same 2-symbol error stream — via the batch decode engine — into the
    codes that do exist, sequential and shuffled alike, so the layouts'
    detection rates can at least be compared across the paper's actual
    Table-I picks.
    """
    from repro.core import codes

    points = []
    for factory in ("muse_80_69", "muse_80_67", "muse_80_70"):
        code = getattr(codes, factory)()
        simulator = MuseMsedSimulator(
            code,
            backend=backend,
            code_ref=CodeRef(f"repro.core.codes:{factory}"),
            scenario=scenario,
        )
        points.append((code, simulator))
    # One shared pool (or in-process stream) for all three codes.
    simulators = [simulator for _, simulator in points]
    results, outcomes = run_design_points_with_outcomes(
        simulators, trials, seed, jobs=jobs, chunk_size=chunk_size,
        progress=progress_cb, adaptive=adaptive, executor=executor,
        group_ns="shuffle-msed", cache_dir=cache_dir,
    )
    rows = []
    for (code, _), result, outcome in zip(points, results, outcomes):
        interval = result.interval()
        rows.append(
            ShuffleMsedRow(
                code_name=code.name,
                layout="sequential" if code.layout.is_sequential() else "shuffled",
                m=code.m,
                msed_percent=result.msed_percent,
                msed_lo=100.0 * interval.lo,
                msed_hi=100.0 * interval.hi,
                trials=result.trials,
                converged=None if outcome is None else outcome.converged,
            )
        )
    return rows


def render(rows: list[ShuffleAblationRow]) -> str:
    lines = [
        "Shuffle ablation: valid multipliers found (sequential vs shuffled)",
        f"{'model':<10} {'r':>3} {'sequential':>11} {'shuffled':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row.label:<10} {row.r:>3} {row.sequential_found:>11} "
            f"{row.shuffled_found:>9}"
        )
    lines.append(
        "\npaper Appendix G: the C8A/80b search without shuffling finds no "
        "multipliers of 16 bits or less; shuffling unlocks m=5621 at r=13."
    )
    return "\n".join(lines)


def render_msed(rows: list[ShuffleMsedRow]) -> str:
    lines = [
        "Shuffle ablation: MSED of the Table-I 80-bit codes, 2-symbol errors",
        f"{'code':<14} {'layout':<11} {'m':>6} {'MSED %':>8} "
        f"{'[lo, hi] @95%':>18} {'n':>8}",
    ]
    for row in rows:
        ceiling = " ceiling" if row.converged is False else ""
        lines.append(
            f"{row.code_name:<14} {row.layout:<11} {row.m:>6} "
            f"{row.msed_percent:>8.2f} "
            f"{f'[{row.msed_lo:.2f}, {row.msed_hi:.2f}]':>18} "
            f"{row.trials:>8}{ceiling}"
        )
    lines.append(
        "\nshuffling decides which codes exist (see the search sweep); among "
        "the codes that do, MSED tracks the multiplier magnitude and ELC "
        "coverage (Section VII-A), not the bit assignment itself."
    )
    return "\n".join(lines)


DEFAULT_TRIALS = 3000
DEFAULT_SEED = 7


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
    seed = DEFAULT_SEED if seed is None else seed
    with telemetry_session(
        telemetry_dir,
        experiment="ablation-shuffle",
        seed=seed,
        backend=backend,
        scenario=scenario,
        adaptive=bool(adaptive),
        distribute=distribute,
    ), execution_context(
        distribute,
        seed=seed,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        backend=backend,
        progress=progress,
    ) as (executor, progress_cb):
        rows = msed_sweep(
            DEFAULT_TRIALS if trials is None else trials,
            seed,
            backend=backend,
            jobs=jobs,
            chunk_size=chunk_size,
            adaptive=policy_from_cli(ci_target, max_trials)
            if adaptive
            else None,
            executor=executor,
            progress_cb=progress_cb,
            cache_dir=cache_dir,
            scenario=scenario,
        )
    report = "\n\n".join([render(sweep()), render_msed(rows)])
    if scenario != "msed":
        report = f"fault scenario: {scenario}\n{report}"
    print(report)
    return report


if __name__ == "__main__":
    main()
