"""Experiment: Table IV — MSED rates and bit savings, MUSE vs RS.

Runs the Monte-Carlo design-point sweep (10,000 trials per point, as in
the paper) and prints measured-vs-paper for every cell — every measured
rate carrying a 95% confidence interval and its trial count, never a
bare point estimate.  ``adaptive=True`` switches from the fixed budget
to the adaptive campaign: each point runs until its failure-rate CI is
tight (``ci_target`` relative half-width) or ``max_trials`` is hit, and
the report shows what each cell actually spent.
"""

from __future__ import annotations

from repro.reliability.metrics import TableIV
from repro.reliability.monte_carlo import build_table_iv
from repro.telemetry import telemetry_session
from repro.reliability.sampling.sequential import AdaptivePolicy, policy_from_cli

PAPER_MUSE = {0: 99.17, 1: 98.35, 2: 96.70, 3: 93.39, 4: 86.71, 5: 85.03}
PAPER_RS = {0: 99.36, 2: 95.55, 4: 86.79, 6: 53.96}

CONFIDENCE = 0.95


def _point_line(prefix: str, point, paper: float, suffix: str = "") -> str:
    result = point.result
    interval = result.interval(confidence=CONFIDENCE)
    ceiling = ""
    if point.sampling is not None and not point.sampling.converged:
        ceiling = " ceiling"
    return (
        f"  {prefix}: measured {result.msed_percent:6.2f}% "
        f"{interval.format(scale=100.0):<18} @{CONFIDENCE:.0%}  "
        f"paper {paper:6.2f}%  n={result.trials}{ceiling}{suffix}"
    )


def render(table: TableIV) -> str:
    lines = [table.render(), "", "measured vs paper (rate [lo, hi] @ 95%):"]
    muse_row = table.row("MUSE")
    for extra, paper in PAPER_MUSE.items():
        point = muse_row.get(extra)
        if point and point.result:
            lines.append(
                _point_line(f"MUSE +{extra}b", point, paper, f"  ({point.label})")
            )
    rs_row = table.row("RS")
    for extra, paper in PAPER_RS.items():
        point = rs_row.get(extra)
        if point and point.result:
            chipkill = "" if point.chipkill else "  [not ChipKill]"
            lines.append(_point_line(f"RS   +{extra}b", point, paper, chipkill))
    sampled = [p for p in table.points if p.sampling is not None]
    if sampled:
        policy = sampled[0].sampling.policy
        total = sum(p.result.trials for p in sampled)
        converged = sum(1 for p in sampled if p.sampling.converged)
        lines.append(
            f"\nadaptive sampling: stop at {policy.metric}-rate CI half-width "
            f"<= {policy.ci_target:g} x rate ({policy.kind} @"
            f"{policy.confidence:.0%}), ceiling {policy.max_trials}"
        )
        ceiling = sum(
            1
            for p in sampled
            if not p.sampling.converged
            and p.result.trials >= p.sampling.policy.max_trials
        )
        starved = len(sampled) - converged - ceiling
        tail = f"{converged} converged, {ceiling} hit the ceiling"
        if starved:
            tail += f", {starved} out of budget"
        lines.append(
            f"  total trials {total} across {len(sampled)} points; {tail}"
        )
    return "\n".join(lines)


def details(table: TableIV) -> dict:
    """Machine-readable per-point summary (lands in ``summary.json``)."""
    points = []
    for point in table.points:
        result = point.result
        msed_ci = result.interval(confidence=CONFIDENCE)
        failure_ci = result.interval(confidence=CONFIDENCE, metric="failure")
        entry = {
            "family": point.family,
            "extra_bits": point.extra_bits,
            "label": point.label,
            "chipkill": point.chipkill,
            "trials_used": result.trials,
            "msed_percent": round(result.msed_percent, 4),
            "msed_ci_95": [round(msed_ci.lo, 6), round(msed_ci.hi, 6)],
            "failure_rate": round(result.failure_rate, 8),
            "failure_ci_95": [
                round(failure_ci.lo, 8),
                round(failure_ci.hi, 8),
            ],
            "miscorrected": result.miscorrected,
            "silent": result.silent,
        }
        if point.sampling is not None:
            entry["converged"] = point.sampling.converged
            entry["rounds"] = point.sampling.rounds
            cached = point.sampling.trials_cached
            if cached:
                entry["trials_cached"] = cached
        points.append(entry)
    summary = {
        "experiment": "table4",
        "total_trials": sum(p.result.trials for p in table.points),
        "points": points,
    }
    sampled = [p for p in table.points if p.sampling is not None]
    if sampled:
        policy = sampled[0].sampling.policy
        summary["adaptive"] = {
            "ci_target": policy.ci_target,
            "ci_abs": policy.ci_abs,
            "confidence": policy.confidence,
            "kind": policy.kind,
            "metric": policy.metric,
            "initial_trials": policy.initial_trials,
            "max_trials": policy.max_trials,
        }
    return summary


DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 2022


def build(
    trials: int | None = None,
    seed: int | None = None,
    rs_device_policy: bool = True,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: bool | AdaptivePolicy = False,
    ci_target: float | None = None,
    max_trials: int | None = None,
    distribute: str | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    progress: bool = False,
    trial_budget: int | None = None,
    cache_dir: str | None = None,
    scenario: str = "msed",
    telemetry_dir: str | None = None,
) -> TableIV:
    """The table behind :func:`main` (callable for tests/benchmarks).

    ``distribute`` fans the chunk grid over a coordinator/worker
    session (``local:N`` or ``listen:PORT``); ``checkpoint_dir`` /
    ``resume`` journal and replay completed chunks; ``progress`` prints
    chunk progress and campaign allocations to stderr.
    ``trial_budget`` caps the adaptive campaign's total spend;
    ``cache_dir`` folds already-computed cells straight from the
    cross-run result cache, on every path.  ``telemetry_dir``
    records the run's event log, metrics and manifest there.  None of
    them changes the tallies of the trials that do run.  ``scenario``
    swaps the injected corruption stream for any registered fault
    scenario (:mod:`repro.scenarios`).
    """
    # The package alone: its fleet, journal and progress modules load
    # only for the options that use them.
    from repro.distribute import execution_context

    policy: AdaptivePolicy | None = None
    if isinstance(adaptive, AdaptivePolicy):
        policy = adaptive
    elif adaptive:
        policy = policy_from_cli(ci_target, max_trials)
    seed = DEFAULT_SEED if seed is None else seed
    with telemetry_session(
        telemetry_dir,
        experiment="table4",
        seed=seed,
        backend=backend,
        scenario=scenario,
        adaptive=policy is not None,
        trials=(
            None if policy is not None
            else (DEFAULT_TRIALS if trials is None else trials)
        ),
        distribute=distribute,
    ) as tel:
        with execution_context(
            distribute,
            seed=seed,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            backend=backend,
            progress=progress,
        ) as (executor, progress_cb):
            table = build_table_iv(
                trials=DEFAULT_TRIALS if trials is None else trials,
                seed=seed,
                rs_device_policy=rs_device_policy,
                backend=backend,
                jobs=jobs,
                chunk_size=chunk_size,
                progress=progress_cb,
                adaptive=policy,
                executor=executor,
                trial_budget=trial_budget,
                cache_dir=cache_dir,
                scenario=scenario,
            )
        if tel is not None:
            tel.attach_summary(details(table))
        return table


def main(
    trials: int | None = None,
    seed: int | None = None,
    rs_device_policy: bool = True,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
    adaptive: bool | AdaptivePolicy = False,
    ci_target: float | None = None,
    max_trials: int | None = None,
    distribute: str | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    progress: bool = False,
    trial_budget: int | None = None,
    cache_dir: str | None = None,
    scenario: str = "msed",
    telemetry_dir: str | None = None,
) -> tuple[str, dict]:
    """Render the table; returns ``(report, details)`` — the sweep puts
    the details dict (per-point ``trials_used`` and intervals) into
    ``summary.json``."""
    table = build(
        trials=trials,
        seed=seed,
        rs_device_policy=rs_device_policy,
        backend=backend,
        jobs=jobs,
        chunk_size=chunk_size,
        adaptive=adaptive,
        ci_target=ci_target,
        max_trials=max_trials,
        distribute=distribute,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        progress=progress,
        trial_budget=trial_budget,
        cache_dir=cache_dir,
        scenario=scenario,
        telemetry_dir=telemetry_dir,
    )
    report = render(table)
    summary = details(table)
    if scenario != "msed":
        # Paper comparisons only mean anything for the paper's own
        # transient model; flag scenario runs in both outputs.
        report = f"fault scenario: {scenario}\n{report}"
        summary["scenario"] = scenario
    print(report)
    return report, summary


if __name__ == "__main__":
    main()
