"""Bench: fault-scenario corruption + decode throughput per scenario.

On the native backend the fused kernels replay the msed and ``mbu``
streams in one draw->decode->tally pass; every other scenario runs a
generate-then-decode pipeline (numpy batch corruption, decode on
whatever backend is resolved).  This file measures what that costs:
trials/second for every fault scenario against the plain
msed stream on the same code and trial budget, plus the
scalar-reference overhead ratio on a smaller budget.  Results land in
``benchmarks/BENCH_scenarios.json``.
"""

import time
from pathlib import Path

from artifacts import merge_artifact
from repro.core.codes import muse_80_69
from repro.engine import resolve_backend
from repro.reliability.monte_carlo import MuseMsedSimulator
from repro.scenarios import resolve_scenario, scenario_names

ARTIFACT = Path(__file__).parent / "BENCH_scenarios.json"

SEED = 2022
TRIALS = 20_000
SCALAR_TRIALS = 400

FAULTS = tuple(n for n in scenario_names() if n != "msed")


def _timed_run(scenario: str, trials: int, backend: str = "auto"):
    simulator = MuseMsedSimulator(
        muse_80_69(), scenario=scenario, backend=backend
    )
    start = time.perf_counter()
    result = simulator.run(trials=trials, seed=SEED)
    return time.perf_counter() - start, result


def test_scenario_throughput_within_an_order_of_msed():
    """Every scenario's path (fused or generate-then-decode) must stay
    within 10x of the fused msed kernel's wall time at the same budget
    — a fault scenario is allowed to cost, not to be unusable."""
    backend = resolve_backend("auto")
    _timed_run("msed", 2_000)  # warm engine caches / JIT
    msed_seconds, _ = _timed_run("msed", TRIALS)

    rows = {}
    for name in FAULTS:
        _timed_run(name, 1_000)  # warm
        seconds, result = _timed_run(name, TRIALS)
        rows[name] = {
            "seconds": round(seconds, 4),
            "trials_per_second": round(TRIALS / seconds),
            "msed_percent": round(result.msed_percent, 2),
            "slowdown_vs_msed": round(seconds / msed_seconds, 2),
            "summary": resolve_scenario(name).summary,
        }
        assert seconds < msed_seconds * 10 + 1.0, (name, seconds)

    merge_artifact(
        ARTIFACT,
        {
            "throughput": {
                "backend": backend,
                "code": "MUSE(80,69)",
                "trials": TRIALS,
                "msed_seconds": round(msed_seconds, 4),
                "msed_trials_per_second": round(TRIALS / msed_seconds),
                "scenarios": rows,
            }
        },
    )


def test_scalar_reference_parity_and_overhead():
    """The pure-Python scalar reference must agree with the batch path
    (the determinism contract, re-checked at bench scale) — and its
    measured overhead is recorded so regressions in either path show
    run over run in the artifact."""
    ratios = {}
    for name in FAULTS:
        batch_seconds, batch = _timed_run(name, SCALAR_TRIALS)
        start = time.perf_counter()
        scalar = MuseMsedSimulator(
            muse_80_69(), scenario=name, backend="scalar"
        ).run(trials=SCALAR_TRIALS, seed=SEED)
        scalar_seconds = time.perf_counter() - start
        assert scalar == batch, name
        ratios[name] = {
            "batch_seconds": round(batch_seconds, 4),
            "scalar_seconds": round(scalar_seconds, 4),
            "scalar_slowdown": round(scalar_seconds / batch_seconds, 1),
        }

    merge_artifact(
        ARTIFACT,
        {
            "scalar_reference": {
                "trials": SCALAR_TRIALS,
                "scenarios": ratios,
            }
        },
    )
