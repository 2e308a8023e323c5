"""Bench: scalar vs numpy Reed-Solomon engine throughput and parity.

The contract these benchmarks pin (the RS side of the PR-1 engine
contract, closing the Table-IV bottleneck):

* both backends classify the *same* generated corruption stream, so
  their MSED tallies are byte-identical at every batch size;
* the vectorised PGZ path decodes at >= 10x the scalar reference's
  decodes/sec at the 10k-trial batch size (it measures ~40-60x here);
* a reduced-trial full ``build_table_iv`` run is byte-identical
  whichever backend decodes it, and measurably faster vectorised;
* the full-table timing is recorded to ``benchmarks/BENCH_table4.json``
  so the perf trajectory is tracked run over run (CI uploads it).
"""

import time
from pathlib import Path

import pytest

from artifacts import merge_artifact
from repro.reliability.monte_carlo import RsMsedSimulator, build_table_iv
from repro.rs.engine import get_rs_engine, rs_msed_corruption_batch
from repro.rs.reed_solomon import rs_144_128, rs_for_channel

BATCH_SIZES = (1_000, 10_000, 100_000)
ARTIFACT = Path(__file__).parent / "BENCH_table4.json"


@pytest.mark.parametrize("trials", BATCH_SIZES)
def test_rs_backend_tallies_identical(trials):
    code = rs_144_128()
    scalar = RsMsedSimulator(code, backend="scalar").run(trials, seed=2022)
    vector = RsMsedSimulator(code, backend="numpy").run(trials, seed=2022)
    assert scalar == vector


@pytest.mark.parametrize("trials", BATCH_SIZES)
def test_rs_numpy_decode_throughput(benchmark, trials):
    code = rs_144_128()
    words = rs_msed_corruption_batch(code, trials, seed=2022)
    engine = get_rs_engine(code, "numpy")
    engine.decode_batch(words[:100])  # warm the kernels
    result = benchmark.pedantic(
        engine.decode_batch, args=(words,), rounds=1, iterations=1
    )
    assert len(result) == trials


def test_rs_scalar_decode_throughput(benchmark):
    code = rs_144_128()
    words = rs_msed_corruption_batch(code, 10_000, seed=2022)
    engine = get_rs_engine(code, "scalar")
    result = benchmark.pedantic(
        engine.decode_batch, args=(words,), rounds=1, iterations=1
    )
    assert len(result) == 10_000


@pytest.mark.parametrize("b", (8, 5), ids=["b8", "b5_partial"])
def test_rs_numpy_speedup_at_10k(b):
    """The acceptance bar: >= 10x decodes/sec over the scalar PGZ path,
    on both a full-symbol and a partial-last-symbol design point."""
    code = rs_for_channel(b, 144)
    words = rs_msed_corruption_batch(code, 10_000, seed=2022)
    scalar_engine = get_rs_engine(code, "scalar")
    numpy_engine = get_rs_engine(code, "numpy")
    numpy_engine.decode_batch(words[:1000])  # warm the kernels

    start = time.perf_counter()
    vector = numpy_engine.decode_batch(words)
    numpy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = scalar_engine.decode_batch(words)
    scalar_seconds = time.perf_counter() - start

    assert scalar.counts() == vector.counts()
    speedup = scalar_seconds / numpy_seconds
    assert speedup >= 10.0, (
        f"numpy RS backend only {speedup:.1f}x scalar "
        f"({scalar_seconds:.3f}s vs {numpy_seconds:.3f}s for 10k decodes)"
    )


def test_full_table_iv_cross_backend_parity_and_speedup():
    """Reduced-trial ``build_table_iv``: byte-identical tallies on both
    backends, vectorised measurably faster, timing saved as an artifact."""
    trials, seed = 4_000, 2022
    build_table_iv(trials=200, seed=seed)  # warm caches (searches, engines)

    start = time.perf_counter()
    vector = build_table_iv(trials=trials, seed=seed, backend="numpy")
    numpy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = build_table_iv(trials=trials, seed=seed, backend="scalar")
    scalar_seconds = time.perf_counter() - start

    assert [p.result for p in scalar.points] == [p.result for p in vector.points]
    assert [p.label for p in scalar.points] == [p.label for p in vector.points]
    speedup = scalar_seconds / numpy_seconds
    assert speedup >= 3.0, (
        f"vectorised table4 only {speedup:.1f}x scalar "
        f"({scalar_seconds:.3f}s vs {numpy_seconds:.3f}s at {trials} trials)"
    )

    # Merge, don't overwrite: the native bench contributes its
    # own timing columns to the same artifact (see artifacts.py).
    merge_artifact(
        ARTIFACT,
        {
            "experiment": "table4",
            "trials": trials,
            "seed": seed,
            "scalar_seconds": round(scalar_seconds, 4),
            "numpy_seconds": round(numpy_seconds, 4),
            "speedup": round(speedup, 2),
            "points": [
                {
                    "family": p.family,
                    "extra_bits": p.extra_bits,
                    "label": p.label,
                    "msed_percent": round(p.result.msed_percent, 2),
                }
                for p in vector.points
            ],
        },
    )
