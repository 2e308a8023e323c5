"""Bench: scalar vs numpy decode-engine throughput and tally parity.

The contract these benchmarks pin:

* both backends classify the *same* generated corruption stream, so
  their MSED tallies are byte-identical at every batch size;
* the vectorised backend decodes at >= 20x the scalar reference's
  decodes/sec at the 100k-trial batch size (it measures ~30x here);
* the full Table IV (10k trials, the paper's setting) is identical
  whichever backend runs the MUSE design points.
"""

import time

import pytest

from repro.core.codes import muse_144_132
from repro.engine import get_engine
from repro.orchestrate import Chunk, derive_key
from repro.orchestrate.corruption import muse_corruption_chunk
from repro.reliability.monte_carlo import MuseMsedSimulator, build_table_iv

BATCH_SIZES = (1_000, 10_000, 100_000)


@pytest.mark.parametrize("trials", BATCH_SIZES)
def test_backend_tallies_identical(trials):
    code = muse_144_132()
    scalar = MuseMsedSimulator(code, backend="scalar").run(trials, seed=2022)
    vector = MuseMsedSimulator(code, backend="numpy").run(trials, seed=2022)
    assert scalar == vector


@pytest.mark.parametrize("trials", BATCH_SIZES)
def test_numpy_decode_throughput(benchmark, trials):
    code = muse_144_132()
    words = muse_corruption_chunk(code, Chunk(0, trials), derive_key(2022))
    engine = get_engine(code, "numpy")
    engine.decode_batch(words[:100])  # warm the kernels
    result = benchmark.pedantic(
        engine.decode_batch, args=(words,), rounds=1, iterations=1
    )
    assert len(result) == trials


def test_scalar_decode_throughput(benchmark):
    code = muse_144_132()
    words = muse_corruption_chunk(code, Chunk(0, 10_000), derive_key(2022))
    engine = get_engine(code, "scalar")
    result = benchmark.pedantic(
        engine.decode_batch, args=(words,), rounds=1, iterations=1
    )
    assert len(result) == 10_000


def test_numpy_speedup_at_100k():
    """The acceptance bar: >= 20x decodes/sec over the scalar path."""
    code = muse_144_132()
    words = muse_corruption_chunk(code, Chunk(0, 100_000), derive_key(2022))
    scalar_engine = get_engine(code, "scalar")
    numpy_engine = get_engine(code, "numpy")
    numpy_engine.decode_batch(words[:1000])  # warm the kernels

    start = time.perf_counter()
    vector = numpy_engine.decode_batch(words)
    numpy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = scalar_engine.decode_batch(words)
    scalar_seconds = time.perf_counter() - start

    assert scalar.counts() == vector.counts()
    speedup = scalar_seconds / numpy_seconds
    assert speedup >= 20.0, (
        f"numpy backend only {speedup:.1f}x scalar "
        f"({scalar_seconds:.3f}s vs {numpy_seconds:.3f}s for 100k decodes)"
    )


def test_full_table_iv_parity_at_paper_trials(benchmark):
    """build_table_iv(trials=10_000, seed=2022): byte-identical tallies
    on both backends, at the paper's full trial count."""
    vector = benchmark.pedantic(
        build_table_iv,
        kwargs={"trials": 10_000, "seed": 2022, "backend": "numpy"},
        rounds=1,
        iterations=1,
    )
    scalar = build_table_iv(trials=10_000, seed=2022, backend="scalar")
    assert [p.result for p in scalar.points] == [p.result for p in vector.points]
    assert [p.label for p in scalar.points] == [p.label for p in vector.points]
