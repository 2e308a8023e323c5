"""Differential fuzz of the fused-kernel contract.

For any Table-IV design point, replayable scenario, ``k``, chunk range
and seed, the native fused draw->decode->tally pass must return the
counts numpy gets by generating the corrupted chunk and batch-decoding
it.  Derandomized with a bounded example count, so the suite stays
hermetic and every run draws the same cases.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import available_backends, get_engine
from repro.orchestrate.corruption import muse_scenario_chunk, rs_scenario_chunk
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.reliability.monte_carlo import muse_design_point, rs_design_point
from repro.rs.engine import get_rs_engine
from repro.scenarios import resolve_scenario

pytestmark = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler, or disabled)",
)

DESIGN_POINTS = [("MUSE", extra) for extra in range(6)] + [
    ("RS", extra) for extra in (0, 2, 4, 6)
]


def engines(family, extra_bits, flag):
    """``(code, native, numpy, generate)`` of one design point; ``flag``
    is the ripple check (MUSE) or the x4 device policy (RS)."""
    if family == "MUSE":
        code = muse_design_point(extra_bits)
        native = get_engine(code, "native", ripple_check=flag)
        numpy = get_engine(code, "numpy", ripple_check=flag)
        return code, native, numpy, muse_scenario_chunk
    code = rs_design_point(extra_bits)
    device_bits = 4 if flag else None
    native = get_rs_engine(code, "native", device_bits)
    numpy = get_rs_engine(code, "numpy", device_bits)
    return code, native, numpy, rs_scenario_chunk


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    point=st.sampled_from(DESIGN_POINTS),
    scenario=st.sampled_from(("msed", "mbu")),
    k_symbols=st.integers(1, 2),
    start=st.integers(0, 2**40),
    size=st.integers(1, 2048),
    seed=st.integers(0, 2**64 - 1),
    flag=st.booleans(),
)
def test_fused_counts_equal_generate_then_decode(
    point, scenario, k_symbols, start, size, seed, flag
):
    code, native, numpy, generate = engines(*point, flag)
    stream = resolve_scenario(scenario)
    chunk = Chunk(start, size)
    key = derive_key(seed)
    words = generate(stream, code, chunk, key, k_symbols)
    expect = numpy.decode_batch(words).counts()
    fused = native.fused_scenario_counts(scenario, chunk, key, k_symbols)
    assert fused == expect
