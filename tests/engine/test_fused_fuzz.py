"""Differential fuzz of the fused-kernel contract.

For any design point, replayable scenario, ``k``, chunk range and seed,
the native fused draw->decode->tally pass must return the counts numpy
gets by generating the corrupted chunk and batch-decoding it.  The
points are Table IV's plus off-table codes that stress the kernels'
limits: the widest native MUSE code, the Eq. 5 shuffle, the hybrid
error model, a 4-symbol toy, 5- and 6-bit symbols that straddle limbs
(read and written bit by bit), and RS codes from 4 to 255 symbols over
GF(2^3)..GF(2^8), with partial symbols and with n equal to the field
order.  Each point is fuzzed on its own, derandomized with a bounded
example count, so the suite stays hermetic and every run draws the
same cases.
"""

from functools import cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.codec import MuseCode
from repro.core.codes import muse_80_67, muse_80_70, muse_268_256, toy_16_7
from repro.core.symbols import SymbolLayout
from repro.engine import available_backends, get_engine
from repro.orchestrate.corruption import muse_scenario_chunk, rs_scenario_chunk
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.reliability.monte_carlo import muse_design_point, rs_design_point
from repro.rs.engine import get_rs_engine
from repro.rs.reed_solomon import rs_for_channel
from repro.scenarios import resolve_scenario

pytestmark = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler, or disabled)",
)


@cache
def sequential_code(n: int, symbol_bits: int, m: int) -> MuseCode:
    """MUSE over ``SymbolLayout.sequential(n, symbol_bits)``; ``m`` is
    ``MultiplierSearch(...).run_descending(stop_after=1)``'s pick."""
    return MuseCode(SymbolLayout.sequential(n, symbol_bits), m)


MUSE_CODES = [partial(muse_design_point, extra) for extra in range(6)] + [
    muse_268_256,  # 67 symbols over 5 limbs: the widest native MUSE code
    muse_80_67,  # Eq. 5 shuffled layout
    muse_80_70,  # hybrid C4A_U1B error model
    toy_16_7,  # 4 symbols
    # symbols 12 and 25 straddle limbs 0/1 and 1/2; 3 check symbols
    partial(sequential_code, 130, 5, 7797),
    partial(sequential_code, 72, 6, 16247),  # symbol 10 straddles
]
RS_CODES = [partial(rs_design_point, extra) for extra in (0, 2, 4, 6)] + [
    partial(rs_for_channel, bits, channel)
    for bits, channel in (
        (3, 12),  # 4 symbols
        (3, 20),  # n = 7 = field order, partial symbol
        (4, 60),  # n = 15 = field order
        (5, 152),  # n = 31 = field order, partial symbol
        (6, 370),  # 62 symbols, partial symbol
        (7, 448),  # 64 symbols
        (8, 500),  # 63 symbols, partial symbol
        (8, 576),  # 72 symbols
        (8, 2040),  # n = 255 = field order
    )
]
DESIGN_POINTS = [("MUSE", factory) for factory in MUSE_CODES] + [
    ("RS", factory) for factory in RS_CODES
]


def point_id(point) -> str:
    family, factory = point
    if isinstance(factory, partial):
        args = ",".join(str(arg) for arg in factory.args)
        return f"{family}-{factory.func.__name__}({args})"
    return f"{family}-{factory.__name__}"


def engines(family, factory, flag):
    """``(code, native, numpy, generate)`` of one design point; ``flag``
    is the ripple check (MUSE) or the x4 device policy (RS)."""
    if family == "MUSE":
        code = factory()
        native = get_engine(code, "native", ripple_check=flag)
        numpy = get_engine(code, "numpy", ripple_check=flag)
        return code, native, numpy, muse_scenario_chunk
    code = factory()
    device_bits = 4 if flag else None
    native = get_rs_engine(code, "native", device_bits)
    numpy = get_rs_engine(code, "numpy", device_bits)
    return code, native, numpy, rs_scenario_chunk


#: The choice scan scores up to 8 trials at once, one per vector lane,
#: and drops the lanes past a chunk's end: chunks that end inside, on
#: and just past a lane block, at starts off the global 8-trial grid,
#: for both streams at both k.
LANE_EDGES = [
    {
        "scenario": scenario,
        "k_symbols": k_symbols,
        "start": 2**33 * index + (1, 3, 5, 7)[index % 4],
        "size": size,
        "seed": 2022 + index,
        "flag": index % 2 == 0,
    }
    for scenario in ("msed", "mbu")
    for k_symbols in (1, 2)
    for index, size in enumerate((1, 3, 4, 5, 7, 8, 9, 16, 17))
]


def lane_edge_examples(test):
    for case in LANE_EDGES:
        test = example(**case)(test)
    return test


# Every point gets its own draws, so none is left out by the sampler.
@pytest.mark.parametrize("point", DESIGN_POINTS, ids=point_id)
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@lane_edge_examples
@given(
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
