"""Exhaustive checks of the tables the fused kernels read.

The fused fuzz samples the kernels' arithmetic; these tests pin all of
the two tables that replace arithmetic with lookups
(:mod:`repro.engine.tables`):

- **MUSE claims.** Every ELC entry's ordinal and addend, and its
  claimed symbol, the owner of bit v2(e) of its error value ``e``.
  Where that symbol is one run of bits from ``first``, ``claim_delta <<
  first == e``, and for every received value ``x`` of the symbol the
  claim verdict ``0 <= x - d < 2^w`` equals ``MuseCode.decode``'s
  ripple verdict on a word carrying ``x`` there.
- **RS check terms.** Every row equals the check symbols
  ``RSCode.encode`` gives its unit data word; a field above GF(2^8)
  takes one row per 8-bit slice, and its fused kernel still equals
  generate-then-decode.
"""

from array import array
from functools import partial

import pytest

from repro.core.codec import DecodeStatus, DetectionReason, MuseCode
from repro.core.codes import muse_80_67, muse_80_70
from repro.core.error_model import ErrorModel
from repro.core.symbols import SymbolLayout
from repro.engine import available_backends
from repro.engine.tables import MuseTables, RsTables
from repro.orchestrate.corruption import rs_scenario_chunk
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.reliability.monte_carlo import muse_design_point, rs_design_point
from repro.rs.engine import get_rs_engine
from repro.rs.reed_solomon import rs_for_channel
from repro.scenarios import resolve_scenario


def sequential_130_5() -> MuseCode:
    """The fuzz's limb-straddling code: symbols 12 and 25 cross limbs,
    so they are not runs."""
    return MuseCode(SymbolLayout.sequential(130, 5), 7797)


MUSE_CODES = [partial(muse_design_point, extra) for extra in range(6)] + [
    muse_80_67,  # Eq. 5 shuffle
    muse_80_70,  # Eq. 6 shuffle, hybrid model
    sequential_130_5,
]
RS_CODES = [partial(rs_design_point, extra) for extra in (0, 2, 4, 6)] + [
    partial(rs_for_channel, 8, 2040),  # n = 255 = field order
    # above GF(2^8): two 8-bit slices per value, the second partial
    partial(rs_for_channel, 10, 144),
    partial(rs_for_channel, 12, 150),  # and a partial symbol
]


def code_id(factory) -> str:
    if isinstance(factory, partial) and factory.args:
        return f"{factory.func.__name__}{factory.args}"
    code = factory()
    return getattr(code, "name", None) or repr(code)


def received_word(code: MuseCode, symbol: int, x: int, remainder: int) -> int:
    """A word of ``code`` whose run symbol ``symbol`` holds ``x`` and
    whose remainder is ``remainder``: bits below the symbol make up the
    residue when there are at least r of them, else bits above it."""
    bits = code.layout.symbols[symbol]
    first, top = bits[0], bits[-1] + 1
    word = x << first
    need = (remainder - word) % code.m
    if first >= code.r:
        return word + need
    filler = need * pow(1 << top, -1, code.m) % code.m
    assert filler >> (code.n - top) == 0
    return word + (filler << top)


def entry_rows(tables: MuseTables) -> list[int]:
    """The per-entry addends as ints (row 0 unused)."""
    limbs = array("Q", tables.addend)
    step = tables.limbs
    return [
        sum(limb << (64 * j) for j, limb in enumerate(limbs[row:row + step]))
        for row in range(0, len(limbs), step)
    ]


def run_first(bits: tuple[int, ...]) -> int:
    """The first bit of a symbol a kernel reads with one shift, else -1."""
    run = bits == tuple(range(bits[0], bits[0] + len(bits)))
    if run and len(bits) <= 32 and bits[0] // 64 == bits[-1] // 64:
        return bits[0]
    return -1


def run_claims(code: MuseCode, tables: MuseTables, exact: bool):
    """Check every entry of ``code``'s ELC; yield ``(remainder, symbol,
    delta)`` of each entry whose claimed symbol is a run.  ``exact``:
    each such delta shifts back to ``e``."""
    entry = array("I", tables.entry)
    claims = array("q", tables.claim_symbol)
    deltas = array("q", tables.claim_delta)
    firsts = array("q", tables.sym_first)
    addends = entry_rows(tables)
    width = 64 * tables.limbs
    values = code.elc.remainder_values
    assert len(entry) == code.m
    assert sum(1 for row in entry if row) == len(values)
    assert list(firsts) == [*map(run_first, code.layout.symbols), -1]
    for remainder, e in values.items():
        row = entry[remainder]
        assert addends[row] == (-e) % (1 << width)
        symbol = claims[row]
        v2 = (abs(e) & -abs(e)).bit_length() - 1
        assert code.layout.bit_to_symbol[v2] == symbol
        first = firsts[symbol]
        if first < 0:
            continue
        if exact:
            assert deltas[row] << first == e
        yield remainder, symbol, deltas[row]


def assert_claim_verdicts(code: MuseCode, exact: bool = True) -> int:
    """Every run claim's verdict of ``code`` against
    ``MuseCode.decode``'s; returns how many run claims there were."""
    claimed = 0
    for remainder, symbol, delta in run_claims(code, MuseTables(code), exact):
        claimed += 1
        width = len(code.layout.symbols[symbol])
        for x in range(1 << width):
            result = code.decode(received_word(code, symbol, x, remainder))
            if 0 <= x - delta < 1 << width:
                assert result.status is DecodeStatus.CORRECTED
            else:
                assert result.reason is DetectionReason.SYMBOL_OVERFLOW
    return claimed


@pytest.mark.parametrize("factory", MUSE_CODES, ids=code_id)
def test_muse_claims_equal_the_ripple_check(factory):
    code = factory()
    claimed = assert_claim_verdicts(code)
    runs = [run_first(bits) >= 0 for bits in code.layout.symbols]
    assert (claimed > 0) == any(runs)


class _ReachingModel(ErrorModel):
    """Two error values reaching far past the symbol owning their
    lowest bit (a model over another layout than the code's)."""

    n = 80

    def error_values(self):
        value = (1 << 70) + 1
        return frozenset({value, -value})


def test_muse_claim_delta_clamps_a_value_past_its_symbol():
    code = MuseCode(SymbolLayout.sequential(80, 4), 8191, _ReachingModel())
    tables = MuseTables(code)
    deltas = sorted(
        delta for *_, delta in run_claims(code, tables, exact=False)
    )
    assert deltas == [-(1 << 32), 1 << 32]
    assert assert_claim_verdicts(code, exact=False) == 2


def unit_checks(code, symbol: int, value: int) -> tuple[int, int]:
    data = [0] * code.data_symbols
    data[symbol] = value
    return code.encode(data)[-2:]


@pytest.mark.parametrize("factory", RS_CODES, ids=code_id)
def test_rs_check_terms_equal_encode_of_the_unit_word(factory):
    code = factory()
    tables = RsTables(code, 4)
    bits = tables.slice_bits
    assert bits == min(code.symbol_bits, 8)
    assert tables.slices == -(-code.symbol_bits // bits)
    terms = array("I", tables.check_terms)
    rows = code.data_symbols * tables.slices
    assert len(terms) == rows << bits
    for symbol, width in enumerate(code.symbol_widths[: code.data_symbols]):
        for piece in range(tables.slices):
            for v in range(1 << bits):
                value = v << (bits * piece)
                if value >> width:
                    continue
                term = terms[v * rows + piece * code.data_symbols + symbol]
                assert (term & 0xFFFF, term >> 16) == unit_checks(
                    code, symbol, value
                )


@pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler, or disabled)",
)
@pytest.mark.parametrize("channel", [(10, 144), (12, 150)], ids=str)
@pytest.mark.parametrize("k_symbols", [1, 2, 5])
def test_rs_fused_kernel_reads_every_slice(channel, k_symbols):
    """Above GF(2^8) the fused check solve XORs two slices per data
    symbol; msed over those codes still equals generate-then-decode."""
    code = rs_for_channel(*channel)
    native = get_rs_engine(code, "native", 4)
    numpy_engine = get_rs_engine(code, "numpy", 4)
    chunk, key = Chunk(7, 4099), derive_key(2022 + k_symbols)
    words = rs_scenario_chunk(
        resolve_scenario("msed"), code, chunk, key, k_symbols
    )
    assert native.fused_scenario_counts(
        "msed", chunk, key, k_symbols
    ) == numpy_engine.decode_batch(words).counts()
