"""Monte-Carlo against exact enumeration: the model's ground truth.

Byte-identity across backends, chunk splits and fleets only shows that
every path runs the same model.  Here the sampled msed stream is
checked against the exact outcome distribution, enumerated exhaustively
where the outcome space is small enough:

* TOY(16,7) — 128 data words x every symbol pair (triple) x every
  never-the-original replacement: 172,800 cases at k = 2, decoded by
  the scalar codec, and 1,728,000 at k = 3, built vectorised and
  decoded by the numpy engine.  Every case is equally likely.
* the four RS Table-IV points at k = 2 with the x4 device policy on,
  and +6b also with it off.  The decode reads only the error pattern,
  and an msed replacement's XOR with the original is uniform over the
  nonzero values of the symbol's width, whatever the original was.  So
  every pattern is placed on the zero codeword and weighted by its
  sampling probability, ``1 / (C(n, 2) (2^w_p - 1) (2^w_q - 1))``.

Each outcome class of a fixed-seed Monte-Carlo run must lie within
|z| < 4 of its exact rate, on the ``auto`` backend (the fused kernels
where they run) and on ``numpy`` (the toy on ``scalar``); a class whose
exact rate is 0 must see no event at all.

The weights those enumerations assume are checked on the generated
stream itself: the toy's clean words, corrupted symbol sets and
replacements, MUSE(144,132)'s and RS's symbol pairs, and RS's error
values, are each uniform over what the enumeration ranges over (a
chi-square statistic within 4 standard deviations), and no replacement
equals its original.

Last, silent is exactly 0 at k = 2 on all ten Table-IV points, shown
from the codes' structure rather than sampled: a MUSE two-symbol error
aliases only if an error value of one symbol is congruent mod m to the
negation of an error value of the other, and an RS one only if the
2 x 2 syndrome matrix of its two positions is singular.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import comb, sqrt

import numpy as np
import pytest

from repro.core.codes import toy_16_7
from repro.core.error_model import symbol_error_values
from repro.engine import get_engine
from repro.engine.base import status_of
from repro.engine.numpy_backend import (
    extract_symbol_batch,
    insert_symbol_batch,
)
from repro.orchestrate.corruption import (
    muse_clean_chunk,
    muse_corruption_chunk,
    rs_clean_chunk,
    rs_corruption_chunk,
)
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.reliability.monte_carlo import (
    MuseMsedSimulator,
    RsMsedSimulator,
    muse_design_point,
    rs_design_point,
)
from repro.rs.engine import get_rs_engine

SEED = 17
#: The tally fields of the four decode statuses, in ``counts()`` order:
#: CLEAN, CORRECTED, no-match, ripple / device veto.
CLASSES = ("silent", "miscorrected", "detected_no_match", "detected_confinement")


def assert_matches_exact(result, exact):
    """Every outcome class of ``result`` lies within |z| < 4 of its
    exact rate in ``exact`` (Fractions in :data:`CLASSES` order); a
    class of exact rate 0 has no events."""
    n = result.trials
    for name, rate in zip(CLASSES, exact):
        count = getattr(result, name)
        if rate == 0:
            assert count == 0, f"{name}: {count} events, exact rate 0"
            continue
        p = float(rate)
        z = (count - n * p) / sqrt(n * p * (1 - p))
        assert abs(z) < 4, f"{name}: {count}/{n} vs exact {p:.6f}, z = {z:.2f}"


def chi_square_z(observed, expected, dof):
    """The chi-square statistic of ``observed`` against ``expected``
    as a standard normal deviate (Wilson-Hilferty), so one bound of 4
    serves any number of degrees of freedom ``dof``."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    stat = float(((observed - expected) ** 2 / expected).sum())
    scale = 2 / (9 * dof)
    return ((stat / dof) ** (1 / 3) - (1 - scale)) / sqrt(scale)


def toy_exact_k2():
    """Decode every k = 2 TOY(16,7) case with the scalar codec."""
    code = toy_16_7()
    layout = code.layout
    counts = [0] * 4
    for data in range(1 << code.k):
        clean = code.encode(data)
        for a, b in itertools.combinations(range(layout.symbol_count), 2):
            original_a = layout.extract_symbol(clean, a)
            original_b = layout.extract_symbol(clean, b)
            for value_a in range(16):
                if value_a == original_a:
                    continue
                word = layout.insert_symbol(clean, a, value_a)
                for value_b in range(16):
                    if value_b != original_b:
                        corrupted = layout.insert_symbol(word, b, value_b)
                        counts[status_of(code.decode(corrupted))] += 1
    return counts


def toy_exact_k3():
    """Decode every k = 3 TOY(16,7) case with the numpy engine: per
    symbol triple, each clean word fans out over the 15^3 replacement
    triples, the j-th replacement of a symbol being its original plus
    ``j + 1`` mod 16."""
    code = toy_16_7()
    layout = code.layout
    engine = get_engine(code, "numpy")
    clean = engine.encode_limbs(
        np.arange(1 << code.k, dtype=np.uint64)[:, None]
    )
    steps = np.indices((15, 15, 15)).reshape(3, -1).astype(np.uint64)
    counts = np.zeros(4, dtype=np.int64)
    for triple in itertools.combinations(range(layout.symbol_count), 3):
        words = np.repeat(clean, steps.shape[1], axis=0)
        for symbol, step in zip(triple, steps):
            original = extract_symbol_batch(clean, layout, symbol)
            values = (original[:, None] + np.uint64(1) + step) & np.uint64(15)
            insert_symbol_batch(words, layout, symbol, values.ravel())
        counts += engine.decode_batch(words).counts()
    return [int(count) for count in counts]


@cache
def rs_exact_k2(extra_bits, device_bits):
    """Exact k = 2 outcome rates of an RS Table-IV point: every
    two-symbol error pattern on the zero codeword, decoded by the
    ``auto`` engine (native's batch decode where it runs) and weighted
    by its sampling probability."""
    code = rs_design_point(extra_bits)
    engine = get_rs_engine(code, "auto", device_bits=device_bits)
    widths = code.symbol_widths
    rates = [Fraction(0)] * 4
    patterns = 0
    for p, q in itertools.combinations(range(code.n_symbols), 2):
        errors_p = np.arange(1, 1 << widths[p], dtype=np.uint32)
        errors_q = np.arange(1, 1 << widths[q], dtype=np.uint32)
        words = np.zeros(
            (errors_p.size * errors_q.size, code.n_symbols), dtype=np.uint32
        )
        words[:, p] = np.repeat(errors_p, errors_q.size)
        words[:, q] = np.tile(errors_q, errors_p.size)
        for index, count in enumerate(engine.decode_batch(words).counts()):
            rates[index] += Fraction(count, len(words))
        patterns += len(words)
    pairs = comb(code.n_symbols, 2)
    return patterns, [rate / pairs for rate in rates]


@pytest.fixture(scope="module")
def toy_exact():
    return {2: toy_exact_k2(), 3: toy_exact_k3()}


class TestToyExact:
    def test_enumeration_counts(self, toy_exact):
        """Both enumerations cover every case; at k = 2 nothing is
        silent (two symbol errors cannot cancel mod m), at k = 3 the
        classes are 0.280 / 15.573 / 68.754 / 15.393 %."""
        assert toy_exact[2] == [0, 14535, 131674, 26591]
        assert sum(toy_exact[2]) == 128 * 6 * 15**2
        assert toy_exact[3] == [4845, 269102, 1188068, 265985]
        assert sum(toy_exact[3]) == 128 * 4 * 15**3

    @pytest.mark.parametrize(
        "k_symbols, backend, trials",
        [(2, "auto", 200_000), (3, "auto", 200_000),
         (2, "scalar", 20_000), (3, "scalar", 20_000)],
        ids=["k2-auto", "k3-auto", "k2-scalar", "k3-scalar"],
    )
    def test_monte_carlo_matches_exact(
        self, toy_exact, k_symbols, backend, trials
    ):
        counts = toy_exact[k_symbols]
        exact = [Fraction(count, sum(counts)) for count in counts]
        result = MuseMsedSimulator(
            toy_16_7(), k_symbols=k_symbols, backend=backend
        ).run(trials=trials, seed=SEED)
        assert_matches_exact(result, exact)


#: ``(extra_bits, device_bits, patterns, percent)``: each RS point's
#: enumerated pattern count and exact outcome rates in :data:`CLASSES`
#: order.
RS_EXACT = [
    (0, 4, 9_948_825, [0.0, 0.738, 93.725, 5.536]),
    (2, 4, 3_102_610, [0.0, 2.333, 85.668, 11.999]),
    (4, 4, 1_095_444, [0.0, 9.977, 65.079, 24.943]),
    (6, 4, 376_278, [0.0, 35.850, 14.453, 49.697]),
    (6, None, 376_278, [0.0, 85.547, 14.453, 0.0]),
]


class TestRsExact:
    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    @pytest.mark.parametrize(
        "extra_bits, device_bits, patterns, percent",
        RS_EXACT,
        ids=["+0b", "+2b", "+4b", "+6b", "+6b-policy-off"],
    )
    def test_monte_carlo_matches_exact(
        self, extra_bits, device_bits, patterns, percent, backend
    ):
        enumerated, exact = rs_exact_k2(extra_bits, device_bits)
        assert enumerated == patterns
        assert sum(exact) == 1
        assert [round(100 * float(rate), 3) for rate in exact] == percent
        result = RsMsedSimulator(
            rs_design_point(extra_bits), device_bits=device_bits,
            backend=backend,
        ).run(trials=200_000, seed=SEED)
        assert_matches_exact(result, exact)


#: Trials of the generated stream behind each sampling-premise check.
PREMISE_TRIALS = 60_000


@cache
def muse_stream(point, k_symbols):
    """The clean words of ``point`` (``"toy"`` for TOY(16,7), else a
    MUSE Table-IV point's extra bits), then its clean and corrupted
    msed words at ``k_symbols`` as ``(trials, symbols)`` symbol
    grids."""
    code = toy_16_7() if point == "toy" else muse_design_point(point)
    chunk, key = Chunk(0, PREMISE_TRIALS), derive_key(SEED)
    clean = muse_clean_chunk(code, chunk, key)
    corrupted = muse_corruption_chunk(code, chunk, key, k_symbols)
    grids = [
        np.stack(
            [extract_symbol_batch(words, code.layout, index)
             for index in range(code.layout.symbol_count)],
            axis=1,
        )
        for words in (clean, corrupted)
    ]
    return clean, *grids


@cache
def rs_stream():
    """RS +6b's clean and corrupted k = 2 msed words."""
    code = rs_design_point(6)
    chunk, key = Chunk(0, PREMISE_TRIALS), derive_key(SEED)
    return (
        code,
        rs_clean_chunk(code, chunk, key),
        rs_corruption_chunk(code, chunk, key, 2),
    )


class TestSamplingPremises:
    """The exact rates weight every enumerated case by how often the
    msed stream draws it; these pin those weights on the stream."""

    def test_toy_clean_words_are_uniform_over_the_codewords(self):
        code = toy_16_7()
        clean, _, _ = muse_stream("toy", 2)
        values, counts = np.unique(clean[:, 0], return_counts=True)
        assert set(values.tolist()) == {
            code.encode(data) for data in range(1 << code.k)
        }
        expected = np.full(values.size, PREMISE_TRIALS / values.size)
        assert chi_square_z(counts, expected, values.size - 1) < 4

    @pytest.mark.parametrize(
        "point, k_symbols", [("toy", 2), ("toy", 3), (0, 2), ("rs", 2)],
        ids=["toy-k2", "toy-k3", "muse+0b-k2", "rs-k2"],
    )
    def test_corrupted_symbol_sets_are_uniform(self, point, k_symbols):
        """Exactly ``k`` symbols differ from the clean word in every
        trial (a replacement never equals its original), and each of
        the C(symbols, k) sets is drawn equally often: 4 or 6 sets on
        the toy, 630 pairs of MUSE(144,132)'s 36 symbols, 406 of RS
        +6b's 29."""
        if point == "rs":
            _, clean, corrupted = rs_stream()
        else:
            _, clean, corrupted = muse_stream(point, k_symbols)
        differs = clean != corrupted
        assert (differs.sum(axis=1) == k_symbols).all()
        symbols = differs.shape[1]
        sets = differs.astype(np.int64) @ (1 << np.arange(symbols))
        _, counts = np.unique(sets, return_counts=True)
        cells = comb(symbols, k_symbols)
        assert counts.size == cells
        expected = np.full(cells, PREMISE_TRIALS / cells)
        assert chi_square_z(counts, expected, cells - 1) < 4

    def test_toy_replacement_is_uniform_over_the_other_values(self):
        """Given its original, a corrupted toy symbol takes each of the
        15 other values equally often: step ``j`` (replacement =
        original + j + 1 mod 16) is uniform over 0..14."""
        _, clean, corrupted = muse_stream("toy", 2)
        rows, columns = np.nonzero(clean != corrupted)
        original = clean[rows, columns].astype(np.int64)
        step = (corrupted[rows, columns].astype(np.int64) - original - 1) % 16
        assert step.max() < 15
        table = np.bincount(original * 15 + step, minlength=16 * 15)
        table = table.reshape(16, 15)
        expected = np.repeat(table.sum(axis=1, keepdims=True) / 15, 15, axis=1)
        assert chi_square_z(table, expected, 16 * 14) < 4

    def test_rs_error_value_is_uniform_whatever_the_original(self):
        """The premise of placing RS patterns on the zero codeword: a
        corrupted symbol's XOR with its original is uniform over the
        2^w - 1 nonzero values of its width, for every original."""
        code, clean, corrupted = rs_stream()
        rows, columns = np.nonzero(clean != corrupted)
        widths = np.asarray(code.symbol_widths)[columns]
        for width in np.unique(widths):
            mine = widths == width
            original = clean[rows[mine], columns[mine]].astype(np.int64)
            error = original ^ corrupted[rows[mine], columns[mine]]
            values = 1 << int(width)
            table = np.bincount(
                original * values + error, minlength=values * values
            ).reshape(values, values)
            assert table[:, 0].sum() == 0
            observed = table[:, 1:]
            expected = np.repeat(
                observed.sum(axis=1, keepdims=True) / (values - 1),
                values - 1,
                axis=1,
            )
            dof = values * (values - 2)
            assert chi_square_z(observed, expected, dof) < 4, f"width {width}"


class TestSilentIsZeroAtK2:
    """Finding 1: no two-symbol error reads back clean on any Table-IV
    point, so the k = 2 silent rate is exactly 0, not merely rare."""

    @pytest.mark.parametrize("extra_bits", range(6))
    def test_muse_no_two_symbol_error_aliases(self, extra_bits):
        """A k = 2 msed error adds one error value of each of two
        symbols (``symbol_error_values`` holds every delta a
        replacement can make), and it is silent iff their sum is 0
        mod m: iff one symbol's value is congruent to the negation of
        the other's."""
        code = muse_design_point(extra_bits)
        m = code.m
        residues = [
            {value % m for value in symbol_error_values(symbol)}
            for symbol in code.layout.symbols
        ]
        negated = [
            {-value % m for value in symbol_error_values(symbol)}
            for symbol in code.layout.symbols
        ]
        aliasing = [
            (a, b)
            for a, b in itertools.combinations(range(len(residues)), 2)
            if residues[a] & negated[b]
        ]
        assert aliasing == []

    @pytest.mark.parametrize("extra_bits", [0, 2, 4, 6])
    def test_rs_syndrome_matrix_of_every_pair_is_nonsingular(self, extra_bits):
        """Errors e_p, e_q at positions p and q give the syndromes
        [[a^p, a^q], [a^2p, a^2q]] (e_p, e_q); a nonsingular matrix
        maps a nonzero pair to a nonzero syndrome."""
        code = rs_design_point(extra_bits)
        field = code.field
        alpha = field.pow_alpha
        singular = [
            (p, q)
            for p, q in itertools.combinations(range(code.n_symbols), 2)
            if field.mul(alpha(p), alpha(2 * q)) == field.mul(alpha(q), alpha(2 * p))
        ]
        assert singular == []
