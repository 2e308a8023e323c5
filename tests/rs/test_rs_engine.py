"""Cross-backend equivalence for the Reed-Solomon batch engine.

The numpy PGZ path must be bit-exact with the scalar reference on every
Table-IV design point — b = 8, 7, 6 and 5 over the 144-bit channel,
including both partial-last-symbol codes — with and without the x4
device-confinement policy.
"""

import random

import pytest

from repro.engine import available_backends
from repro.orchestrate import Chunk, derive_key
from repro.orchestrate.corruption import rs_corruption_chunk
from repro.reliability.monte_carlo import RsMsedSimulator
from repro.rs.engine import (
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED_CONFINEMENT,
    STATUS_DETECTED_NO_MATCH,
    NumpyRsEngine,
    ScalarRsEngine,
    device_confined,
    get_rs_engine,
)
from repro.rs.reed_solomon import RSDecodeStatus, rs_for_channel

#: All four Table-IV RS design points; b=7 and b=5 shorten mid-symbol.
TABLE_IV_B = (8, 7, 6, 5)


def make_code(b):
    return rs_for_channel(b, 144)


class TestRegistry:
    def test_scalar_always_available(self):
        code = make_code(8)
        assert isinstance(get_rs_engine(code, "scalar"), ScalarRsEngine)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_rs_engine(make_code(8), "cuda")

    def test_engines_cached_per_code_and_policy(self):
        code = make_code(8)
        assert get_rs_engine(code, "scalar") is get_rs_engine(code, "scalar")
        assert get_rs_engine(code, "scalar") is not get_rs_engine(
            code, "scalar", device_bits=None
        )

    def test_auto_prefers_fastest_available(self):
        """auto lands on the top available rung; every vector backend
        subclasses the numpy engine, so the tables are shared."""
        engine = get_rs_engine(make_code(8), "auto")
        assert isinstance(engine, NumpyRsEngine)
        assert engine.name == available_backends()[-1]


class TestDeviceConfined:
    def test_single_nibble_confined(self):
        code = make_code(8)
        # symbol 0 spans channel bits 0..7 == devices 0 and 1
        assert device_confined(code, 0, 0b1010, 4)       # bits 1,3: device 0
        assert device_confined(code, 0, 0b1010 << 4, 4)  # bits 5,7: device 1
        assert not device_confined(code, 0, 0b10001, 4)  # bits 0,4: both

    def test_offsets_honour_partial_symbols(self):
        code = make_code(5)  # partial last data symbol (4 bits)
        offsets = code.symbol_bit_offsets
        assert offsets[code.data_symbols] - offsets[code.data_symbols - 1] == 4
        assert sum(code.symbol_widths) == code.n_bits

    def test_matches_bit_loop_reference(self):
        """lsb/msb shortcut == the original per-bit device walk."""
        code = make_code(6)
        rng = random.Random(4)
        for _ in range(500):
            position = rng.randrange(code.n_symbols)
            magnitude = rng.randrange(1, 1 << 6)
            offset = sum(code.symbol_widths[:position])
            devices = {
                (offset + bit) // 4
                for bit in range(6)
                if magnitude >> bit & 1
            }
            assert device_confined(code, position, magnitude, 4) == (
                len(devices) == 1
            )


class TestEncodeEquivalence:
    @pytest.mark.parametrize("b", TABLE_IV_B)
    def test_encode_batch_matches_scalar(self, b):
        code = make_code(b)
        rng = random.Random(42)
        rows = []
        for _ in range(100):
            rows.append(
                [
                    rng.randrange(1 << code.symbol_widths[i])
                    for i in range(code.data_symbols)
                ]
            )
        assert get_rs_engine(code, "numpy").encode_batch(rows) == [
            code.encode(row) for row in rows
        ]

    def test_encode_batch_rejects_padding_overflow(self):
        code = make_code(5)
        row = [0] * code.data_symbols
        row[-1] = 1 << code.partial_bits
        with pytest.raises(ValueError):
            get_rs_engine(code, "numpy").encode_batch([row])


#: Every non-reference backend this host can run gets the full matrix.
VECTOR_BACKENDS = [b for b in available_backends() if b != "scalar"]


class TestDecodeEquivalence:
    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("device_bits", [4, None], ids=["x4", "nopolicy"])
    def test_multi_symbol_stream_full_parity(self, b, device_bits, backend):
        """Same corrupted words -> identical per-word statuses/results."""
        code = make_code(b)
        words = rs_corruption_chunk(code, Chunk(0, 1500), derive_key(2022), 2)
        scalar = get_rs_engine(code, "scalar", device_bits).decode_batch(words)
        vector = get_rs_engine(code, backend, device_bits).decode_batch(words)
        assert list(scalar.statuses) == list(vector.statuses)
        assert scalar.counts() == vector.counts()
        assert scalar.results() == vector.results()

    @pytest.mark.parametrize("b", TABLE_IV_B)
    def test_results_match_single_word_decode(self, b):
        """results() reconstructs exactly what RSCode.decode returns."""
        code = make_code(b)
        words = rs_corruption_chunk(code, Chunk(0, 400), derive_key(7), 2)
        batch = get_rs_engine(code, "numpy").decode_batch(words)
        assert batch.results() == [code.decode(list(row)) for row in words.tolist()]

    def test_single_symbol_corruptions_all_corrected(self):
        """The single-symbol correction guarantee survives vectorisation."""
        code = make_code(8)
        rng = random.Random(3)
        rows, expected = [], []
        for _ in range(300):
            data = [rng.randrange(256) for _ in range(code.data_symbols)]
            word = list(code.encode(data))
            position = rng.randrange(code.n_symbols)
            word[position] ^= rng.randrange(1, 256)
            rows.append(word)
            expected.append(tuple(data))
        batch = get_rs_engine(code, "numpy", device_bits=None).decode_batch(rows)
        results = batch.results()
        assert all(r.status is RSDecodeStatus.CORRECTED for r in results)
        assert [r.symbols[: code.data_symbols] for r in results] == expected

    def test_device_confined_nibble_errors_accepted(self):
        """A real x4 device failure is never vetoed by the policy."""
        code = make_code(8)
        rng = random.Random(8)
        rows = []
        for _ in range(200):
            data = [rng.randrange(256) for _ in range(code.data_symbols)]
            word = list(code.encode(data))
            position = rng.randrange(code.n_symbols)
            nibble = rng.randrange(2)  # which half of the 8-bit symbol
            word[position] ^= rng.randrange(1, 16) << (4 * nibble)
            rows.append(word)
        statuses = get_rs_engine(code, "numpy", device_bits=4).decode_batch(
            rows
        ).statuses
        assert all(s == STATUS_CORRECTED for s in statuses.tolist())

    def test_clean_words_decode_clean(self):
        code = make_code(6)
        rng = random.Random(11)
        rows = [
            list(
                code.encode(
                    [rng.randrange(64) for _ in range(code.data_symbols)]
                )
            )
            for _ in range(60)
        ]
        for backend in available_backends():
            statuses = get_rs_engine(code, backend).decode_batch(rows).statuses
            assert all(s == STATUS_CLEAN for s in list(statuses))

    def test_shortened_locator_detected_in_batch(self):
        """Out-of-range locators land in the detected bucket, both paths."""
        code = make_code(8)
        words = rs_corruption_chunk(code, Chunk(0, 2000), derive_key(5), 2)
        vector = get_rs_engine(code, "numpy").decode_batch(words)
        counts = vector.counts()
        assert counts[STATUS_DETECTED_NO_MATCH] > 0
        assert counts[STATUS_DETECTED_CONFINEMENT] > 0

    def test_batch_shape_validated(self):
        code = make_code(8)
        with pytest.raises(ValueError, match="symbol array"):
            get_rs_engine(code, "numpy").decode_batch([[0, 1, 2]])

    def test_batch_symbol_range_validated(self):
        code = make_code(8)
        row = [0] * code.n_symbols
        row[0] = 256
        with pytest.raises(ValueError, match="fit in GF"):
            get_rs_engine(code, "numpy").decode_batch([row])


class TestSimulatorParity:
    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("b", TABLE_IV_B)
    def test_fixed_seed_tallies_identical(self, b, backend):
        """The Table-IV contract: byte-identical MsedResult per backend
        (the native rung takes the fused chunk path here)."""
        code = make_code(b)
        scalar = RsMsedSimulator(code, backend="scalar").run(1200, seed=2022)
        vector = RsMsedSimulator(code, backend=backend).run(1200, seed=2022)
        assert scalar == vector

    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("b", TABLE_IV_B)
    def test_policy_off_tallies_identical(self, b, backend):
        code = make_code(b)
        scalar = RsMsedSimulator(
            code, device_bits=None, backend="scalar"
        ).run(1000, seed=5)
        vector = RsMsedSimulator(
            code, device_bits=None, backend=backend
        ).run(1000, seed=5)
        assert scalar == vector
        assert scalar.detected_confinement == 0

    @pytest.mark.parametrize("backend", VECTOR_BACKENDS)
    @pytest.mark.parametrize("k_symbols", [1, 3])
    def test_other_symbol_counts_tallies_identical(self, k_symbols, backend):
        """k=1 rides the fused kernel; k=3 is generated then decoded."""
        code = make_code(8)
        scalar = RsMsedSimulator(
            code, k_symbols=k_symbols, backend="scalar"
        ).run(1000, seed=11)
        vector = RsMsedSimulator(
            code, k_symbols=k_symbols, backend=backend
        ).run(1000, seed=11)
        assert scalar == vector

    @pytest.mark.parametrize("device_bits", [4, None], ids=["x4", "nopolicy"])
    @pytest.mark.parametrize(
        "b, channel", [(8, 576), (7, 576), (8, 1024)], ids=["72", "83", "128"]
    )
    def test_native_past_64_symbols_matches_numpy(self, b, channel, device_bits):
        """No native kernel buffer is sized by the symbol count, so
        ``native`` (and ``auto``) runs codes past 64 symbols and tallies
        numpy's stream, shortened mid-symbol or not, policy on or off.
        The 100 pins that stream on the 72-symbol code: a second stream
        once tallied 113 there."""
        if "native" not in available_backends():
            pytest.skip("native backend unavailable")
        code = rs_for_channel(b, channel)
        assert code.n_symbols > 64
        assert get_rs_engine(code, "auto", device_bits) is get_rs_engine(
            code, "native", device_bits
        )
        native = RsMsedSimulator(code, device_bits=device_bits, backend="native")
        numpy = RsMsedSimulator(code, device_bits=device_bits, backend="numpy")
        result = numpy.run(3000, seed=2022)
        assert native.run(3000, seed=2022) == result
        if (b, channel, device_bits) == (8, 576, 4):
            assert result.miscorrected == 100


class TestCorruptionGeneration:
    def test_deterministic_under_seed(self):
        import numpy as np

        code = make_code(7)
        first = rs_corruption_chunk(code, Chunk(0, 500), derive_key(11))
        second = rs_corruption_chunk(code, Chunk(0, 500), derive_key(11))
        assert np.array_equal(first, second)

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_every_word_has_exactly_k_corrupted_symbols(self, k):
        """Recover the clean words from the shared counter-hashed data
        stream, then diff against the corrupted batch."""
        from repro.orchestrate.corruption import rs_clean_chunk

        code = make_code(5)
        seed = 40 + k
        clean = rs_clean_chunk(code, Chunk(0, 200), derive_key(seed))
        corrupted = rs_corruption_chunk(code, Chunk(0, 200), derive_key(seed), k)
        assert ((clean != corrupted).sum(axis=1) == k).all()

    def test_corrupted_symbols_respect_physical_widths(self):
        code = make_code(5)  # 4-bit partial last data symbol
        words = rs_corruption_chunk(code, Chunk(0, 3000), derive_key(2), 2)
        for index in range(code.n_symbols):
            width = code.symbol_widths[index]
            assert int(words[:, index].max()) < (1 << width)

    def test_k_symbols_bounds_checked(self):
        code = make_code(8)
        with pytest.raises(ValueError):
            rs_corruption_chunk(code, Chunk(0, 10), derive_key(1), 0)
        with pytest.raises(ValueError):
            rs_corruption_chunk(
                code, Chunk(0, 10), derive_key(1), code.n_symbols + 1
            )
