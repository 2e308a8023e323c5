"""Reed-Solomon codec tests: encode, correct, detect, shorten."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.rs.reed_solomon import (
    RSCode,
    RSDecodeStatus,
    rs_80_64,
    rs_144_128,
    rs_for_channel,
)


class TestGeometry:
    def test_rs_144_128_shape(self):
        code = rs_144_128()
        assert code.n_bits == 144
        assert code.k_bits == 128
        assert code.n_symbols == 18
        assert code.check_bits == 16

    def test_rs_80_64_shape(self):
        code = rs_80_64()
        assert code.n_bits == 80
        assert code.k_bits == 64
        assert code.n_symbols == 10

    def test_table_iv_channel_codes(self):
        """Section VII-A design points over the 144-bit channel."""
        expected = {8: 128, 7: 130, 6: 132, 5: 134}
        for b, k_bits in expected.items():
            code = rs_for_channel(b, 144)
            assert code.n_bits == 144, f"b={b}"
            assert code.k_bits == k_bits, f"b={b}"

    def test_code_length_limit(self):
        with pytest.raises(ValueError, match="exceed"):
            RSCode(symbol_bits=4, data_symbols=14)  # 16 symbols > 15

    def test_partial_bits_validation(self):
        with pytest.raises(ValueError):
            RSCode(symbol_bits=8, data_symbols=4, partial_bits=8)


class TestEncode:
    def test_codeword_has_zero_syndromes(self):
        code = rs_144_128()
        rng = random.Random(3)
        for _ in range(20):
            data = [rng.randrange(256) for _ in range(16)]
            codeword = code.encode(data)
            assert code.syndromes(codeword) == (0, 0)

    def test_systematic_prefix(self):
        code = rs_80_64()
        data = list(range(8))
        assert code.encode(data)[:8] == tuple(data)

    def test_data_width_validation(self):
        code = rs_80_64()
        with pytest.raises(ValueError, match="expected 8"):
            code.encode([0] * 7)
        with pytest.raises(ValueError, match="out of range"):
            code.encode([256] + [0] * 7)

    def test_partial_symbol_padding_enforced(self):
        code = rs_for_channel(5, 144)
        data = [0] * code.data_symbols
        data[-1] = 0b10000  # uses the 5th (virtual) bit of a 4-bit symbol
        with pytest.raises(ValueError, match="virtual padding"):
            code.encode(data)


class TestCorrection:
    @given(
        data=st.lists(st.integers(0, 255), min_size=16, max_size=16),
        position=st.integers(0, 17),
        magnitude=st.integers(1, 255),
    )
    @settings(max_examples=200)
    def test_corrects_any_single_symbol_error(self, data, position, magnitude):
        code = rs_144_128()
        codeword = list(code.encode(data))
        codeword[position] ^= magnitude
        result = code.decode(codeword)
        assert result.status is RSDecodeStatus.CORRECTED
        assert result.symbols[:16] == tuple(data)
        assert result.error_position == position
        assert result.error_magnitude == magnitude

    def test_clean_decode(self):
        code = rs_80_64()
        codeword = code.encode(list(range(8)))
        result = code.decode(codeword)
        assert result.status is RSDecodeStatus.CLEAN
        assert result.symbols == codeword

    def test_decode_length_validation(self):
        code = rs_80_64()
        with pytest.raises(ValueError, match="expected 10"):
            code.decode([0] * 9)


class TestDetection:
    def test_two_symbol_errors_with_equal_magnitude_detected(self):
        """e1 == e2 makes S1-pattern degenerate (S1 may be 0): detected."""
        code = rs_144_128()
        codeword = list(code.encode([7] * 16))
        # Same magnitude in two positions i, j where alpha^i + alpha^j != 0
        codeword[0] ^= 0x55
        codeword[5] ^= 0x55
        result = code.decode(codeword)
        # Never a silent CLEAN; may be DETECTED or (rarely) miscorrected,
        # but for this magnitude/position pair detection is expected
        # because S1 = 0x55*(a^0 + a^5) != 0 and locator lands outside.
        assert result.status is not RSDecodeStatus.CLEAN

    def test_shortened_locator_detected(self):
        """An error syndrome pointing beyond 18 symbols is detected."""
        code = rs_144_128()
        field = code.field
        codeword = list(code.encode([0] * 16))
        # Construct syndrome for a phantom error at position 100:
        # add e*alpha^100 to S1 and e*alpha^200 to S2 by corrupting two
        # real symbols with crafted values is complex; instead check the
        # decoder path directly by corrupting with a multi-symbol error
        # known (by construction) to produce an out-of-range locator.
        rng = random.Random(9)
        detected_out_of_range = 0
        for _ in range(300):
            bad = list(codeword)
            for position in rng.sample(range(18), 2):
                bad[position] ^= rng.randrange(1, 256)
            s1, s2 = code.syndromes(bad)
            if s1 and s2:
                locator = field.div(s2, s1)
                if field.log_alpha(locator) >= 18:
                    result = code.decode(bad)
                    assert result.status is RSDecodeStatus.DETECTED
                    detected_out_of_range += 1
        assert detected_out_of_range > 0

    def test_partial_symbol_correction_on_padding_detected(self):
        """Corrections touching virtual bits must be declared detected."""
        code = rs_for_channel(5, 144)
        data = [0] * code.data_symbols
        codeword = list(code.encode(data))
        # Corrupt the partial (last data) symbol with a virtual-bit error:
        # flip a padding bit directly in the symbol-domain representation.
        codeword[code.data_symbols - 1] ^= 0b10000
        result = code.decode(codeword)
        # A real device could never produce this; decoder may correct it
        # back (magnitude on the same symbol) -- but the corrected value
        # must not retain padding bits. Either CORRECTED back to zero or
        # DETECTED is acceptable; silent CLEAN is not.
        assert result.status is not RSDecodeStatus.CLEAN
        if result.status is RSDecodeStatus.CORRECTED:
            assert result.symbols[code.data_symbols - 1] >> 4 == 0
