"""Unit tests for repro.core.residue (Eq. 4, Table II)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.residue import check_bits, redundancy_bits, systematic_encode


class TestRedundancyBits:
    def test_paper_multipliers(self):
        """Table II: r = ceil(log2 m) for every Table I / III multiplier."""
        assert redundancy_bits(4065) == 12
        assert redundancy_bits(2005) == 11
        assert redundancy_bits(5621) == 13
        assert redundancy_bits(821) == 10
        assert redundancy_bits(65519) == 16
        assert redundancy_bits(3621) == 12

    def test_rejects_trivial_multiplier(self):
        with pytest.raises(ValueError):
            redundancy_bits(1)


class TestSystematic:
    def test_check_bits_make_codeword_divisible(self):
        for data in (0, 1, 0xFFFF, 0xDEADBEEF):
            codeword = systematic_encode(data, 4065)
            assert codeword % 4065 == 0

    def test_check_value_fits_in_r_bits(self):
        for data in range(0, 4096, 37):
            x = check_bits(data, 2005)
            assert 0 <= x < 2005

    def test_data_separable_without_division(self):
        """Eq. 4 / Figure 3a: data recovery is a shift, no arithmetic."""
        data = 0xCAFED00D
        codeword = systematic_encode(data, 4065)
        assert codeword >> 12 == data

    def test_check_field_extraction(self):
        data = 12345
        r = redundancy_bits(2005)
        codeword = systematic_encode(data, 2005)
        assert codeword & ((1 << r) - 1) == check_bits(data, 2005)

    def test_error_shifts_remainder_by_error_value(self):
        """The residue fingerprint: remainder == error value mod m."""
        data = 0x123456789
        m = 4065
        codeword = systematic_encode(data, m)
        for error in (1, -1, 1 << 40, -(1 << 40), 0b101 << 8):
            corrupted = codeword + error
            assert corrupted % m == error % m

    @given(
        data=st.integers(min_value=0, max_value=(1 << 132) - 1),
        m=st.sampled_from([4065, 2005, 5621, 821]),
    )
    def test_encode_decode_roundtrip(self, data, m):
        r = redundancy_bits(m)
        codeword = systematic_encode(data, m, r)
        assert codeword % m == 0
        assert codeword >> r == data

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            systematic_encode(-1, 4065)


class TestArithmetic:
    """The residue arithmetic the paper leverages for PIM: check values
    and codewords compose under addition, so a sum can be checked
    without decoding its operands."""

    @given(
        a=st.integers(min_value=0, max_value=(1 << 132) - 1),
        b=st.integers(min_value=0, max_value=(1 << 132) - 1),
        m=st.sampled_from([4065, 2005, 5621, 821, 3621]),
    )
    def test_check_bits_add_modulo_m(self, a, b, m):
        assert (check_bits(a, m) + check_bits(b, m)) % m == check_bits(
            a + b, m
        )

    @given(
        a=st.integers(min_value=0, max_value=(1 << 64) - 1),
        b=st.integers(min_value=0, max_value=(1 << 64) - 1),
        m=st.sampled_from([4065, 2005, 5621, 821, 3621]),
    )
    def test_sum_of_codewords_is_divisible(self, a, b, m):
        total = systematic_encode(a, m) + systematic_encode(b, m)
        assert total % m == 0

    @given(
        a=st.integers(min_value=0, max_value=(1 << 64) - 1),
        b=st.integers(min_value=0, max_value=(1 << 64) - 1),
        error=st.integers(min_value=-(1 << 80), max_value=1 << 80),
    )
    def test_error_in_a_sum_keeps_its_fingerprint(self, a, b, error):
        """An error striking a summed word leaves ``error % m``, the
        same fingerprint it leaves on a single codeword."""
        m = 4065
        total = systematic_encode(a, m) + systematic_encode(b, m)
        assert (total + error) % m == error % m
