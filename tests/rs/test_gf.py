"""Galois-field arithmetic tests."""

from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rs.gf import PRIMITIVE_POLYNOMIALS, GaloisField, get_field


@pytest.fixture(scope="module")
def gf16():
    return get_field(4)


@pytest.fixture(scope="module")
def gf256():
    return get_field(8)


class TestTables:
    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYNOMIALS))
    def test_exp_table_is_a_permutation_of_nonzero(self, m):
        field = get_field(m)
        assert sorted(field.exp) == list(range(1, field.size))

    def test_log_exp_inverse(self, gf256):
        for i in range(gf256.order):
            assert gf256.log[gf256.exp[i]] == i

    def test_unsupported_size_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            GaloisField(17)


class TestOperations:
    def test_add_is_xor(self, gf16):
        assert gf16.add(0b1010, 0b0110) == 0b1100

    def test_mul_identities(self, gf256):
        for a in (0, 1, 2, 37, 255):
            assert gf256.mul(a, 0) == 0
            assert gf256.mul(a, 1) == a

    def test_gf16_known_product(self, gf16):
        # In GF(16) with x^4+x+1: x * x^3 = x^4 = x + 1 -> 2 * 8 = 3.
        assert gf16.mul(2, 8) == 3

    @given(a=st.integers(1, 255), b=st.integers(1, 255))
    @settings(max_examples=200)
    def test_div_inverts_mul(self, a, b):
        field = get_field(8)
        assert field.div(field.mul(a, b), b) == a

    @given(a=st.integers(1, 255))
    @settings(max_examples=100)
    def test_inverse(self, a):
        field = get_field(8)
        assert field.mul(a, field.inv(a)) == 1

    def test_div_by_zero(self, gf256):
        with pytest.raises(ZeroDivisionError):
            gf256.div(5, 0)
        with pytest.raises(ZeroDivisionError):
            gf256.inv(0)

    def test_log_of_zero(self, gf256):
        with pytest.raises(ValueError):
            gf256.log_alpha(0)

    @given(a=st.integers(1, 15), b=st.integers(1, 15), c=st.integers(1, 15))
    @settings(max_examples=200)
    def test_mul_associative_and_distributive(self, a, b, c):
        field = get_field(4)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)

    def test_pow_alpha_wraps(self, gf16):
        assert gf16.pow_alpha(0) == 1
        assert gf16.pow_alpha(gf16.order) == 1
        assert gf16.pow_alpha(-1) == gf16.exp[gf16.order - 1]

    def test_poly_eval_horner(self, gf16):
        # p(x) = x^2 + 3 at x=2: 4 ^ 3 = 7
        assert gf16.poly_eval([1, 0, 3], 2) == 7


class TestDoubledExpTable:
    @pytest.mark.parametrize("m", (4, 5, 8))
    def test_exp2_is_exp_wrapped(self, m):
        field = get_field(m)
        assert len(field._exp2) == 2 * field.order
        for i in range(2 * field.order):
            assert field._exp2[i] == field.exp[i % field.order]

    @given(a=st.integers(1, 255), b=st.integers(1, 255))
    @settings(max_examples=200)
    def test_mul_div_match_modular_formula(self, a, b):
        """The doubled-table fast path equals the % order reference."""
        field = get_field(8)
        assert field.mul(a, b) == field.exp[
            (field.log[a] + field.log[b]) % field.order
        ]
        assert field.div(a, b) == field.exp[
            (field.log[a] - field.log[b]) % field.order
        ]


class TestVectorisedOps:
    """The read-only ndarray views of the field tables: what
    :class:`repro.engine.tables.RsTables` reads."""

    @pytest.mark.parametrize("m", sorted(PRIMITIVE_POLYNOMIALS))
    def test_nd_views_mirror_the_scalar_tables(self, m):
        field = get_field(m)
        assert field.exp_nd.dtype == np.uint32
        assert field.log_nd.dtype == np.int64
        assert field.exp_nd.tolist() == field._exp2
        assert field.log_nd.tolist() == field.log
        assert field.log_nd[0] == 0  # the zero sentinel

    def test_nd_views_are_read_only(self):
        field = get_field(8)
        for table in (field.exp_nd, field.log_nd):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[1] = 0

    @pytest.mark.parametrize("m", (5, 6, 7, 8))
    def test_log_sum_lookup_is_field_multiplication(self, m):
        """Masking zero operands and indexing the doubled exp view at
        ``log a + log b`` multiplies, over every pair of the field."""
        field = get_field(m)
        values = np.arange(field.size)
        a, b = np.meshgrid(values, values, indexing="ij")
        product = np.where(
            (a == 0) | (b == 0),
            0,
            field.exp_nd[field.log_nd[a] + field.log_nd[b]],
        )
        assert product.tolist() == [
            [field.mul(x, y) for y in range(field.size)]
            for x in range(field.size)
        ]

    def test_buffers_hold_the_tables_in_machine_order(self):
        """The native RS kernels read these bytes directly."""
        field = get_field(6)
        exp_bytes, log_bytes = field.buffers
        assert array("I", exp_bytes).tolist() == field._exp2
        assert array("q", log_bytes).tolist() == field.log

    def test_nd_tables_cached(self):
        field = get_field(7)
        assert field.exp_nd is field.exp_nd
        assert field.log_nd is field.log_nd


class TestCaching:
    def test_get_field_is_shared(self):
        assert get_field(8) is get_field(8)
