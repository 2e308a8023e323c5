"""Each code's decode tables, built once and without numpy.

The C kernels and the numpy engines decode from the same tables.
:func:`muse_tables` and :func:`rs_tables` build them once per code
(per device policy for RS) as immutable ``bytes`` in machine order and
cache them on the code: the native engines pass the buffers straight
to the kernels (:func:`repro.engine.cc.ptr`, ``const`` there), and the
numpy engines read them through the tables' ``nd`` namespace of
read-only ``np.frombuffer`` views, built on first use.  Nothing here
imports numpy until a view is asked for, so a native run whose chunks
all run fused never loads it.
"""

from __future__ import annotations

import sys
from array import array
from functools import cached_property
from types import SimpleNamespace

from repro._lazy import lazy_import
from repro.engine.limbs import LIMB_BITS, limb_count

np = lazy_import(globals(), "np", "numpy")


def _cached(code, key, build):
    """``build()`` once per ``code`` and ``key``, kept on the code like
    its engines (:func:`repro.engine.cached_engine`)."""
    cache = code.__dict__.setdefault("_decode_tables", {})
    tables = cache.get(key)
    if tables is None:
        tables = cache[key] = build()
    return tables


def _pack(typecode: str, values) -> bytes:
    """``values`` as one machine-order table of ``array`` ``typecode``."""
    return array(typecode, values).tobytes()


def _limb_rows(values, limbs: int) -> bytes:
    """Each int of ``values`` as ``limbs`` 64-bit limbs, least
    significant first: the ``(len(values), limbs)`` uint64 table."""
    return _machine_order(
        b"".join(value.to_bytes(8 * limbs, "little") for value in values)
    )


def _machine_order(little: bytes | bytearray) -> bytes:
    """Little-endian 64-bit limbs in the host's byte order."""
    if sys.byteorder == "little":
        return bytes(little)
    limbs = array("Q", little)
    limbs.byteswap()
    return limbs.tobytes()


class MuseTables:
    """The decode tables of one MUSE code.

    ``hit`` and ``addend`` are the dense remainder-indexed ELC: a 0/1
    byte per remainder and the wrapping addend ``(-error_value) mod
    2^W`` as a ``(m, limbs)`` uint64 row, so a correction is one
    multi-limb add.  ``low_mask``/``above_mask`` split a ``W``-bit word
    at bit ``n``.  ``bit_symbol`` maps each of the ``W`` bit positions
    to its symbol (positions at or above ``n`` to a sentinel row of
    ``outside`` that is all ones, so out-of-range changed bits never
    look confined) and ``outside`` holds each symbol's mask complement.
    The kernels also take ``pow2`` (``2^p mod m`` per bit position: the
    residue's 32-bit chunk weights and the remainder an error pattern
    adds), ``k_mask`` (the data bits), and each symbol's width, bit
    positions (a ``(symbols, max_width)`` table, device-local bit
    order like the layout) and first bit where the symbol is one run of
    at most 32 ascending bits inside one limb (read with a shift and a
    mask), else -1 (read bit by bit).
    """

    def __init__(self, code):
        layout = code.layout
        self.limbs = limbs = limb_count(code.n)
        width = LIMB_BITS * limbs
        row = 8 * limbs
        m = code.m
        powers, power = [], 1 % m
        for _ in range(width):
            powers.append(power)
            power = (power << 1) % m
        self.pow2 = _pack("Q", powers)
        low = (1 << code.n) - 1
        full = (1 << width) - 1
        self.k_mask = _limb_rows([(1 << code.k) - 1], limbs)
        self.low_mask = _limb_rows([low], limbs)
        self.above_mask = _limb_rows([full ^ low], limbs)
        hit = bytearray(m)
        addend = bytearray(m * row)
        for remainder, value in code.elc.remainder_values.items():
            hit[remainder] = 1
            addend[remainder * row:(remainder + 1) * row] = (
                (-value) & full
            ).to_bytes(row, "little")
        self.hit = bytes(hit)
        self.addend = _machine_order(addend)
        symbols = layout.symbols
        self.symbol_count = len(symbols)
        sentinel = [self.symbol_count] * (width - code.n)
        self.bit_symbol = _pack("q", (*layout.bit_to_symbol, *sentinel))
        self.outside = _limb_rows(
            [full ^ mask for mask in layout.masks] + [full], limbs
        )
        self.max_width = max(len(bits) for bits in symbols)
        self.sym_widths = _pack("q", (len(bits) for bits in symbols))
        self.sym_bits = _pack(
            "q",
            (
                bit
                for bits in symbols
                for bit in (*bits, *[0] * (self.max_width - len(bits)))
            ),
        )
        self.sym_first = _pack(
            "q",
            (
                bits[0]
                if len(bits) <= 32
                and bits[0] // LIMB_BITS == bits[-1] // LIMB_BITS
                and tuple(bits) == tuple(range(bits[0], bits[0] + len(bits)))
                else -1
                for bits in symbols
            ),
        )

    @cached_property
    def nd(self) -> SimpleNamespace:
        """Read-only ndarray views of the tables the numpy engine reads."""
        limbs = self.limbs
        return SimpleNamespace(
            hit=np.frombuffer(self.hit, dtype=bool),
            addend=np.frombuffer(self.addend, np.uint64).reshape(-1, limbs),
            k_mask=np.frombuffer(self.k_mask, dtype=np.uint64),
            low_mask=np.frombuffer(self.low_mask, dtype=np.uint64),
            above_mask=np.frombuffer(self.above_mask, dtype=np.uint64),
            bit_symbol=np.frombuffer(self.bit_symbol, dtype=np.int64),
            outside=np.frombuffer(self.outside, np.uint64).reshape(-1, limbs),
        )


def muse_tables(code) -> MuseTables:
    """The :class:`MuseTables` of ``code``, built once per code."""
    return _cached(code, "MUSE", lambda: MuseTables(code))


class RsTables:
    """The decode tables of one RS code under one device policy.

    ``exp2``/``log`` are the field's (:attr:`GaloisField.buffers`),
    ``w2_log`` holds the syndrome-weight logs ``2i mod order`` (those of
    ``alpha^i`` are just ``i``), ``widths`` each symbol's bit width, and
    ``confined`` the ``(position, magnitude) -> one device`` table of
    ``device_bits`` (a single 0 byte without a policy: the kernels take
    a table either way).  Devices own contiguous bit ranges, so a
    correction is confined iff its lowest and highest flipped bits
    share a device, which depends only on the symbol's bit offset modulo
    ``device_bits``: one row per offset class.  The scalars are the
    check-symbol solve constants (see ``RSCode.encode``) and the
    partial last data symbol's padding mask (0 disables the check).
    """

    def __init__(self, code, device_bits: int | None):
        self.field = field = code.field
        self.n_symbols = n = code.n_symbols
        self.order = order = field.order
        self.exp2, self.log = field.buffers
        self.w2_log = _pack("q", ((2 * i) % order for i in range(n)))
        self.widths = _pack("q", code.symbol_widths)
        p, q = n - 2, n - 1
        self.ap, self.aq = field.pow_alpha(p), field.pow_alpha(q)
        self.ap2, self.aq2 = field.pow_alpha(2 * p), field.pow_alpha(2 * q)
        self.det = field.mul(self.ap, self.aq2) ^ field.mul(self.aq, self.ap2)
        self.pad_mask = (
            (1 << code.symbol_bits) - (1 << code.partial_bits)
            if code.partial_bits
            else 0
        )
        self.partial_position = code.data_symbols - 1
        self.has_policy = device_bits is not None
        if self.has_policy:
            self.conf_stride = size = field.size
            rows: dict[int, bytes] = {}
            for offset in code.symbol_bit_offsets:
                shift = offset % device_bits
                if shift not in rows:
                    rows[shift] = bytes(
                        [1]
                        + [
                            (shift + (v & -v).bit_length() - 1) // device_bits
                            == (shift + v.bit_length() - 1) // device_bits
                            for v in range(1, size)
                        ]
                    )
            self.confined = b"".join(
                rows[offset % device_bits]
                for offset in code.symbol_bit_offsets
            )
        else:
            self.conf_stride = 1
            self.confined = b"\0"

    @cached_property
    def nd(self) -> SimpleNamespace:
        """Read-only ndarray views of the tables the numpy engine reads
        (``confined`` is None without a policy)."""
        return SimpleNamespace(
            exp2=self.field.exp_nd,
            log=self.field.log_nd,
            w1_log=np.arange(self.n_symbols, dtype=np.int64),
            w2_log=np.frombuffer(self.w2_log, dtype=np.int64),
            confined=(
                np.frombuffer(self.confined, dtype=bool).reshape(
                    -1, self.conf_stride
                )
                if self.has_policy
                else None
            ),
        )


def rs_tables(code, device_bits: int | None) -> RsTables:
    """The :class:`RsTables` of ``code`` under ``device_bits``, built
    once per code and policy."""
    return _cached(
        code, ("RS", device_bits), lambda: RsTables(code, device_bits)
    )


__all__ = ["MuseTables", "RsTables", "muse_tables", "rs_tables"]
