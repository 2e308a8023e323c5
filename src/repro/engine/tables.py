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

#: ``MuseTables.claim_delta``'s bound: past ``2^w`` for every run the
#: kernels read with a shift (at most 32 bits wide).
_DELTA_CLAMP = 1 << 32


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

    The ELC is indexed by entry ordinal: ``entry`` (uint32 per
    remainder) is 0 for a miss, else the 1-based row of the remainder's
    error value ``e`` in three per-entry tables (row 0 is unused):
    ``addend``, the wrapping ``(-e) mod 2^W`` as a ``limbs``-wide uint64
    row, so a correction is one multi-limb add; ``claim_symbol``, the
    symbol owning bit v2(e) (the sentinel ``symbol_count`` for a bit no
    symbol owns); and ``claim_delta``, ``d = e >> first`` where that
    symbol is a run read from bit ``first`` (see ``sym_first``), clamped
    to ``±2^32``.

    The claim settles the ripple check.  A correction's lowest changed
    bit is v2(e), so its changed bits lie inside one symbol iff they lie
    inside the claimed one: confinement to the claimed symbol is
    ``confined_to_single_symbol`` plus the range check.  For a run
    ``[f, f + w)``, ``e = d 2^f`` and that holds iff ``0 <= x - d <
    2^w`` on the symbol's received value ``x`` (the clamp, past every
    such ``2^w``, keeps each verdict and fits an int64).  Any other
    claimed symbol takes the full test on the corrected word:
    ``above_mask`` (bits at and above ``n`` of a ``W``-bit word) and
    ``outside`` (each symbol's mask complement, plus an all-ones row for
    the sentinel, so a change no symbol owns is never confined).
    ``low_mask`` wraps a correction into ``n`` bits with the ripple
    check off.

    The fused kernel also takes ``pow2`` (``2^p mod m`` per bit
    position: the residue's 32-bit chunk weights and the remainder an
    error pattern adds), ``k_mask`` (the data bits), and each symbol's
    width, bit positions (a ``(symbols, max_width)`` table,
    device-local bit order like the layout) and first bit where the
    symbol is one run of at most 32 ascending bits inside one limb (read
    with a shift and a mask), else -1 (read bit by bit); ``sym_first``
    ends with a -1 for the sentinel claim.
    """

    def __init__(self, code):
        layout = code.layout
        self.limbs = limbs = limb_count(code.n)
        width = LIMB_BITS * limbs
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
        symbols = layout.symbols
        self.symbol_count = len(symbols)
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
        firsts = [
            bits[0]
            if len(bits) <= 32
            and bits[0] // LIMB_BITS == bits[-1] // LIMB_BITS
            and tuple(bits) == tuple(range(bits[0], bits[0] + len(bits)))
            else -1
            for bits in symbols
        ] + [-1]
        self.sym_first = _pack("q", firsts)

        values = code.elc.remainder_values
        entry = array("I", bytes(4 * m))
        for ordinal, remainder in enumerate(values, 1):
            entry[remainder] = ordinal
        self.entry = entry.tobytes()
        errors = list(values.values())
        self.addend = _limb_rows([0, *((-e) & full for e in errors)], limbs)
        owner = (*layout.bit_to_symbol, *[len(symbols)] * (width - code.n))
        claims = [owner[(e & -e).bit_length() - 1] for e in errors]
        # A claim that is not a run shifts past the word: its delta, 0
        # or -1, is never read.
        shifts = [first if first >= 0 else width for first in firsts]
        deltas = [e >> shifts[s] for e, s in zip(errors, claims)]
        bound = _DELTA_CLAMP
        if deltas and not -bound <= min(deltas) <= max(deltas) <= bound:
            deltas = [max(-bound, min(bound, d)) for d in deltas]
        self.claim_symbol = _pack("q", [0, *claims])
        self.claim_delta = _pack("q", [0, *deltas])

    @cached_property
    def nd(self) -> SimpleNamespace:
        """Read-only ndarray views of the tables the numpy engine reads."""
        limbs = self.limbs
        return SimpleNamespace(
            entry=np.frombuffer(self.entry, dtype=np.uint32),
            addend=np.frombuffer(self.addend, np.uint64).reshape(-1, limbs),
            claim_symbol=np.frombuffer(self.claim_symbol, dtype=np.int64),
            k_mask=np.frombuffer(self.k_mask, dtype=np.uint64),
            low_mask=np.frombuffer(self.low_mask, dtype=np.uint64),
            above_mask=np.frombuffer(self.above_mask, dtype=np.uint64),
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
    ``device_bits``: one row per offset class.  ``pad_mask`` is the
    partial last data symbol's padding mask (0 disables the check).

    ``check_terms`` replaces the check-symbol solve (``RSCode.encode``):
    the two check symbols are GF(2)-linear in the data, so a clean
    word's are the XOR, over its data symbols ``j`` and the
    ``slice_bits``-wide slices ``s`` of each value (one slice up to
    GF(2^8), one per 8 bits above), of ``check_terms[v][s *
    data_symbols + j]``, a ``(2^slice_bits, slices * data_symbols)``
    uint32 table whose entry packs ``c1 | c2 << 16`` for the data word
    holding only ``v << (slice_bits * s)`` at symbol ``j``.
    """

    def __init__(self, code, device_bits: int | None):
        self.field = field = code.field
        self.n_symbols = n = code.n_symbols
        self.order = order = field.order
        self.exp2, self.log = field.buffers
        self.w2_log = _pack("q", ((2 * i) % order for i in range(n)))
        self.widths = _pack("q", code.symbol_widths)
        self.slice_bits, self.slices, self.check_terms = _check_terms(code)
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
            check_terms=np.frombuffer(self.check_terms, np.uint32).reshape(
                1 << self.slice_bits, -1
            ),
            confined=(
                np.frombuffer(self.confined, dtype=bool).reshape(
                    -1, self.conf_stride
                )
                if self.has_policy
                else None
            ),
        )


def _check_terms(code) -> tuple[int, int, bytes]:
    """``(slice_bits, slices, check_terms)`` of :class:`RsTables`.

    ``RSCode.encode`` solves ``c1 = (S1 a^2q + S2 a^q) / det`` and ``c2
    = (S2 a^p + S1 a^2p) / det`` (``a`` = alpha, ``p``/``q`` the check
    positions); a data word holding only ``v`` at symbol ``j`` has ``S1
    = v a^j`` and ``S2 = v a^2j``, so its checks are ``v`` times one
    coefficient each, a sum of logs.  That gives the terms of each unit
    value ``2^t``; every other value's are the XOR of its bits' terms,
    filled in by doubling: the ``2^i`` rows built so far, XORed with bit
    ``i``'s terms, are the next ``2^i``.  Each doubling is a few big-int
    operations over the whole table, so no Python loop runs per entry.
    """
    field = code.field
    exp, log, order = field.exp, field.log, field.order
    exp2 = exp * 2  # indexed by a sum of two logs
    bits = code.symbol_bits
    slice_bits = min(bits, 8)
    slices = -(-bits // slice_bits)
    p, q = code.n_symbols - 2, code.n_symbols - 1

    def log_sum(a: int, b: int) -> int:
        return log[exp[a % order] ^ exp[b % order]]

    log_det = log_sum(p + 2 * q, q + 2 * p)
    coefficients = [
        ((log_sum(j + 2 * q, 2 * j + q) - log_det) % order,
         (log_sum(2 * j + p, j + 2 * p) - log_det) % order)
        for j in range(code.data_symbols)
    ]

    def unit_terms(t: int) -> list[int]:
        """Each data symbol's packed checks for the unit value ``2^t``
        (zeros past the field's bits)."""
        if t >= bits:
            return [0] * len(coefficients)
        unit = log[1 << t]
        return [exp2[c1 + unit] | exp2[c2 + unit] << 16 for c1, c2 in coefficients]

    row_bits = 32 * slices * len(coefficients)
    table = 0  # the rows of values 0..2^i - 1, value 0 lowest
    for i in range(slice_bits):
        # bit i of slice s is bit slice_bits * s + i of the value
        terms = [
            term for s in range(slices) for term in unit_terms(slice_bits * s + i)
        ]
        block = int.from_bytes(_pack("I", terms) * (1 << i), "little")
        table |= (table ^ block) << (row_bits << i)
    return slice_bits, slices, table.to_bytes(row_bits << slice_bits >> 3, "little")


def rs_tables(code, device_bits: int | None) -> RsTables:
    """The :class:`RsTables` of ``code`` under ``device_bits``, built
    once per code and policy."""
    return _cached(
        code, ("RS", device_bits), lambda: RsTables(code, device_bits)
    )


__all__ = ["MuseTables", "RsTables", "muse_tables", "rs_tables"]
