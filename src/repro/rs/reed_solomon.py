"""Single-symbol-correcting Reed-Solomon codes — the ChipKill baseline.

The paper compares MUSE against RS codes "with the redundancy of
commercial schemes": two check symbols, correcting any error confined to
one symbol (the classic ChipKill arrangement, decoded with the
Peterson-Gorenstein-Zierler procedure, Section VII-B).

This module implements shortened systematic RS over GF(2^b):

* ``RSCode(symbol_bits=8, data_symbols=16)`` is RS(144,128) — 18 symbols;
* shortening is implicit: any ``n_symbols <= 2^b - 1`` is allowed;
* codewords whose bit length is not a symbol multiple (the paper's 5- and
  7-bit-symbol design points over a 144-bit channel) are handled with a
  *partial last symbol*: the missing bits are virtual zero-padding, and a
  "correction" that touches padding bits is itself a detectable
  inconsistency.

Decoding follows the bounded-distance PGZ rules for t=1:

=========  =========  =====================================================
S1         S2         verdict
=========  =========  =====================================================
0          0          clean
0          nonzero    uncorrectable (detected)
nonzero    0          uncorrectable (detected)
nonzero    nonzero    locator ``X = S2/S1``; if ``X == alpha^i`` for a
                      position ``i`` inside the (shortened) codeword,
                      correct symbol ``i`` with magnitude ``S1/alpha^i``;
                      otherwise uncorrectable (detected)
=========  =========  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.rs.gf import GaloisField, get_field


class RSDecodeStatus(enum.Enum):
    CLEAN = "no errors detected"
    CORRECTED = "single-symbol error corrected"
    DETECTED = "uncorrectable error detected"


@dataclass(frozen=True)
class RSDecodeResult:
    status: RSDecodeStatus
    symbols: tuple[int, ...] | None
    error_position: int | None = None
    error_magnitude: int = 0

    @property
    def ok(self) -> bool:
        return self.status is not RSDecodeStatus.DETECTED


class RSCode:
    """Shortened systematic RS(n, n-2) over GF(2^symbol_bits), t = 1.

    Parameters
    ----------
    symbol_bits:
        Field symbol width ``b``.
    data_symbols:
        Number of data symbols ``k``; the codeword has ``k + 2`` symbols.
    partial_bits:
        If nonzero, the *last data symbol* only has this many physical
        bits (shortened mid-symbol, for codeword bit budgets that are
        not symbol multiples).  Encoded values must keep the virtual
        bits zero; corrections that set them signal detection.
    """

    CHECK_SYMBOLS = 2

    def __init__(self, symbol_bits: int, data_symbols: int, partial_bits: int = 0):
        if data_symbols < 1:
            raise ValueError("need at least one data symbol")
        field = get_field(symbol_bits)
        n_symbols = data_symbols + self.CHECK_SYMBOLS
        if n_symbols > field.order:
            raise ValueError(
                f"{n_symbols} symbols exceed GF(2^{symbol_bits}) "
                f"code length limit {field.order}"
            )
        if not 0 <= partial_bits < symbol_bits:
            raise ValueError("partial_bits must be in [0, symbol_bits)")
        self.field: GaloisField = field
        self.symbol_bits = symbol_bits
        self.data_symbols = data_symbols
        self.n_symbols = n_symbols
        self.partial_bits = partial_bits

    def __repr__(self) -> str:
        return (
            f"RS({self.n_bits},{self.k_bits})"
            f"[b={self.symbol_bits}, {self.n_symbols} symbols]"
        )

    # ------------------------------------------------------------------
    # Bit accounting (what Table IV calls "extra bits")
    # ------------------------------------------------------------------

    @cached_property
    def n_bits(self) -> int:
        """Physical codeword bits (honors the partial last symbol)."""
        full = self.n_symbols * self.symbol_bits
        if self.partial_bits:
            full -= self.symbol_bits - self.partial_bits
        return full

    @cached_property
    def k_bits(self) -> int:
        """Physical data bits."""
        return self.n_bits - self.CHECK_SYMBOLS * self.symbol_bits

    @property
    def check_bits(self) -> int:
        return self.CHECK_SYMBOLS * self.symbol_bits

    @cached_property
    def symbol_widths(self) -> tuple[int, ...]:
        """Physical bit width of every codeword symbol (the last data
        symbol may be partial)."""
        widths = [self.symbol_bits] * self.n_symbols
        if self.partial_bits:
            widths[self.data_symbols - 1] = self.partial_bits
        return tuple(widths)

    @cached_property
    def symbol_bit_offsets(self) -> tuple[int, ...]:
        """Global channel bit offset of every symbol (prefix sums of
        :attr:`symbol_widths`) — shared by the scalar and vectorised
        device-confinement checks."""
        offsets = []
        total = 0
        for width in self.symbol_widths:
            offsets.append(total)
            total += width
        return tuple(offsets)

    # ------------------------------------------------------------------
    # Encode
    # ------------------------------------------------------------------

    def _check_data(self, data: tuple[int, ...] | list[int]) -> None:
        if len(data) != self.data_symbols:
            raise ValueError(
                f"expected {self.data_symbols} data symbols, got {len(data)}"
            )
        limit = 1 << self.symbol_bits
        for index, symbol in enumerate(data):
            if not 0 <= symbol < limit:
                raise ValueError(f"symbol {index} out of range: {symbol}")
        if self.partial_bits:
            live = (1 << self.partial_bits) - 1
            if data[-1] & ~live:
                raise ValueError(
                    "last data symbol uses virtual padding bits "
                    f"(only {self.partial_bits} physical bits exist)"
                )

    def encode(self, data: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        """Systematic encode: ``data + (p0, p1)``.

        Check symbols are chosen so the codeword polynomial has roots
        alpha^1 and alpha^2: solve the 2x2 linear system over GF(2^b).
        Codeword symbol ``i`` sits at polynomial position ``i`` (data
        first, then checks at positions n-2 and n-1).
        """
        self._check_data(data)
        field = self.field
        # Partial syndromes of the data-only word (checks = 0).
        s1 = 0
        s2 = 0
        for position, symbol in enumerate(data):
            if symbol:
                s1 ^= field.mul(symbol, field.pow_alpha(position))
                s2 ^= field.mul(symbol, field.pow_alpha(2 * position))
        # Solve for checks c1 at position p = n-2, c2 at position q = n-1:
        #   c1*a^p  + c2*a^q  == s1
        #   c1*a^2p + c2*a^2q == s2
        p = self.n_symbols - 2
        q = self.n_symbols - 1
        ap, aq = field.pow_alpha(p), field.pow_alpha(q)
        ap2, aq2 = field.pow_alpha(2 * p), field.pow_alpha(2 * q)
        # determinant = a^(p+2q) + a^(q+2p) -- nonzero because p != q.
        det = field.mul(ap, aq2) ^ field.mul(aq, ap2)
        c1 = field.div(field.mul(s1, aq2) ^ field.mul(s2, aq), det)
        c2 = field.div(field.mul(s2, ap) ^ field.mul(s1, ap2), det)
        return tuple(data) + (c1, c2)

    # ------------------------------------------------------------------
    # Decode (PGZ, t = 1)
    # ------------------------------------------------------------------

    def syndromes(self, symbols: tuple[int, ...] | list[int]) -> tuple[int, int]:
        """(S1, S2) = codeword evaluated at alpha^1 and alpha^2."""
        field = self.field
        s1 = 0
        s2 = 0
        for position, symbol in enumerate(symbols):
            if symbol:
                s1 ^= field.mul(symbol, field.pow_alpha(position))
                s2 ^= field.mul(symbol, field.pow_alpha(2 * position))
        return s1, s2

    def decode(self, symbols: tuple[int, ...] | list[int]) -> RSDecodeResult:
        """Bounded-distance decode; see the module table for the rules."""
        if len(symbols) != self.n_symbols:
            raise ValueError(
                f"expected {self.n_symbols} codeword symbols, got {len(symbols)}"
            )
        field = self.field
        s1, s2 = self.syndromes(symbols)
        if s1 == 0 and s2 == 0:
            return RSDecodeResult(RSDecodeStatus.CLEAN, tuple(symbols))
        if s1 == 0 or s2 == 0:
            return RSDecodeResult(RSDecodeStatus.DETECTED, None)
        locator = field.div(s2, s1)  # == alpha^position for single errors
        position = field.log_alpha(locator)
        if position >= self.n_symbols:
            # Shortened positions do not exist physically: detected.
            return RSDecodeResult(RSDecodeStatus.DETECTED, None)
        magnitude = field.div(s1, field.pow_alpha(position))
        corrected = list(symbols)
        corrected[position] ^= magnitude
        if self.partial_bits and position == self.data_symbols - 1:
            live = (1 << self.partial_bits) - 1
            if corrected[position] & ~live:
                # Correction lands on virtual padding bits: impossible
                # for a real single-symbol error, hence detected.
                return RSDecodeResult(RSDecodeStatus.DETECTED, None)
        return RSDecodeResult(
            RSDecodeStatus.CORRECTED,
            tuple(corrected),
            error_position=position,
            error_magnitude=magnitude,
        )


def rs_144_128() -> RSCode:
    """The commercial ChipKill baseline: 8-bit symbols, 18 per codeword."""
    return RSCode(symbol_bits=8, data_symbols=16)


def rs_80_64() -> RSCode:
    """The DDR5-channel baseline: 8-bit symbols, 10 per codeword."""
    return RSCode(symbol_bits=8, data_symbols=8)


def rs_for_channel(symbol_bits: int, channel_bits: int) -> RSCode:
    """Largest RS code with ``symbol_bits`` symbols in a fixed channel.

    Produces the Table IV design points: for a 144-bit channel,
    b=8 -> RS(144,128); b=7 -> RS(144,130) with a partial symbol;
    b=6 -> RS(144,132); b=5 -> RS(144,134) with a partial symbol.
    """
    n_symbols = -(-channel_bits // symbol_bits)  # ceil
    partial = channel_bits % symbol_bits
    partial_bits = partial if partial else 0
    return RSCode(
        symbol_bits=symbol_bits,
        data_symbols=n_symbols - RSCode.CHECK_SYMBOLS,
        partial_bits=partial_bits,
    )
