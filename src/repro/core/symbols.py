"""Bit-to-symbol assignment for MUSE codewords (paper Section III-A/B).

A *symbol* is the group of codeword bits written to a single DRAM device.
The assignment of codeword bit positions to symbols is what the paper
calls *shuffling* when it is non-sequential: shuffling changes the
numeric error values a device failure can produce, which in turn changes
which multipliers yield a one-to-one error-to-remainder mapping.

The :class:`SymbolLayout` is the single source of truth for this
assignment.  The multiplier search, the Error Lookup Circuit, the codec's
ripple check, and the DRAM striping model all consume the same layout, so
the "R remainders needed" count, the ELC entry count, and the physical
routing always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class SymbolLayout:
    """Assignment of the ``n`` codeword bit positions to symbols.

    Parameters
    ----------
    n:
        Codeword length in bits.  Bit ``0`` is the least significant bit
        of the codeword integer.
    symbols:
        One non-empty tuple of bit positions per symbol.  Together the
        tuples must partition ``range(n)``.

    The layout is immutable; derived views (masks, bit-to-symbol map) are
    cached on first use.
    """

    n: int
    symbols: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for index, symbol in enumerate(self.symbols):
            if not symbol:
                raise ValueError(f"symbol {index} holds no bit positions")
            for bit in symbol:
                if not 0 <= bit < self.n:
                    raise ValueError(
                        f"bit position {bit} outside codeword of {self.n} bits"
                    )
                if bit in seen:
                    raise ValueError(f"bit position {bit} assigned twice")
                seen.add(bit)
        if len(seen) != self.n:
            missing = sorted(set(range(self.n)) - seen)
            raise ValueError(f"bit positions not covered by any symbol: {missing}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def sequential(cls, n: int, symbol_bits: int) -> "SymbolLayout":
        """Contiguous assignment: symbol ``i`` holds bits ``[i*s, (i+1)*s)``.

        This is the traditional residue-code arrangement (no shuffling);
        it is what MUSE(144,132) and MUSE(80,69) use (Table I,
        shuffle = "None").
        """
        if n % symbol_bits:
            raise ValueError(
                f"codeword length {n} is not a multiple of symbol size {symbol_bits}"
            )
        groups = tuple(
            tuple(range(start, start + symbol_bits))
            for start in range(0, n, symbol_bits)
        )
        return cls(n, groups)

    @classmethod
    def interleaved(cls, n: int, symbol_bits: int, stride: int) -> "SymbolLayout":
        """Strided shuffle: symbol ``i`` holds bits ``i, i+stride, i+2*stride...``.

        With ``n = 80, symbol_bits = 8, stride = 10`` this is exactly the
        paper's Eq. 5 shuffle for MUSE(80,67).
        """
        if stride * symbol_bits != n:
            raise ValueError(
                f"stride {stride} * symbol size {symbol_bits} must equal n={n}"
            )
        groups = tuple(
            tuple(i + stride * j for j in range(symbol_bits)) for i in range(stride)
        )
        return cls(n, groups)

    @classmethod
    def eq5(cls) -> "SymbolLayout":
        """The paper's Eq. 5 shuffle: 10 symbols of 8 bits over 80 bits.

        ``S_i = [b_i, b_10+i, b_20+i, ..., b_70+i]`` for ``i in [0, 9]``.
        Used by MUSE(80,67) (C8A).  Without this shuffle no 13-bit
        multiplier exists (paper Appendix G; asserted in our tests).
        """
        return cls.interleaved(80, 8, 10)

    @classmethod
    def eq6(cls) -> "SymbolLayout":
        """The paper's Eq. 6 shuffle: 20 symbols of 4 bits over 80 bits.

        ``S_2i   = [b_i,    b_10+i, b_20+i, b_30+i]``
        ``S_2i+1 = [b_40+i, b_50+i, b_60+i, b_70+i]``  for ``i in [0, 9]``.
        Used by MUSE(80,70) (C4A_U1B hybrid).
        """
        groups: list[tuple[int, ...]] = []
        for i in range(10):
            groups.append((i, 10 + i, 20 + i, 30 + i))
            groups.append((40 + i, 50 + i, 60 + i, 70 + i))
        return cls(80, tuple(groups))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def symbol_count(self) -> int:
        """Number of symbols (DRAM devices per codeword)."""
        return len(self.symbols)

    @cached_property
    def symbol_size(self) -> int:
        """Symbol width in bits; uniform-width layouts only."""
        sizes = {len(symbol) for symbol in self.symbols}
        if len(sizes) != 1:
            raise ValueError(f"layout has mixed symbol sizes: {sorted(sizes)}")
        return sizes.pop()

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per-symbol bit mask over the codeword integer."""
        return tuple(
            sum(1 << bit for bit in symbol) for symbol in self.symbols
        )

    @cached_property
    def bit_to_symbol(self) -> tuple[int, ...]:
        """Map from bit position to owning symbol index."""
        owner = [0] * self.n
        for index, symbol in enumerate(self.symbols):
            for bit in symbol:
                owner[bit] = index
        return tuple(owner)

    def symbol_of_bit(self, bit: int) -> int:
        """Return the symbol index that owns codeword bit ``bit``."""
        return self.bit_to_symbol[bit]

    def is_sequential(self) -> bool:
        """True if this layout is the unshuffled contiguous assignment."""
        expected = SymbolLayout.sequential(self.n, self.symbol_size)
        return self.symbols == expected.symbols

    def extract_symbol(self, codeword: int, index: int) -> int:
        """Read symbol ``index`` from ``codeword`` as a small integer.

        Bit ``j`` of the result is codeword bit ``symbols[index][j]``
        (the device-local bit order).
        """
        positions = self.symbols[index]
        value = 0
        for j, bit in enumerate(positions):
            value |= ((codeword >> bit) & 1) << j
        return value

    def insert_symbol(self, codeword: int, index: int, value: int) -> int:
        """Return ``codeword`` with symbol ``index`` replaced by ``value``."""
        positions = self.symbols[index]
        if value >> len(positions):
            raise ValueError(
                f"value {value:#x} does not fit in a {len(positions)}-bit symbol"
            )
        result = codeword & ~self.masks[index]
        for j, bit in enumerate(positions):
            result |= ((value >> j) & 1) << bit
        return result

    def confined_to_single_symbol(self, diff_mask: int) -> bool:
        """True if the changed bits in ``diff_mask`` all lie in one symbol.

        This is the codec's overflow/underflow *ripple check* (paper
        Figure 4): a legitimate single-symbol correction only ever changes
        bits of one symbol; a miscorrection of a multi-symbol error may
        ripple carries beyond the symbol boundary, which this detects.
        """
        if diff_mask == 0:
            return True
        if diff_mask >> self.n:
            return False
        for mask in self.masks:
            if diff_mask & ~mask == 0:
                return True
        return False

    def describe(self) -> str:
        """Human-readable one-line summary of the layout."""
        kind = "sequential" if self.is_sequential() else "shuffled"
        return (
            f"{self.symbol_count} x {self.symbol_size}-bit symbols over "
            f"{self.n} bits ({kind})"
        )
