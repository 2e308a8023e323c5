"""Error models and error-value enumeration (paper Sections II, III-A/C).

A residue code corrects an error by *subtracting its numeric value* from
the corrupted codeword, so the unit of enumeration here is the **error
value**: the signed integer difference between the corrupted and the
original codeword.

* A bit flip at position ``p`` has value ``+2^p`` (a 0->1 flip) or
  ``-2^p`` (a 1->0 flip) — two values per bit (Section II).
* A *symbol* error flips any subset of one symbol's bits in any mix of
  directions: for a symbol with bit positions ``P`` the possible values
  are ``sum(eps_p * 2^p for p in P)`` with ``eps_p in {-1, 0, +1}``, not
  all zero — up to ``3^s - 1`` values per symbol (Section III-B).
* An *asymmetric* symbol error restricts every flip to one direction
  (e.g. DRAM retention loss is 1->0 only), leaving ``2^s - 1`` values of
  a single sign per symbol (Section III-C).

Distinct error values are what the multiplier search must separate and
what the Error Lookup Circuit stores; both consume the enumeration
produced here, so the paper's identity "R remainders needed == ELC
entries" (1080 for MUSE(144,132)) holds by construction.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

from repro.core.symbols import SymbolLayout


class ErrorDirection(enum.Enum):
    """Which flip directions an error model admits (paper's B/A types)."""

    BIDIRECTIONAL = "bidirectional"
    ONE_TO_ZERO = "one_to_zero"
    ZERO_TO_ONE = "zero_to_one"

    @property
    def signs(self) -> tuple[int, ...]:
        """Admissible per-bit signs, excluding 'no flip' (0)."""
        if self is ErrorDirection.BIDIRECTIONAL:
            return (-1, 1)
        if self is ErrorDirection.ONE_TO_ZERO:
            return (-1,)
        return (1,)

    @property
    def short_code(self) -> str:
        """Single-letter code used by the paper's naming convention."""
        return "B" if self is ErrorDirection.BIDIRECTIONAL else "A"


def symbol_error_values(
    bit_positions: tuple[int, ...] | list[int],
    direction: ErrorDirection = ErrorDirection.BIDIRECTIONAL,
) -> frozenset[int]:
    """Enumerate the distinct error values of one symbol.

    Parameters
    ----------
    bit_positions:
        The codeword bit positions belonging to the symbol.
    direction:
        Flip directions to admit.

    Returns
    -------
    frozenset of nonzero signed error values; size at most ``3^s - 1``
    (bidirectional) or ``2^s - 1`` (asymmetric).  Memoised on
    ``(bit positions, direction)``: every code over the same symbols
    (the six Table-IV MUSE points share theirs) enumerates them once
    per process.
    """
    return _symbol_error_values(tuple(bit_positions), direction)


@lru_cache(maxsize=None)
def _symbol_error_values(
    bit_positions: tuple[int, ...], direction: ErrorDirection
) -> frozenset[int]:
    choices = (0,) + direction.signs
    values: set[int] = set()
    for signs in itertools.product(choices, repeat=len(bit_positions)):
        value = sum(sign << bit for sign, bit in zip(signs, bit_positions))
        if value:
            values.add(value)
    return frozenset(values)


class ErrorModel:
    """Base interface: a set of correctable error values over a codeword."""

    #: codeword length in bits
    n: int

    def error_values(self) -> frozenset[int]:
        """All distinct correctable error values."""
        raise NotImplementedError

    @property
    def required_remainders(self) -> int:
        """The paper's ``remaindersNeeded`` (Algorithm 1, line 3)."""
        return len(self.error_values())

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class SymbolErrorModel(ErrorModel):
    """Errors confined to a single symbol of ``layout`` (ChipKill model).

    This is the paper's constrained ("C") error class: a whole DRAM
    device fails and corrupts any subset of its bits, in directions
    allowed by ``direction``.
    """

    layout: SymbolLayout
    direction: ErrorDirection = ErrorDirection.BIDIRECTIONAL

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.layout.n

    @cached_property
    def per_symbol_values(self) -> tuple[frozenset[int], ...]:
        """Error values of each symbol separately (ELC ripple metadata)."""
        return tuple(
            symbol_error_values(symbol, self.direction)
            for symbol in self.layout.symbols
        )

    @cached_property
    def _all_values(self) -> frozenset[int]:
        union: set[int] = set()
        for values in self.per_symbol_values:
            union.update(values)
        return frozenset(union)

    def error_values(self) -> frozenset[int]:
        return self._all_values

    def iter_symbol_errors(self) -> Iterator[tuple[int, int]]:
        """Yield ``(symbol_index, error_value)`` pairs (may repeat values)."""
        for index, values in enumerate(self.per_symbol_values):
            for value in values:
                yield index, value

    def describe(self) -> str:
        kind = self.direction.short_code
        return f"C{self.layout.symbol_size}{kind} over {self.layout.describe()}"


@dataclass(frozen=True)
class SingleBitErrorModel(ErrorModel):
    """Unconstrained single-bit errors anywhere in the codeword (U1)."""

    codeword_bits: int
    direction: ErrorDirection = ErrorDirection.BIDIRECTIONAL

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.codeword_bits

    @cached_property
    def _all_values(self) -> frozenset[int]:
        values: set[int] = set()
        for bit in range(self.codeword_bits):
            for sign in self.direction.signs:
                values.add(sign << bit)
        return frozenset(values)

    def error_values(self) -> frozenset[int]:
        return self._all_values

    def describe(self) -> str:
        return f"U1{self.direction.short_code} over {self.codeword_bits} bits"


@dataclass(frozen=True)
class HybridErrorModel(ErrorModel):
    """Union of several error classes covered by one code (Section IV).

    The paper's MUSE(80,70) C4A_U1B code corrects *both* asymmetric
    4-bit symbol errors and bidirectional single-bit errors; its error
    value set is simply the union of the two classes' sets, and the
    multiplier must separate the union.
    """

    parts: tuple[ErrorModel, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError(
                "hybrid error model needs at least one part error model"
            )
        widths = {part.n for part in self.parts}
        if len(widths) != 1:
            raise ValueError(f"hybrid parts disagree on codeword width: {widths}")

    @property
    def n(self) -> int:  # type: ignore[override]
        return self.parts[0].n

    @cached_property
    def _all_values(self) -> frozenset[int]:
        union: set[int] = set()
        for part in self.parts:
            union.update(part.error_values())
        return frozenset(union)

    def error_values(self) -> frozenset[int]:
        return self._all_values

    def describe(self) -> str:
        return " + ".join(part.describe() for part in self.parts)


def chipkill_model(
    layout: SymbolLayout,
    direction: ErrorDirection = ErrorDirection.BIDIRECTIONAL,
) -> SymbolErrorModel:
    """Convenience constructor for the standard single-device-failure model."""
    return SymbolErrorModel(layout, direction)


def hybrid_c4a_u1b(layout: SymbolLayout) -> HybridErrorModel:
    """The paper's C4A_U1B model: asymmetric symbol + bidirectional bit.

    Matches MUSE(80,70) (Table I / Eq. 6): constrained 4-bit asymmetric
    (1->0) symbol errors plus unconstrained bidirectional single-bit
    errors.
    """
    return HybridErrorModel(
        (
            SymbolErrorModel(layout, ErrorDirection.ONE_TO_ZERO),
            SingleBitErrorModel(layout.n, ErrorDirection.BIDIRECTIONAL),
        )
    )


def positive_error_value_histogram(
    model: ErrorModel, base: int = 2
) -> dict[int, int]:
    """Histogram of positive error values binned by integer log (Fig 1b).

    Returns a map ``floor(log_base(value)) -> count`` over the model's
    positive error values; with the default ``base=2`` this reproduces
    the paper's Figure 1(b) series ("here and thereafter only the
    positive values are shown").
    """
    if base < 2:
        raise ValueError(f"histogram base must be >= 2, got {base}")
    histogram: dict[int, int] = {}
    for value in model.error_values():
        if value <= 0:
            continue
        if base == 2:
            bin_index = value.bit_length() - 1
        else:
            # Integer log: exact for arbitrary-precision values where
            # float log would misbin near power-of-base boundaries.
            bin_index = 0
            remaining = value
            while remaining >= base:
                remaining //= base
                bin_index += 1
        histogram[bin_index] = histogram.get(bin_index, 0) + 1
    return dict(sorted(histogram.items()))
