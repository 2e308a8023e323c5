"""Error Lookup Circuit (ELC) model (paper Section V, Figure 2).

The ELC is the content-addressable table at the heart of the MUSE error
corrector: it maps a nonzero remainder to the signed error value that
produced it.  Each entry stores the remainder (r bits), the error-value
magnitude (n bits), and the sign bit for the corrector's adder/subtractor
— 157 bits per entry for MUSE(144,132), with 1080 entries (paper
Section V), both of which this model reproduces exactly.

A remainder that misses the table is the first of the two uncorrectable-
error signals in the Figure 4 decision flow (the second, the ripple
check, lives in the codec).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.error_model import ErrorModel


@dataclass(frozen=True)
class ELCEntry:
    """One CAM entry: remainder -> signed error value."""

    remainder: int
    magnitude: int
    sign: int  # +1: error added value (0->1 flips dominate); -1: subtracted

    @property
    def error_value(self) -> int:
        """The signed error value to subtract from the corrupted codeword."""
        return self.sign * self.magnitude


class ErrorLookupCircuit:
    """Remainder -> error-value lookup built from an error model.

    Parameters
    ----------
    model:
        The error model whose (distinct) error values the code corrects.
    m:
        The code multiplier.  Must be valid for the model: every error
        value must map to a unique nonzero remainder; construction
        verifies this and raises ``ValueError`` otherwise, so an ELC can
        only be built for a genuinely correctable configuration.
    """

    def __init__(self, model: ErrorModel, m: int):
        self.model = model
        self.m = m
        values: dict[int, int] = {}
        for value in sorted(model.error_values()):
            remainder = value % m
            if remainder == 0:
                raise ValueError(
                    f"multiplier {m} maps error value {value} to remainder 0"
                )
            if remainder in values:
                raise ValueError(
                    f"multiplier {m} maps error values {values[remainder]} "
                    f"and {value} to the same remainder {remainder}"
                )
            values[remainder] = value
        #: remainder -> signed error value, as plain ints: what the
        #: scalar decoder and the engine tables read.
        self.remainder_values = values

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    @staticmethod
    def _entry(remainder: int, value: int) -> ELCEntry:
        return ELCEntry(remainder, abs(value), 1 if value > 0 else -1)

    def lookup(self, remainder: int) -> ELCEntry | None:
        """Return the matching entry, or None (uncorrectable signal)."""
        value = self.remainder_values.get(remainder)
        return None if value is None else self._entry(remainder, value)

    def entries(self):
        """Iterate every CAM entry, each built on demand."""
        return (
            self._entry(remainder, value)
            for remainder, value in self.remainder_values.items()
        )

    def __contains__(self, remainder: int) -> bool:
        return remainder in self.remainder_values

    def __len__(self) -> int:
        return len(self.remainder_values)

    # ------------------------------------------------------------------
    # Hardware accounting (Table V inputs)
    # ------------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Number of CAM entries (1080 for MUSE(144,132))."""
        return len(self.remainder_values)

    @cached_property
    def remainder_bits(self) -> int:
        """Width of the remainder field: ``ceil(log2 m)``."""
        return self.m.bit_length()

    @property
    def entry_width_bits(self) -> int:
        """Bits per entry: remainder + error value + sign.

        157 for MUSE(144,132): 12 + 144 + 1 (paper Section V).
        """
        return self.remainder_bits + self.model.n + 1

    @property
    def total_bits(self) -> int:
        """Total CAM storage in bits."""
        return self.entry_count * self.entry_width_bits

    @property
    def unused_remainders(self) -> int:
        """Remainder values with no entry — the detection headroom.

        Every unused remainder is a multi-symbol error signature the
        code *detects* rather than miscorrects; a larger multiplier
        buys more of these (Section VII-A's 65519-vs-4065 trade-off).
        """
        return self.m - 1 - self.entry_count

    def coverage_ratio(self) -> float:
        """Fraction of nonzero remainders that are correctable entries."""
        return self.entry_count / (self.m - 1)
