"""The MUSE codec: systematic encoder + Figure-4 decoder.

:class:`MuseCode` glues together the pieces built in the sibling
modules — the systematic residue arithmetic (Eq. 4), the symbol layout,
the error model, and the Error Lookup Circuit — into the object a
memory controller plugs in (paper Figure 2):

* ``encode(data)`` produces an ``n``-bit codeword with the check value
  in its low ``r`` bits,
* ``decode(codeword)`` walks the exact decision diagram of Figure 4:

  1. remainder == 0            -> clean, data separated by a shift;
  2. remainder found in ELC    -> arithmetic correction, then the
     symbol-confinement *ripple check*: if the correction changed bits
     outside a single symbol, or over/underflowed the codeword, declare
     an uncorrectable multi-symbol error;
  3. remainder not in ELC      -> uncorrectable multi-symbol error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.core.elc import ErrorLookupCircuit
from repro.core.error_model import (
    ErrorDirection,
    ErrorModel,
    HybridErrorModel,
    SingleBitErrorModel,
    SymbolErrorModel,
)
from repro.core.residue import redundancy_bits, systematic_encode
from repro.core.symbols import SymbolLayout


class DecodeStatus(enum.Enum):
    """Terminal states of the Figure-4 decision diagram."""

    CLEAN = "no errors detected"
    CORRECTED = "correctable error"
    DETECTED = "uncorrectable error"


class DetectionReason(enum.Enum):
    """Why a decode ended in DETECTED (the two Figure-4 detectors)."""

    REMAINDER_NOT_FOUND = "remainder not present in ELC"
    SYMBOL_OVERFLOW = "correction rippled beyond symbol boundary"


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decode."""

    status: DecodeStatus
    data: int | None
    codeword: int
    error_value: int = 0
    reason: DetectionReason | None = None

    @property
    def ok(self) -> bool:
        """True when data was delivered (clean or corrected)."""
        return self.status is not DecodeStatus.DETECTED


class MuseCode:
    """A concrete MUSE(n, k) code.

    Parameters
    ----------
    layout:
        Bit-to-symbol assignment (carries ``n`` and the shuffle).
    m:
        Code multiplier; must uniquely separate the model's error values
        (verified at construction by the ELC).
    model:
        Error model; defaults to bidirectional single-symbol (ChipKill).
    name:
        Optional display name, e.g. ``"MUSE(144,132)"``.
    """

    def __init__(
        self,
        layout: SymbolLayout,
        m: int,
        model: ErrorModel | None = None,
        name: str | None = None,
    ):
        if model is None:
            model = SymbolErrorModel(layout, ErrorDirection.BIDIRECTIONAL)
        self.layout = layout
        self.m = m
        self.model = model
        self.elc = ErrorLookupCircuit(model, m)
        self.n = layout.n
        self.r = redundancy_bits(m)
        self.k = self.n - self.r
        if self.k <= 0:
            raise ValueError(
                f"multiplier {m} needs {self.r} check bits, more than the "
                f"{self.n}-bit codeword can spare"
            )
        self.name = name or f"MUSE({self.n},{self.k})"

    def __repr__(self) -> str:
        return (
            f"{self.name}[m={self.m}, r={self.r}, "
            f"{self.layout.symbol_count}x{self.layout.symbol_size}b symbols]"
        )

    # ------------------------------------------------------------------
    # Encode path (Figure 2, write path; Figure 3b)
    # ------------------------------------------------------------------

    def encode(self, data: int) -> int:
        """Systematic encode: ``(data << r) + X`` with codeword % m == 0."""
        if not 0 <= data < (1 << self.k):
            raise ValueError(f"data must fit in {self.k} bits")
        return systematic_encode(data, self.m, self.r)

    # ------------------------------------------------------------------
    # Decode path (Figure 2, read path; Figures 3a and 4)
    # ------------------------------------------------------------------

    def remainder(self, codeword: int) -> int:
        """Residue of the received word; the decoder's only arithmetic."""
        return codeword % self.m

    def decode(self, codeword: int) -> DecodeResult:
        """Run the Figure-4 decision diagram on a received codeword."""
        remainder = codeword % self.m
        if remainder == 0:
            return DecodeResult(
                status=DecodeStatus.CLEAN,
                data=codeword >> self.r,
                codeword=codeword,
            )

        error_value = self.elc.remainder_values.get(remainder)
        if error_value is None:
            return DecodeResult(
                status=DecodeStatus.DETECTED,
                data=None,
                codeword=codeword,
                reason=DetectionReason.REMAINDER_NOT_FOUND,
            )

        corrected = codeword - error_value
        # Ripple check: a true single-symbol error is undone exactly, so
        # the adder only toggles bits of one symbol.  A miscorrection of
        # a multi-symbol error may carry/borrow across the boundary or
        # push the value outside [0, 2^n) — both are detectable.
        if corrected < 0 or corrected >> self.n:
            return DecodeResult(
                status=DecodeStatus.DETECTED,
                data=None,
                codeword=codeword,
                reason=DetectionReason.SYMBOL_OVERFLOW,
            )
        changed = corrected ^ codeword
        if not self.layout.confined_to_single_symbol(changed):
            return DecodeResult(
                status=DecodeStatus.DETECTED,
                data=None,
                codeword=codeword,
                reason=DetectionReason.SYMBOL_OVERFLOW,
            )
        return DecodeResult(
            status=DecodeStatus.CORRECTED,
            data=corrected >> self.r,
            codeword=corrected,
            error_value=error_value,
        )

    def decode_without_ripple_check(self, codeword: int) -> DecodeResult:
        """Figure-4 flow minus the overflow/underflow detector.

        Exists for the ablation quantifying how much of the
        multi-symbol detection rate the ripple check contributes
        (DESIGN.md Section 7).

        Without the range detector the corrector is just an n-bit
        adder, so a correction that would over- or underflow wraps
        modulo ``2^n`` — the delivered word is the wrapped adder
        output, and the data field is its top ``k`` bits, exactly as
        in :meth:`decode` (which instead rejects such words).
        """
        remainder = codeword % self.m
        if remainder == 0:
            return DecodeResult(DecodeStatus.CLEAN, codeword >> self.r, codeword)
        error_value = self.elc.remainder_values.get(remainder)
        if error_value is None:
            return DecodeResult(
                DecodeStatus.DETECTED,
                None,
                codeword,
                reason=DetectionReason.REMAINDER_NOT_FOUND,
            )
        corrected = (codeword - error_value) & ((1 << self.n) - 1)
        return DecodeResult(
            DecodeStatus.CORRECTED,
            corrected >> self.r,
            corrected,
            error_value=error_value,
        )

    # ------------------------------------------------------------------
    # Batch paths (delegated to the pluggable decode engines)
    # ------------------------------------------------------------------

    def engine(self, backend: str = "auto", ripple_check: bool = True):
        """The cached :class:`~repro.engine.base.DecodeEngine` for this
        code on ``backend`` ("scalar", "numpy", "native" or "auto")."""
        from repro.engine import get_engine

        return get_engine(self, backend, ripple_check=ripple_check)

    def encode_batch(self, data, backend: str = "auto") -> list[int]:
        """Systematically encode a batch of data words."""
        return self.engine(backend).encode_batch(data)

    def decode_batch(self, codewords, backend: str = "auto"):
        """Run Figure 4 over a batch of received words.

        Returns a :class:`~repro.engine.base.BatchDecodeResult`; use its
        ``counts()`` for tallies or ``results()`` for per-word
        :class:`DecodeResult` objects identical to :meth:`decode`'s.
        """
        return self.engine(backend).decode_batch(codewords)

    # ------------------------------------------------------------------
    # Storage accounting (the paper's headline metric)
    # ------------------------------------------------------------------

    def spare_bits(self, payload_bits: int = 64) -> int:
        """Bits left for metadata after carrying ``payload_bits`` of data.

        MUSE(80,69) carries 64 data bits with 5 bits to spare — the
        storage the paper harvests for MTE tags or Rowhammer hashes.
        """
        spare = self.k - payload_bits
        if spare < 0:
            raise ValueError(
                f"{self.name} cannot carry a {payload_bits}-bit payload "
                f"(k = {self.k})"
            )
        return spare

    @cached_property
    def description(self) -> str:
        return (
            f"{self.name}: m={self.m}, {self.r} check bits, "
            f"{self.model.describe()}, ELC {self.elc.entry_count} entries x "
            f"{self.elc.entry_width_bits} bits"
        )


def build_hybrid_code(
    layout: SymbolLayout, m: int, name: str | None = None
) -> MuseCode:
    """Construct a C(s)A + U1B hybrid code over ``layout`` (Section IV)."""
    model = HybridErrorModel(
        (
            SymbolErrorModel(layout, ErrorDirection.ONE_TO_ZERO),
            SingleBitErrorModel(layout.n, ErrorDirection.BIDIRECTIONAL),
        )
    )
    return MuseCode(layout, m, model, name)
