"""The numpy backend: the whole Figure-4 flow, vectorised over a batch.

Codewords live in ``(batch, limbs)`` uint64 arrays
(:mod:`repro.engine.limbs`); one decode_batch call runs:

1. **Residue** — limb-wise accumulation against precomputed
   ``2^(32 j) mod m`` chunk weights, one final ``% m``.
2. **ELC lookup** — the remainder indexes two dense tables built from
   the code's Error Lookup Circuit: a hit mask and, per remainder, the
   *addend* ``(-error_value) mod 2^W`` so the correction is a single
   wrapping multi-limb add.
3. **Ripple check** — underflow and overflow of the true correction
   both surface as set bits at positions >= n (the limb width W
   exceeds n by construction), one mask test; symbol confinement is a
   vectorised XOR against the layout's per-symbol masks, evaluated
   only on the ELC-hit rows.

Per-word outcomes are uint8 status codes; nothing on the hot path
touches a Python integer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.base import (
    BackendUnavailableError,
    BatchDecodeResult,
    DecodeEngine,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED_NO_MATCH,
    STATUS_DETECTED_RIPPLE,
)
from repro.engine.limbs import (
    LIMB_BITS,
    MAX_MULTIPLIER_BITS,
    add,
    int_to_limb_row,
    ints_to_limbs,
    limb_count,
    limbs_to_ints,
    lshift,
    residue,
)


def _lowest_set_bit(batch: np.ndarray) -> np.ndarray:
    """Position of the lowest set bit of each (nonzero) word.

    ``x & -x`` isolates the bit; its float64 log2 is exact because the
    isolated value is a power of two (<= 2^63, within float64's exact
    range for powers of two).
    """
    positions = np.zeros(batch.shape[0], dtype=np.int64)
    found = np.zeros(batch.shape[0], dtype=bool)
    one = np.uint64(1)
    for j in range(batch.shape[1]):
        limb = batch[:, j]
        take = ~found & (limb != 0)
        if take.any():
            isolated = limb[take]
            isolated &= ~isolated + one
            positions[take] = LIMB_BITS * j + np.log2(
                isolated.astype(np.float64)
            ).astype(np.int64)
            found |= take
    return positions


# ----------------------------------------------------------------------
# Vectorised symbol access (used by the trial generator and tests)
# ----------------------------------------------------------------------

def extract_symbol_batch(words: np.ndarray, layout, index: int) -> np.ndarray:
    """Read symbol ``index`` of every word — vectorised bit gather.

    Bit ``j`` of each result is codeword bit ``layout.symbols[index][j]``
    (device-local order), exactly like
    :meth:`SymbolLayout.extract_symbol`.
    """
    values = np.zeros(words.shape[0], dtype=np.uint64)
    one = np.uint64(1)
    for j, bit in enumerate(layout.symbols[index]):
        limb, offset = divmod(bit, LIMB_BITS)
        values |= ((words[:, limb] >> np.uint64(offset)) & one) << np.uint64(j)
    return values


def insert_symbol_batch(
    words: np.ndarray,
    layout,
    index: int,
    values: np.ndarray,
    rows: np.ndarray | None = None,
) -> None:
    """Replace symbol ``index`` with ``values``, in place — bit scatter.

    ``rows`` optionally restricts the write to a subset of the batch
    (``values`` then aligns with ``rows``).
    """
    limbs = words.shape[1]
    clear = ~int_to_limb_row(layout.masks[index], limbs)
    one = np.uint64(1)
    if rows is None:
        words &= clear
        for j, bit in enumerate(layout.symbols[index]):
            limb, offset = divmod(bit, LIMB_BITS)
            words[:, limb] |= ((values >> np.uint64(j)) & one) << np.uint64(offset)
    else:
        words[rows] &= clear
        for j, bit in enumerate(layout.symbols[index]):
            limb, offset = divmod(bit, LIMB_BITS)
            words[rows, limb] |= ((values >> np.uint64(j)) & one) << np.uint64(offset)


# ----------------------------------------------------------------------
# Batch result
# ----------------------------------------------------------------------

class NumpyBatchResult(BatchDecodeResult):
    """Batch result backed by limb arrays; ints materialise lazily."""

    def __init__(self, code, statuses, words, corrected, remainders):
        super().__init__(code, statuses)
        self._words = words
        self._corrected = corrected
        self._remainders = remainders

    def results(self):
        from repro.core.codec import DecodeResult, DecodeStatus, DetectionReason

        code = self.code
        received = limbs_to_ints(self._words)
        corrected = limbs_to_ints(self._corrected)
        out = []
        for i, status in enumerate(self.statuses.tolist()):
            if status == STATUS_CLEAN:
                out.append(
                    DecodeResult(
                        DecodeStatus.CLEAN, received[i] >> code.r, received[i]
                    )
                )
            elif status == STATUS_CORRECTED:
                entry = code.elc.lookup(int(self._remainders[i]))
                out.append(
                    DecodeResult(
                        DecodeStatus.CORRECTED,
                        corrected[i] >> code.r,
                        corrected[i],
                        error_value=entry.error_value,
                    )
                )
            elif status == STATUS_DETECTED_NO_MATCH:
                out.append(
                    DecodeResult(
                        DecodeStatus.DETECTED,
                        None,
                        received[i],
                        reason=DetectionReason.REMAINDER_NOT_FOUND,
                    )
                )
            else:
                out.append(
                    DecodeResult(
                        DecodeStatus.DETECTED,
                        None,
                        received[i],
                        reason=DetectionReason.SYMBOL_OVERFLOW,
                    )
                )
        return out


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

class NumpyDecodeEngine(DecodeEngine):
    """Vectorised backend over ``(batch, limbs)`` uint64 codewords."""

    name = "numpy"

    def __init__(self, code, ripple_check: bool = True):
        super().__init__(code, ripple_check)
        if code.m.bit_length() > MAX_MULTIPLIER_BITS:
            raise BackendUnavailableError(
                f"multiplier {code.m} too wide for the chunked residue "
                f"accumulator (> {MAX_MULTIPLIER_BITS} bits)"
            )
        self.limbs = limb_count(code.n)
        width = LIMB_BITS * self.limbs
        low_mask_int = (1 << code.n) - 1
        self._low_mask = int_to_limb_row(low_mask_int, self.limbs)
        self._above_mask = int_to_limb_row(
            ((1 << width) - 1) ^ low_mask_int, self.limbs
        )
        # Dense remainder-indexed ELC: hit mask + wrapping addend, each
        # filled in one scatter (an array per entry would dominate the
        # engine build).
        entries = list(code.elc.entries())
        remainders = np.array([e.remainder for e in entries], dtype=np.int64)
        hit = np.zeros(code.m, dtype=bool)
        hit[remainders] = True
        addend = np.zeros((code.m, self.limbs), dtype=np.uint64)
        modulus = 1 << width
        addend[remainders] = ints_to_limbs(
            [(-entry.error_value) % modulus for entry in entries], self.limbs
        )
        self._elc_hit = hit
        self._elc_addend = addend
        # Confinement tables: bit position -> owning symbol (positions at
        # or above n map to a sentinel row whose "outside" mask is all
        # ones, so out-of-range changed bits can never look confined),
        # and per symbol the complement of its mask.
        sentinel = code.layout.symbol_count
        bit_symbol = np.full(width, sentinel, dtype=np.int64)
        bit_symbol[: code.n] = code.layout.bit_to_symbol
        self._bit_symbol = bit_symbol
        outside = np.stack(
            [~int_to_limb_row(mask, self.limbs) for mask in code.layout.masks]
            + [np.full(self.limbs, ~np.uint64(0), dtype=np.uint64)]
        )
        self._symbol_outside_masks = outside

    # -- batches -------------------------------------------------------

    def as_batch(self, words) -> np.ndarray:
        """Coerce ints or a limb array into this engine's batch layout."""
        if isinstance(words, np.ndarray):
            if words.ndim != 2 or words.shape[1] != self.limbs:
                raise ValueError(
                    f"expected a (batch, {self.limbs}) limb array, "
                    f"got shape {words.shape}"
                )
            return words
        return ints_to_limbs(list(words), self.limbs)

    # -- encode --------------------------------------------------------

    def encode_limbs(self, data: np.ndarray) -> np.ndarray:
        """Systematic encode of a data batch already in limb form."""
        code = self.code
        shifted = lshift(data, code.r)
        rem = residue(shifted, code.m)
        check = (np.uint64(code.m) - rem) % np.uint64(code.m)
        carrier = np.zeros_like(shifted)
        carrier[:, 0] = check
        return add(shifted, carrier)

    def encode_batch(self, data: Sequence[int]) -> list[int]:
        k = self.code.k
        for word in data:
            if not 0 <= word < (1 << k):
                raise ValueError(f"data must fit in {k} bits")
        return limbs_to_ints(self.encode_limbs(ints_to_limbs(list(data), self.limbs)))

    # -- decode --------------------------------------------------------

    def decode_limbs(self, words: np.ndarray) -> NumpyBatchResult:
        """Figure-4 over a limb batch; the whole hot path lives here."""
        code = self.code
        rem = residue(words, code.m)
        statuses = np.full(words.shape[0], STATUS_DETECTED_NO_MATCH, dtype=np.uint8)
        statuses[rem == 0] = STATUS_CLEAN
        corrected = words.copy()
        candidates = np.flatnonzero(self._elc_hit[rem])
        if candidates.size:
            received = words[candidates]
            fixed = add(received, self._elc_addend[rem[candidates]])
            if self.ripple_check:
                # Bits at/above n flag both underflow and overflow of
                # the true (unwrapped) correction; then the changed bits
                # must sit inside a single symbol's mask.  Confinement
                # to *some* symbol equals confinement to the symbol
                # owning the lowest changed bit, so one gathered mask
                # test per row replaces a sweep over every symbol.
                out_of_range = np.any((fixed & self._above_mask) != 0, axis=1)
                changed = fixed ^ received
                symbol = self._bit_symbol[_lowest_set_bit(changed)]
                outside = self._symbol_outside_masks[symbol]
                confined = ~np.any((changed & outside) != 0, axis=1)
                accepted = ~out_of_range & confined
            else:
                # The ablation decoder wraps the adder result into the
                # n-bit word and always delivers, like the scalar path.
                fixed &= self._low_mask
                accepted = np.ones(candidates.size, dtype=bool)
            statuses[candidates[accepted]] = STATUS_CORRECTED
            statuses[candidates[~accepted]] = STATUS_DETECTED_RIPPLE
            corrected[candidates[accepted]] = fixed[accepted]
        return NumpyBatchResult(code, statuses, words, corrected, rem)

    def decode_batch(self, words) -> NumpyBatchResult:
        return self.decode_limbs(self.as_batch(words))
