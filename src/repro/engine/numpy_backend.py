"""The numpy backend: the whole Figure-4 flow, vectorised over a batch.

Codewords live in ``(batch, limbs)`` uint64 arrays
(:mod:`repro.engine.limbs`); one decode_batch call runs:

1. **Residue** — limb-wise accumulation against precomputed
   ``2^(32 j) mod m`` chunk weights, one final ``% m``.
2. **ELC lookup** — the remainder indexes ``entry``, the code's Error
   Lookup Circuit by entry ordinal (0 is a miss), and an entry's row
   holds the *addend* ``(-e) mod 2^W`` of its error value ``e``, so the
   correction is a single wrapping multi-limb add, and its *claimed
   symbol*, the owner of bit v2(e).  Every table is a read-only view of
   the code's :class:`~repro.engine.tables.MuseTables`, the buffers the
   native kernels take.
3. **Ripple check** — underflow and overflow of the true correction
   both surface as set bits at positions >= n (the limb width W
   exceeds n by construction), one mask test; a correction's lowest
   changed bit is v2(e), so confinement to some symbol is confinement
   to the claimed one, a vectorised XOR against its mask complement,
   evaluated only on the ELC-hit rows.

Per-word outcomes are uint8 status codes; nothing on the hot path
touches a Python integer.
"""

from __future__ import annotations

from typing import Sequence

from repro._lazy import lazy_import
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
    limbs_to_ints,
    lshift,
    residue,
)
from repro.engine.tables import muse_tables

np = lazy_import(globals(), "np", "numpy")


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
                out.append(
                    DecodeResult(
                        DecodeStatus.CORRECTED,
                        corrected[i] >> code.r,
                        corrected[i],
                        error_value=code.elc.remainder_values[
                            int(self._remainders[i])
                        ],
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
        self.tables = muse_tables(code)
        self.limbs = self.tables.limbs

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
        nd = self.tables.nd
        rem = residue(words, code.m)
        statuses = np.full(words.shape[0], STATUS_DETECTED_NO_MATCH, dtype=np.uint8)
        statuses[rem == 0] = STATUS_CLEAN
        corrected = words.copy()
        hits = nd.entry[rem]
        candidates = np.flatnonzero(hits)
        if candidates.size:
            entries = hits[candidates]
            received = words[candidates]
            fixed = add(received, nd.addend[entries])
            if self.ripple_check:
                # Bits at/above n flag both underflow and overflow of
                # the true (unwrapped) correction; then the changed bits
                # must sit inside a single symbol's mask.  The lowest
                # changed bit is v2(e), so confinement to *some* symbol
                # equals confinement to the entry's claimed symbol, the
                # owner of that bit: one gathered mask test per row.
                out_of_range = np.any((fixed & nd.above_mask) != 0, axis=1)
                outside = nd.outside[nd.claim_symbol[entries]]
                confined = ~np.any(((fixed ^ received) & outside) != 0, axis=1)
                accepted = ~out_of_range & confined
            else:
                # The ablation decoder wraps the adder result into the
                # n-bit word and always delivers, like the scalar path.
                fixed &= nd.low_mask
                accepted = np.ones(candidates.size, dtype=bool)
            statuses[candidates[accepted]] = STATUS_CORRECTED
            statuses[candidates[~accepted]] = STATUS_DETECTED_RIPPLE
            corrected[candidates[accepted]] = fixed[accepted]
        return NumpyBatchResult(code, statuses, words, corrected, rem)

    def decode_batch(self, words) -> NumpyBatchResult:
        return self.decode_limbs(self.as_batch(words))
