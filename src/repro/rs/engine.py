"""Batch Reed-Solomon decode engines on the shared engine layer.

An :class:`RsDecodeEngine` is a :class:`~repro.engine.base.DecodeEngine`
whose option is the device-confinement policy; its backends are the
``"RS"`` family of :data:`repro.engine.ENGINES` and resolve through
:func:`repro.engine.cached_engine`.  What is RS-specific here is the
PGZ decode and how :class:`NumpyRsBatchResult` rebuilds per-word
results; the tables are the code's numpy-free
:class:`~repro.engine.tables.RsTables`, which the numpy backend reads
as read-only views and the native rung (:mod:`repro.rs.engine_native`,
a :class:`NumpyRsEngine` subclass) passes to its kernels.

Codeword batches are ``(batch, n_symbols)`` uint32 symbol arrays.  The
numpy backend runs the whole t=1 PGZ flow vectorised:

1. **Syndromes** — one doubled-exp-table gather per weight vector
   (``alpha^i`` and ``alpha^2i`` logs are just ``i`` and ``2i mod
   order``), then an XOR reduction along the symbol axis.
2. **Locator/position** — ``log(S2) - log(S1) mod order`` *is* the
   error position; no Chien search, one subtraction per word.
3. **Validity** — shortened positions (``>= n_symbols``) and partial
   last-symbol corrections that touch virtual padding bits both detect,
   exactly like the scalar decoder.
4. **Device policy** — the x4 confinement check is one gather into a
   precomputed ``(position, magnitude) -> confined`` table built from
   the code's symbol bit-offset prefix sums (devices are contiguous, so
   confinement reduces to the lowest and highest flipped bit landing in
   the same device).

Per-word outcomes are the engine layer's four tally-aligned status
codes; the fourth bucket is the device-confinement veto rather than a
correction ripple.  Corruption streams are generated once, vectorised
(:func:`repro.orchestrate.corruption.corruption_chunk` over the
:data:`~repro.orchestrate.corruption.RS` family), independent of the
decode backend — a fixed ``(trials, seed)`` run therefore tallies
byte-identically on every backend.
"""

from __future__ import annotations

from repro._lazy import lazy_import
from repro.engine import cached_engine
from repro.engine.base import (
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED_NO_MATCH,
    STATUS_DETECTED_RIPPLE,
    BatchDecodeResult,
    DecodeEngine,
    ScalarBatchResult,
)
from repro.engine.tables import rs_tables
from repro.rs.reed_solomon import RSCode, RSDecodeResult, RSDecodeStatus

np = lazy_import(globals(), "np", "numpy")

#: RS name for the fourth status bucket: the PGZ correction was valid
#: but could not have been produced by a single failed device.
STATUS_DETECTED_CONFINEMENT = STATUS_DETECTED_RIPPLE


def device_confined(
    code: RSCode, position: int, magnitude: int, device_bits: int
) -> bool:
    """Would this correction be producible by one failed device?

    Devices own contiguous ``device_bits`` ranges of the channel, so
    the flipped bits are confined iff the lowest and highest of them
    fall in the same device.
    """
    if magnitude == 0:
        return True
    offset = code.symbol_bit_offsets[position]
    low = offset + ((magnitude & -magnitude).bit_length() - 1)
    high = offset + magnitude.bit_length() - 1
    return low // device_bits == high // device_bits


# ----------------------------------------------------------------------
# Batch result and engines
# ----------------------------------------------------------------------

class NumpyRsBatchResult(BatchDecodeResult):
    """Batch result backed by symbol arrays; tuples materialise lazily.

    :meth:`results` rebuilds what ``code.decode`` returns: the
    device-policy verdict lives only in the status codes (the
    bounded-distance decoder itself still reports such words as
    CORRECTED, as the scalar decoder does).
    """

    def __init__(self, code, statuses, words, corrected, positions, magnitudes):
        super().__init__(code, statuses)
        self._words = words
        self._corrected = corrected
        self._positions = positions
        self._magnitudes = magnitudes

    def results(self) -> list[RSDecodeResult]:
        received = self._words.tolist()
        corrected = self._corrected.tolist()
        positions = self._positions.tolist()
        magnitudes = self._magnitudes.tolist()
        out = []
        for i, status in enumerate(self.statuses.tolist()):
            if status == STATUS_CLEAN:
                out.append(
                    RSDecodeResult(RSDecodeStatus.CLEAN, tuple(received[i]))
                )
            elif status == STATUS_DETECTED_NO_MATCH:
                out.append(RSDecodeResult(RSDecodeStatus.DETECTED, None))
            else:  # CORRECTED, with or without the policy veto
                out.append(
                    RSDecodeResult(
                        RSDecodeStatus.CORRECTED,
                        tuple(corrected[i]),
                        error_position=positions[i],
                        error_magnitude=magnitudes[i],
                    )
                )
        return out


class RsDecodeEngine(DecodeEngine):
    """An RS code bound to one batch-execution strategy.

    ``device_bits`` enables the device-confinement decode policy
    (``None`` disables it); the policy only affects which of the two
    "corrected" status buckets a PGZ correction lands in.  Batches are
    symbol rows: ``encode_batch`` takes data-symbol rows and returns
    codeword tuples, ``decode_batch`` takes codeword rows or (numpy,
    zero-copy) a ``(B, n_symbols)`` uint32 array.
    """

    def __init__(self, code: RSCode, device_bits: int | None = 4):
        self.code = code
        self.device_bits = device_bits

    def __repr__(self) -> str:
        policy = (
            f", x{self.device_bits} policy" if self.device_bits is not None else ""
        )
        return f"{type(self).__name__}({self.code!r}{policy})"


def _as_symbol_rows(words) -> list[list[int]]:
    """Accept a symbol-row sequence or an ndarray from the numpy side."""
    if hasattr(words, "dtype"):
        return words.tolist()
    return [list(row) for row in words]


class ScalarRsEngine(RsDecodeEngine):
    """Reference backend: one ``RSCode.decode`` call per word."""

    name = "scalar"

    def encode_batch(self, data) -> list[tuple[int, ...]]:
        encode = self.code.encode
        return [encode(row) for row in _as_symbol_rows(data)]

    def decode_batch(self, words) -> ScalarBatchResult:
        code = self.code
        device_bits = self.device_bits
        statuses = []
        results = []
        for row in _as_symbol_rows(words):
            result = code.decode(row)
            if result.status is RSDecodeStatus.CLEAN:
                statuses.append(STATUS_CLEAN)
            elif result.status is RSDecodeStatus.DETECTED:
                statuses.append(STATUS_DETECTED_NO_MATCH)
            elif device_bits is not None and not device_confined(
                code, result.error_position, result.error_magnitude, device_bits
            ):
                statuses.append(STATUS_DETECTED_CONFINEMENT)
            else:
                statuses.append(STATUS_CORRECTED)
            results.append(result)
        return ScalarBatchResult(code, statuses, results)


class NumpyRsEngine(RsDecodeEngine):
    """Vectorised backend over ``(batch, n_symbols)`` uint32 codewords."""

    name = "numpy"

    def __init__(self, code: RSCode, device_bits: int | None = 4):
        super().__init__(code, device_bits)
        self.tables = rs_tables(code, device_bits)

    # -- batches -------------------------------------------------------

    def as_batch(self, words) -> np.ndarray:
        """Coerce symbol rows into this engine's ``(B, n)`` uint32 batch."""
        code = self.code
        if isinstance(words, np.ndarray) and words.dtype == np.uint32:
            batch = words
        else:
            batch = np.asarray(_as_symbol_rows(words), dtype=np.uint32)
        if batch.ndim != 2 or batch.shape[1] != code.n_symbols:
            raise ValueError(
                f"expected a (batch, {code.n_symbols}) symbol array, "
                f"got shape {batch.shape}"
            )
        if batch.size and int(batch.max()) >= code.field.size:
            raise ValueError(
                f"symbol values must fit in GF(2^{code.symbol_bits})"
            )
        return batch

    # -- encode --------------------------------------------------------

    def encode_arrays(self, data: np.ndarray) -> np.ndarray:
        """Systematic encode of a ``(B, k)`` uint32 data batch: the
        check symbols are the XOR of each data symbol's check terms
        (:class:`~repro.engine.tables.RsTables`)."""
        tables = self.tables
        terms = tables.nd.check_terms
        k = self.code.data_symbols
        mask = np.uint32((1 << tables.slice_bits) - 1)
        checks = np.zeros(data.shape[0], dtype=np.uint32)
        for s in range(tables.slices):
            values = (data >> np.uint32(tables.slice_bits * s)) & mask
            columns = np.arange(s * k, (s + 1) * k)
            checks ^= np.bitwise_xor.reduce(terms[values, columns], axis=1)
        return np.concatenate(
            [data, (checks & 0xFFFF)[:, None], (checks >> 16)[:, None]],
            axis=1,
        ).astype(np.uint32)

    def encode_batch(self, data) -> list[tuple[int, ...]]:
        code = self.code
        rows = _as_symbol_rows(data)
        for row in rows:
            code._check_data(row)
        encoded = self.encode_arrays(np.asarray(rows, dtype=np.uint32))
        return [tuple(row) for row in encoded.tolist()]

    # -- decode --------------------------------------------------------

    def decode_arrays(self, words: np.ndarray) -> NumpyRsBatchResult:
        """The whole t=1 PGZ flow over a ``(B, n)`` uint32 batch."""
        code = self.code
        tables = self.tables
        nd = tables.nd
        exp2, log = nd.exp2, nd.log
        order = tables.order
        logw = log[words]
        nz = words != 0
        s1 = np.bitwise_xor.reduce(
            np.where(nz, exp2[logw + nd.w1_log], np.uint32(0)), axis=1
        )
        s2 = np.bitwise_xor.reduce(
            np.where(nz, exp2[logw + nd.w2_log], np.uint32(0)), axis=1
        )
        batch = words.shape[0]
        statuses = np.full(batch, STATUS_DETECTED_NO_MATCH, dtype=np.uint8)
        statuses[(s1 == 0) & (s2 == 0)] = STATUS_CLEAN
        corrected = words.copy()
        positions = np.full(batch, -1, dtype=np.int64)
        magnitudes = np.zeros(batch, dtype=np.uint32)
        candidates = np.flatnonzero((s1 != 0) & (s2 != 0))
        if candidates.size:
            l1 = log[s1[candidates]]
            l2 = log[s2[candidates]]
            # locator X = S2/S1 == alpha^position: the log difference IS
            # the position, no Chien sweep needed.
            pos = (l2 - l1) % order
            in_range = pos < code.n_symbols
            rows = candidates[in_range]
            pos = pos[in_range]
            magnitude = exp2[l1[in_range] - pos + order].astype(np.uint32)
            fixed = words[rows, pos] ^ magnitude
            valid = np.ones(rows.size, dtype=bool)
            if tables.pad_mask:
                # Corrections landing on virtual padding bits of the
                # partial last data symbol are impossible for a real
                # single-symbol error: detected.
                valid &= ~(
                    (pos == tables.partial_position)
                    & ((fixed & np.uint32(tables.pad_mask)) != 0)
                )
            good_rows = rows[valid]
            corrected[good_rows, pos[valid]] = fixed[valid]
            positions[good_rows] = pos[valid]
            magnitudes[good_rows] = magnitude[valid]
            if nd.confined is not None:
                confined = nd.confined[pos[valid], magnitude[valid]]
                statuses[good_rows[confined]] = STATUS_CORRECTED
                statuses[good_rows[~confined]] = STATUS_DETECTED_CONFINEMENT
            else:
                statuses[good_rows] = STATUS_CORRECTED
        return NumpyRsBatchResult(
            code, statuses, words, corrected, positions, magnitudes
        )

    def decode_batch(self, words) -> NumpyRsBatchResult:
        return self.decode_arrays(self.as_batch(words))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

def get_rs_engine(
    code: RSCode, backend: str = "auto", device_bits: int | None = 4
) -> RsDecodeEngine:
    """Build (or fetch the cached) RS engine for one code.

    The ``"RS"`` family of the MUSE engines' table and resolver
    (:func:`repro.engine.cached_engine`): engines are cached per
    ``(backend, device_bits)`` on the code, an explicit backend that
    cannot run the code raises, and ``auto`` takes the fastest rung
    that can.
    """
    return cached_engine(code, "RS", backend, device_bits)


__all__ = [
    "NumpyRsBatchResult",
    "NumpyRsEngine",
    "RsDecodeEngine",
    "STATUS_CLEAN",
    "STATUS_CORRECTED",
    "STATUS_DETECTED_CONFINEMENT",
    "STATUS_DETECTED_NO_MATCH",
    "ScalarRsEngine",
    "device_confined",
    "get_rs_engine",
]
