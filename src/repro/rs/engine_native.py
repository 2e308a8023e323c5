"""The native Reed-Solomon backend: C PGZ kernels via ctypes.

:class:`NativeRsEngine` mixes the shared
:class:`~repro.engine.native.NativeKernels` plumbing (library load,
fused tail) into :class:`repro.rs.engine.NumpyRsEngine` for the
syndrome weights, encode constants and confinement lookup, and adds
the typed GF tables and the ctypes argument lists of its two kernels.
Both kernels take the ``2i mod order`` syndrome-weight logs
(``_w2_log``), so no ``% order`` runs per symbol.  The fused chunk
decodes the error pattern alone: syndromes are linear and a clean
word's are zero, so only the chosen symbols' terms enter and no
codeword is built.  No kernel buffer is sized by the symbol count, so
every RS code runs native, up to n equal to the field order.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cc import ptr
from repro.engine.native import NativeKernels
from repro.rs.engine import NumpyRsBatchResult, NumpyRsEngine


class NativeRsEngine(NativeKernels, NumpyRsEngine):
    """C-kernel RS backend; numpy's tables, ``cc``'s code."""

    def __init__(self, code, device_bits: int | None = 4):
        super().__init__(code, device_bits)
        self._exp2_nd = code.field.exp_nd
        self._log_nd = code.field.log_nd
        self._widths_nd = np.asarray(code.symbol_widths, dtype=np.int64)
        self._has_policy = self._confined is not None
        # The kernels take a (position, magnitude) table either way.
        self._confined_u8 = (
            self._confined.astype(np.uint8)
            if self._has_policy
            else np.zeros((1, 1), dtype=np.uint8)
        )
        self._stream_shape = (code.data_symbols, code.n_symbols)

    def decode_arrays(self, words: np.ndarray) -> NumpyRsBatchResult:
        words = np.ascontiguousarray(words, dtype=np.uint32)
        batch = words.shape[0]
        corrected = np.empty_like(words)
        statuses = np.empty(batch, dtype=np.uint8)
        positions = np.empty(batch, dtype=np.int64)
        magnitudes = np.empty(batch, dtype=np.uint32)
        self._lib.rs_decode_batch(
            ptr(words), batch, ptr(corrected), ptr(statuses),
            ptr(positions), ptr(magnitudes), ptr(self._exp2_nd),
            ptr(self._log_nd), ptr(self._w2_log), self._order,
            self.code.n_symbols, int(self._pad_mask),
            self._partial_position, ptr(self._confined_u8),
            int(self._has_policy), self._confined_u8.shape[1],
        )
        return NumpyRsBatchResult(
            self.code, statuses, words, corrected, positions, magnitudes
        )

    def _fused_kernel(self, chunk, k_symbols: int, stream, counts) -> None:
        code = self.code
        mode, data_keys, choice_keys, value_keys, start_keys = stream
        self._lib.rs_fused_chunk(
            chunk.start, chunk.size, k_symbols, ptr(self._exp2_nd),
            ptr(self._log_nd), ptr(self._w2_log), self._order,
            code.n_symbols, code.data_symbols, ptr(self._widths_nd),
            int(self._pad_mask), self._partial_position,
            ptr(self._confined_u8), int(self._has_policy),
            self._confined_u8.shape[1],
            int(self._enc_aq), int(self._enc_aq2), int(self._enc_ap),
            int(self._enc_ap2), int(self._enc_det), mode, ptr(data_keys),
            ptr(choice_keys), ptr(value_keys), ptr(start_keys),
            ptr(counts),
        )


__all__ = ["NativeRsEngine"]
