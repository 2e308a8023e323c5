"""The native Reed-Solomon backend: C PGZ kernels via ctypes.

:class:`NativeRsEngine` mixes the shared
:class:`~repro.engine.native.NativeKernels` plumbing (library load,
fused tail) into :class:`repro.rs.engine.NumpyRsEngine` for its batch
layout, and passes the code's numpy-free
:class:`~repro.engine.tables.RsTables` buffers — GF exp and log, the
``2i mod order`` syndrome-weight logs (so no ``% order`` runs per
symbol), the symbol widths, the confinement table and the check terms,
the ones the numpy engine views — to its two kernels.  The fused chunk
decodes the error pattern alone: syndromes are linear and a clean
word's are zero, so only the chosen symbols' terms enter and no
codeword is built, and a chosen check symbol's clean value is an XOR of
check terms; it runs on ``bytes`` alone and never imports numpy.  No
kernel buffer is sized by the symbol count, so every RS code runs
native, up to n equal to the field order.
"""

from __future__ import annotations

from repro._lazy import lazy_import
from repro.engine.cc import ptr
from repro.engine.native import NativeKernels
from repro.rs.engine import NumpyRsBatchResult, NumpyRsEngine

np = lazy_import(globals(), "np", "numpy")


class NativeRsEngine(NativeKernels, NumpyRsEngine):
    """C-kernel RS backend; the code's table buffers, ``cc``'s code."""

    def __init__(self, code, device_bits: int | None = 4):
        super().__init__(code, device_bits)
        self._stream_shape = (code.data_symbols, code.n_symbols)

    def decode_arrays(self, words: np.ndarray) -> NumpyRsBatchResult:
        words = np.ascontiguousarray(words, dtype=np.uint32)
        batch = words.shape[0]
        corrected = np.empty_like(words)
        statuses = np.empty(batch, dtype=np.uint8)
        positions = np.empty(batch, dtype=np.int64)
        magnitudes = np.empty(batch, dtype=np.uint32)
        tables = self.tables
        self._lib.rs_decode_batch(
            ptr(words), batch, ptr(corrected), ptr(statuses),
            ptr(positions), ptr(magnitudes), ptr(tables.exp2),
            ptr(tables.log), ptr(tables.w2_log), tables.order,
            self.code.n_symbols, tables.pad_mask, tables.partial_position,
            ptr(tables.confined), int(tables.has_policy), tables.conf_stride,
        )
        return NumpyRsBatchResult(
            self.code, statuses, words, corrected, positions, magnitudes
        )

    def _fused_kernel(self, chunk, k_symbols: int, stream, counts) -> None:
        code = self.code
        tables = self.tables
        mode, data_keys, choice_keys, value_keys, start_keys = stream
        self._lib.rs_fused_chunk(
            chunk.start, chunk.size, k_symbols, ptr(tables.exp2),
            ptr(tables.log), ptr(tables.w2_log), tables.order,
            code.n_symbols, code.data_symbols, ptr(tables.widths),
            tables.pad_mask, tables.partial_position,
            ptr(tables.confined), int(tables.has_policy), tables.conf_stride,
            ptr(tables.check_terms), tables.slice_bits, tables.slices, mode,
            ptr(data_keys), ptr(choice_keys), ptr(value_keys),
            ptr(start_keys), ptr(counts),
        )


__all__ = ["NativeRsEngine"]
