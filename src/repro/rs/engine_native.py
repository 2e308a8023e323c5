"""The native Reed-Solomon backend: C PGZ kernels via ctypes.

The RS twin of :mod:`repro.engine.native` — subclasses
:class:`repro.rs.engine.NumpyRsEngine` for the syndrome weights,
encode constants and confinement lookup, adds the typed GF tables the
C kernels take, and dispatches batch decode and the fused
corruption->decode->tally chunk to the shared kernel library compiled
by :mod:`repro.engine.cc`.  The fused chunk replays the msed and
``mbu`` streams of :func:`repro.orchestrate.corruption.rs_scenario_chunk`
for ``k_symbols <= 2`` (``None`` otherwise, and for every other
scenario, as for MUSE).  Byte-identical tallies, native speed, no
package installs.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import BackendUnavailableError
from repro.engine.cc import load_library, ptr
from repro.orchestrate.corruption import fused_stream
from repro.rs.engine import NumpyRsBatchResult, NumpyRsEngine

#: The C kernels use fixed stack scratch ``uint32_t word[64]``.
MAX_NATIVE_SYMBOLS = 64


class NativeRsEngine(NumpyRsEngine):
    """C-kernel RS backend; numpy's tables, ``cc``'s code."""

    name = "native"

    def __init__(self, code, device_bits: int | None = 4):
        super().__init__(code, device_bits)
        self._lib = load_library()
        if self._lib is None:
            raise BackendUnavailableError(
                "native kernels unavailable (no working C compiler?)"
            )
        if code.n_symbols > MAX_NATIVE_SYMBOLS:
            raise BackendUnavailableError(
                f"native kernels support up to {MAX_NATIVE_SYMBOLS} "
                f"symbols, code needs {code.n_symbols}"
            )
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
            ptr(self._log_nd), self._order, self.code.n_symbols,
            int(self._pad_mask), self._partial_position,
            ptr(self._confined_u8), int(self._has_policy),
            self._confined_u8.shape[1],
        )
        return NumpyRsBatchResult(
            self.code, statuses, words, corrected, positions, magnitudes
        )

    def fused_chunk_counts(self, chunk, key: int, k_symbols: int):
        """:meth:`fused_scenario_counts` of the msed stream."""
        return self.fused_scenario_counts("msed", chunk, key, k_symbols)

    def fused_scenario_counts(self, scenario: str, chunk, key: int,
                              k_symbols: int):
        """The 4-status counts of one fused corruption->decode chunk.

        ``(clean, corrected, no_match, confinement)`` — byte-identical
        to decoding ``rs_scenario_chunk`` — or ``None`` when the kernel
        cannot replay the scenario named ``scenario`` at ``k_symbols``
        (see :func:`fused_stream`).
        """
        code = self.code
        stream = fused_stream(
            scenario, key, code.data_symbols, code.n_symbols, k_symbols
        )
        if stream is None:
            return None
        mode, data_keys, choice_keys, value_keys, start_keys = stream
        counts = np.zeros(4, dtype=np.int64)
        self._lib.rs_fused_chunk(
            chunk.start, chunk.size, k_symbols, ptr(self._exp2_nd),
            ptr(self._log_nd), self._order, code.n_symbols,
            code.data_symbols, ptr(self._widths_nd), int(self._pad_mask),
            self._partial_position, ptr(self._confined_u8),
            int(self._has_policy), self._confined_u8.shape[1],
            int(self._enc_aq), int(self._enc_aq2), int(self._enc_ap),
            int(self._enc_ap2), int(self._enc_det), mode, ptr(data_keys),
            ptr(choice_keys), ptr(value_keys), ptr(start_keys),
            ptr(counts),
        )
        return tuple(int(count) for count in counts)


__all__ = ["MAX_NATIVE_SYMBOLS", "NativeRsEngine"]
