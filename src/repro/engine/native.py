"""The native backend: self-compiled C kernels over the numpy tables.

:class:`NativeDecodeEngine` subclasses the numpy engine for its table
construction (dense ELC, confinement masks), adds the few flat tables
the C kernels take (chunk weights, the rectangular symbol-bit table),
and dispatches batch decode and the fused corruption->decode->tally
chunk to the ctypes library built by :mod:`repro.engine.cc`.  Tallies
are byte-identical to every other backend at a fixed seed.

:meth:`NativeDecodeEngine.fused_scenario_counts` replays a scenario's
counter-hashed corruption stream in C and tallies the 4 statuses
without materialising any batch array — the msed stream of
:mod:`repro.orchestrate.corruption` and the ``mbu`` scenario's burst
stream (:func:`~repro.orchestrate.corruption.fused_stream` says which).
It is exact for ``k_symbols <= 2``: there the generator's
``argpartition(scores, k-1)[:, :k]`` provably yields ``(argmin,
arg-2nd-min)``, which the kernel reproduces with a two-minimum scan
(and sorts by index for mbu).  For larger ``k`` the order of the
remaining slots is an implementation detail of introselect, so the
method returns ``None`` and the caller generates then decodes — as it
does for every other scenario.  :meth:`fused_chunk_counts` is the msed
case.

Only registered as available when the probe's trial compile+load
succeeds.  A code the kernels cannot take (more than
:data:`MAX_NATIVE_LIMBS` limbs, or ``r`` outside ``(0, 64)``) raises
:class:`BackendUnavailableError`, and ``auto`` steps down to numpy.
Symbols need no limit of their own: no kernel buffer is sized by the
symbol count, and since every symbol holds at least one bit, 8 limbs
hold at most 512 of them.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import BackendUnavailableError
from repro.engine.cc import load_library, ptr
from repro.engine.limbs import LIMB_BITS, int_to_limb_row
from repro.engine.numpy_backend import NumpyBatchResult, NumpyDecodeEngine
from repro.orchestrate.corruption import fused_stream

#: The C kernels use fixed stack scratch ``uint64_t word[8]``.
MAX_NATIVE_LIMBS = 8


class NativeDecodeEngine(NumpyDecodeEngine):
    """C-kernel MUSE backend; numpy's tables, ``cc``'s code."""

    name = "native"

    def __init__(self, code, ripple_check: bool = True):
        super().__init__(code, ripple_check)
        self._lib = load_library()
        if self._lib is None:
            raise BackendUnavailableError(
                "native kernels unavailable (no working C compiler?)"
            )
        if self.limbs > MAX_NATIVE_LIMBS:
            raise BackendUnavailableError(
                f"native kernels support up to {MAX_NATIVE_LIMBS} limbs, "
                f"code needs {self.limbs}"
            )
        if not 0 < code.r < LIMB_BITS:
            raise BackendUnavailableError(
                f"fused encode needs 0 < r < {LIMB_BITS}, got {code.r}"
            )
        # 2^(32 j) mod m chunk weights, one pair per limb.
        self._weights = np.array(
            [pow(2, 32 * j, code.m) for j in range(2 * self.limbs)],
            dtype=np.uint64,
        )
        self._hit_u8 = self._elc_hit.astype(np.uint8)
        self._k_mask = int_to_limb_row((1 << code.k) - 1, self.limbs)
        # Per-symbol bit positions as a rectangular table for in-kernel
        # extract/insert (device-local bit order, like the layout).
        symbols = code.layout.symbols
        self._sym_widths = np.array(
            [len(bits) for bits in symbols], dtype=np.int64
        )
        self._sym_bits = np.zeros(
            (len(symbols), int(self._sym_widths.max())), dtype=np.int64
        )
        for index, bits in enumerate(symbols):
            self._sym_bits[index, : len(bits)] = bits

    def decode_limbs(self, words: np.ndarray) -> NumpyBatchResult:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        batch = words.shape[0]
        corrected = np.empty_like(words)
        statuses = np.empty(batch, dtype=np.uint8)
        rems = np.empty(batch, dtype=np.uint64)
        self._lib.muse_decode_batch(
            ptr(words), batch, self.limbs, ptr(corrected), ptr(statuses),
            ptr(rems), self.code.m, ptr(self._weights),
            ptr(self._hit_u8), ptr(self._elc_addend), ptr(self._low_mask),
            ptr(self._above_mask), ptr(self._bit_symbol),
            ptr(self._symbol_outside_masks), int(self.ripple_check),
        )
        return NumpyBatchResult(self.code, statuses, words, corrected, rems)

    def fused_chunk_counts(self, chunk, key: int, k_symbols: int):
        """:meth:`fused_scenario_counts` of the msed stream."""
        return self.fused_scenario_counts("msed", chunk, key, k_symbols)

    def fused_scenario_counts(self, scenario: str, chunk, key: int,
                              k_symbols: int):
        """The 4-status counts of one fused corruption->decode chunk.

        Returns ``(clean, corrected, no_match, ripple)`` —
        byte-identical to decoding ``muse_scenario_chunk`` — or
        ``None`` when the kernel cannot replay the scenario named
        ``scenario`` at ``k_symbols`` (see :func:`fused_stream`),
        telling the caller to take the unfused path.
        """
        symbol_count = self.code.layout.symbol_count
        stream = fused_stream(
            scenario, key, self.limbs, symbol_count, k_symbols
        )
        if stream is None:
            return None
        mode, data_keys, choice_keys, value_keys, start_keys = stream
        counts = np.zeros(4, dtype=np.int64)
        self._lib.muse_fused_chunk(
            chunk.start, chunk.size, k_symbols, self.limbs, self.code.r,
            self.code.m, ptr(self._weights), ptr(self._k_mask),
            ptr(self._hit_u8), ptr(self._elc_addend), ptr(self._low_mask),
            ptr(self._above_mask), ptr(self._bit_symbol),
            ptr(self._symbol_outside_masks), ptr(self._sym_bits),
            ptr(self._sym_widths), self._sym_bits.shape[1],
            symbol_count, mode, ptr(data_keys), ptr(choice_keys),
            ptr(value_keys), ptr(start_keys), int(self.ripple_check),
            ptr(counts),
        )
        return tuple(int(count) for count in counts)


__all__ = ["MAX_NATIVE_LIMBS", "NativeDecodeEngine"]
