"""The native backend: self-compiled C kernels over each code's tables.

:class:`NativeKernels` is what both families' native engines share:
loading the ctypes library built by :mod:`repro.engine.cc` (a host
without one refuses the code, so ``auto`` steps down to numpy), and
the fused tail — :func:`~repro.orchestrate.corruption.fused_stream`
says whether a kernel can replay a scenario's counter-hashed stream,
the kernel tallies the 4 statuses of the chunk into a 4-slot stdlib
array without materialising any batch array, and
:meth:`~NativeKernels.fused_chunk_counts` is the msed case.  It
replays the msed stream and the ``mbu`` scenario's burst stream for
``k_symbols`` up to
:data:`~repro.orchestrate.corruption.FUSED_MAX_SLOTS`: the kernels run
the generator's own Floyd sampler
(:func:`~repro.orchestrate.corruption.choose_symbols`) and slot order.
Past that ``k``, and for every other scenario, the tail returns
``None`` and the caller generates then decodes.  Tallies are
byte-identical to every other backend at a fixed seed.

The fused tail runs on ``bytes`` alone — the code's tables
(:mod:`repro.engine.tables`), the stream keys and the counts — so a
run whose chunks all run fused never imports numpy; ``decode_batch``,
which takes and returns ndarrays, does.

:class:`NativeDecodeEngine` is the MUSE engine.  It subclasses the
numpy engine for its batch layout and passes the code's
:class:`~repro.engine.tables.MuseTables` buffers — the ones the numpy
engine views — to the kernels.  Its fused kernel encodes a lane block
of clean words at once and decodes each trial's error pattern: a clean
word's remainder is zero, so the chosen symbols' changes give the
received remainder.  An ELC hit under the ripple check is settled on
its claimed symbol's received value; only a claimed symbol that is not
one run of bits builds the received word for the full check.  A code
the kernels cannot take (more than :data:`MAX_NATIVE_LIMBS` limbs, or
``r`` outside ``(0, 64)``) raises :class:`BackendUnavailableError`.
Symbols need no limit of their own: no kernel buffer is sized by the
symbol count, and since every symbol holds at least one bit, 8 limbs
hold at most 512 of them.
"""

from __future__ import annotations

from array import array

from repro._lazy import lazy_import
from repro.engine.base import BackendUnavailableError
from repro.engine.cc import load_library, ptr
from repro.engine.limbs import LIMB_BITS
from repro.engine.numpy_backend import NumpyBatchResult, NumpyDecodeEngine
from repro.orchestrate.corruption import fused_stream

np = lazy_import(globals(), "np", "numpy")

#: The C kernels keep words in 8-limb stack scratch (``word[8]``, and
#: ``clean[8]`` per lane block).
MAX_NATIVE_LIMBS = 8


class NativeKernels:
    """The ctypes plumbing both native engines share.

    Mixed in ahead of a family's numpy engine, whose ``tables`` buffers
    the kernels take.  Each engine sets ``_stream_shape`` — the
    ``(columns, symbols)`` its trial stream draws keys for — and runs
    its own fused kernel in :meth:`_fused_kernel`.
    """

    name = "native"
    _stream_shape: tuple[int, int]

    def __init__(self, code, option):
        super().__init__(code, option)
        self._lib = load_library()
        if self._lib is None:
            raise BackendUnavailableError(
                "native kernels unavailable (no working C compiler?)"
            )

    def fused_chunk_counts(self, chunk, key: int, k_symbols: int):
        """:meth:`fused_scenario_counts` of the msed stream."""
        return self.fused_scenario_counts("msed", chunk, key, k_symbols)

    def fused_scenario_counts(self, scenario: str, chunk, key: int,
                              k_symbols: int):
        """The 4-status counts of one fused corruption->decode chunk.

        Returns the counts :meth:`BatchDecodeResult.counts` would give
        for the decoded ``scenario_chunk`` — byte-identical — or
        ``None`` when the kernel cannot replay the scenario named
        ``scenario`` at ``k_symbols`` (see :func:`fused_stream`),
        telling the caller to take the unfused path.
        """
        stream = fused_stream(scenario, key, *self._stream_shape, k_symbols)
        if stream is None:
            return None
        counts = array("q", (0, 0, 0, 0))
        self._fused_kernel(chunk, k_symbols, stream, counts)
        return tuple(counts)

    def _fused_kernel(self, chunk, k_symbols: int, stream, counts) -> None:
        """Run the family's fused kernel over ``chunk``, tallying into
        ``counts``; ``stream`` is :func:`fused_stream`'s tuple."""
        raise NotImplementedError


class NativeDecodeEngine(NativeKernels, NumpyDecodeEngine):
    """C-kernel MUSE backend; the code's table buffers, ``cc``'s code."""

    def __init__(self, code, ripple_check: bool = True):
        super().__init__(code, ripple_check)
        if self.limbs > MAX_NATIVE_LIMBS:
            raise BackendUnavailableError(
                f"native kernels support up to {MAX_NATIVE_LIMBS} limbs, "
                f"code needs {self.limbs}"
            )
        if not 0 < code.r < LIMB_BITS:
            raise BackendUnavailableError(
                f"fused encode needs 0 < r < {LIMB_BITS}, got {code.r}"
            )
        self._stream_shape = (self.limbs, code.layout.symbol_count)

    def decode_limbs(self, words: np.ndarray) -> NumpyBatchResult:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        batch = words.shape[0]
        corrected = np.empty_like(words)
        statuses = np.empty(batch, dtype=np.uint8)
        rems = np.empty(batch, dtype=np.uint64)
        tables = self.tables
        self._lib.muse_decode_batch(
            ptr(words), batch, self.limbs, ptr(corrected), ptr(statuses),
            ptr(rems), self.code.m, ptr(tables.pow2), ptr(tables.entry),
            ptr(tables.addend), ptr(tables.claim_symbol),
            ptr(tables.low_mask), ptr(tables.above_mask),
            ptr(tables.outside), int(self.ripple_check),
        )
        return NumpyBatchResult(self.code, statuses, words, corrected, rems)

    def _fused_kernel(self, chunk, k_symbols: int, stream, counts) -> None:
        mode, data_keys, choice_keys, value_keys, start_keys = stream
        tables = self.tables
        self._lib.muse_fused_chunk(
            chunk.start, chunk.size, k_symbols, self.limbs, self.code.r,
            self.code.m, ptr(tables.pow2), ptr(tables.k_mask),
            ptr(tables.entry), ptr(tables.addend), ptr(tables.claim_symbol),
            ptr(tables.claim_delta), ptr(tables.above_mask),
            ptr(tables.outside), ptr(tables.sym_bits),
            ptr(tables.sym_widths), ptr(tables.sym_first),
            tables.max_width, tables.symbol_count, mode,
            ptr(data_keys), ptr(choice_keys), ptr(value_keys),
            ptr(start_keys), int(self.ripple_check), ptr(counts),
        )


__all__ = ["MAX_NATIVE_LIMBS", "NativeDecodeEngine", "NativeKernels"]
