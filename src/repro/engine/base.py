"""Backend-neutral decode-engine interface.

A :class:`DecodeEngine` binds one code to a *batch* encoder/decoder.
Both code families — MUSE (:class:`~repro.core.codec.MuseCode`) and
Reed-Solomon (:class:`~repro.rs.engine.RsDecodeEngine` over an
:class:`~repro.rs.reed_solomon.RSCode`) — run on the three fixed
backends of :data:`repro.engine.BACKENDS`, and
:data:`repro.engine.ENGINES` names each family's engine class on each:

* ``scalar`` — the reference path, one scalar ``decode`` call per word
  (always available);
* ``numpy`` — fixed-width arrays with the whole decode flow vectorised
  (:mod:`repro.engine.numpy_backend`, :class:`repro.rs.engine.NumpyRsEngine`);
* ``native`` — self-compiled C kernels over the same tables
  (:mod:`repro.engine.native`, :mod:`repro.rs.engine_native`).

Each code's tables are built once, numpy-free, by
:mod:`repro.engine.tables`: the native engines pass those buffers to
the kernels and the numpy engines read them as ``np.frombuffer``
views.  numpy is imported on first use (:func:`repro._lazy.lazy_import`)
here and along the whole fused path, so a native run whose chunks all
run fused never loads it; a batch decode, which computes on ndarrays,
does.

All classify every word into one of four :data:`STATUS_*` codes, which
deliberately mirror the Monte-Carlo tally buckets: the reliability
simulators consume :meth:`BatchDecodeResult.counts` directly, and the
cross-backend equivalence tests compare the per-word codes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro._lazy import lazy_import

np = lazy_import(globals(), "np", "numpy")

if TYPE_CHECKING:
    from repro.core.codec import DecodeResult, MuseCode

#: Per-word outcome codes (uint8-friendly, bincount-friendly).  The
#: fourth is MUSE's ripple veto or RS's device-confinement veto.
STATUS_CLEAN = 0
STATUS_CORRECTED = 1
STATUS_DETECTED_NO_MATCH = 2
STATUS_DETECTED_RIPPLE = 3


class BackendUnavailableError(RuntimeError):
    """The requested backend cannot run here, or cannot run this code
    (e.g. no C compiler, or a code wider than the native kernels)."""


def status_of(result: "DecodeResult") -> int:
    """Map one scalar :class:`DecodeResult` to its batch status code."""
    from repro.core.codec import DecodeStatus, DetectionReason

    if result.status is DecodeStatus.CLEAN:
        return STATUS_CLEAN
    if result.status is DecodeStatus.CORRECTED:
        return STATUS_CORRECTED
    if result.reason is DetectionReason.REMAINDER_NOT_FOUND:
        return STATUS_DETECTED_NO_MATCH
    return STATUS_DETECTED_RIPPLE


class BatchDecodeResult(ABC):
    """Outcome of decoding one batch of codewords.

    ``statuses`` holds the per-word :data:`STATUS_*` codes (a list or a
    uint8 ndarray); it and :meth:`counts` never materialise per-word
    objects.  :meth:`results` reconstructs the family's scalar decode
    results and is intended for interop and tests, not hot loops.
    """

    def __init__(self, code, statuses: Sequence[int]):
        self.code = code
        self.statuses = statuses

    def counts(self) -> tuple[int, int, int, int]:
        """``(clean, corrected, detected_no_match, detected_vetoed)``."""
        return tuple(int(c) for c in np.bincount(self.statuses, minlength=4)[:4])

    @abstractmethod
    def results(self) -> list:
        """Materialise results identical to the scalar decoder's."""

    def __len__(self) -> int:
        return len(self.statuses)


class ScalarBatchResult(BatchDecodeResult):
    """Batch result of a scalar engine (MUSE or RS), backed by the list
    of per-word scalar decode results."""

    def __init__(self, code, statuses: list[int], results: list):
        super().__init__(code, statuses)
        self._results = results

    def results(self) -> list:
        return list(self._results)


class DecodeEngine(ABC):
    """One code bound to one batch-execution strategy.

    Parameters
    ----------
    code:
        The :class:`MuseCode` whose arithmetic this engine runs.
    ripple_check:
        When False the engine reproduces
        :meth:`MuseCode.decode_without_ripple_check` (the Figure-4 flow
        minus the confinement/overflow detector) — the ablation the
        frontier experiment measures.
    """

    #: the backend's name in :data:`repro.engine.BACKENDS`
    name: str

    def __init__(self, code: "MuseCode", ripple_check: bool = True):
        self.code = code
        self.ripple_check = ripple_check

    def __repr__(self) -> str:
        flavour = "" if self.ripple_check else ", no ripple check"
        return f"{type(self).__name__}({self.code.name}{flavour})"

    @abstractmethod
    def encode_batch(self, data: Sequence) -> list:
        """Systematically encode a batch of data words."""

    @abstractmethod
    def decode_batch(self, words) -> BatchDecodeResult:
        """Decode a batch of received words.

        ``words`` may be a sequence of words (Python ints for MUSE,
        symbol rows for RS) or, zero-copy on the vector backends, the
        engine's own batch array (``(B, L)`` uint64 limbs from
        :mod:`repro.engine.limbs`, ``(B, n_symbols)`` uint32 symbols).
        """
