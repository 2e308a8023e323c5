"""The scalar reference backend: one big-int decode per word.

This wraps the original :meth:`MuseCode.decode` /
:meth:`MuseCode.decode_without_ripple_check` loop behind the
:class:`DecodeEngine` interface.  It is the semantics oracle the numpy
and native backends are tested against.
"""

from __future__ import annotations

from typing import Sequence

from repro.engine.base import DecodeEngine, ScalarBatchResult, status_of


def _as_int_list(words) -> list[int]:
    """Accept a Python-int sequence or a limb batch from the numpy side."""
    if hasattr(words, "dtype"):  # (B, L) uint64 limb array
        from repro.engine.limbs import limbs_to_ints

        return limbs_to_ints(words)
    return list(words)


class ScalarDecodeEngine(DecodeEngine):
    """Reference backend: arbitrary-precision ints, one word at a time."""

    name = "scalar"

    def encode_batch(self, data: Sequence[int]) -> list[int]:
        encode = self.code.encode
        return [encode(word) for word in data]

    def decode_batch(self, words) -> ScalarBatchResult:
        code = self.code
        decode = code.decode if self.ripple_check else code.decode_without_ripple_check
        results = [decode(w) for w in _as_int_list(words)]
        return ScalarBatchResult(code, [status_of(r) for r in results], results)


__all__ = ["ScalarDecodeEngine"]
