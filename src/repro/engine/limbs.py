"""Fixed-width limb arrays for batches of wide codewords.

A batch of ``B`` codewords of up to ``n`` bits is stored as a
``(B, L)`` ``uint64`` array of little-endian 64-bit *limbs*, the same
word-array representation hardware ECC simulators use instead of
arbitrary-precision integers.  ``L`` is chosen so the limb width
``W = 64 * L`` strictly exceeds ``n``: the decoder's correction adder
then wraps modulo ``2^W``, and both an underflow (``corrected < 0``)
and an overflow (``corrected >= 2^n``) of the true integer result leave
set bits at positions ``>= n`` — a single vectorised mask test replaces
the scalar decoder's two range checks.

All helpers are elementwise over the batch dimension and loop only over
the (tiny, <= 3) limb dimension, so every operation is O(limbs) numpy
kernels regardless of batch size.
"""

from __future__ import annotations

from typing import Sequence

from repro._lazy import lazy_import

np = lazy_import(globals(), "np", "numpy")

LIMB_BITS = 64
_LIMB_MASK = (1 << LIMB_BITS) - 1

#: Residues are accumulated as ``32-bit chunk x multiplier`` products in
#: uint64; keeping the multiplier under 28 bits bounds the sum of the
#: (at most 6) partial products safely below 2^64.  Every multiplier in
#: the paper is at most 16 bits, far inside the limit.
MAX_MULTIPLIER_BITS = 28


def limb_count(n_bits: int) -> int:
    """Limbs needed for ``n_bits``-wide words with headroom above bit n-1.

    Always at least one spare bit above the codeword (``W > n``), so the
    wrapping adder keeps over/underflow visible — see the module note.
    """
    if n_bits <= 0:
        raise ValueError(f"word width must be positive, got {n_bits}")
    return n_bits // LIMB_BITS + 1


def int_to_limb_row(value: int, limbs: int) -> np.ndarray:
    """One Python int -> ``(limbs,)`` uint64 row (little-endian)."""
    if value < 0 or value >> (LIMB_BITS * limbs):
        raise ValueError(f"value does not fit in {limbs} limbs")
    return np.array(
        [(value >> (LIMB_BITS * j)) & _LIMB_MASK for j in range(limbs)],
        dtype=np.uint64,
    )


def ints_to_limbs(values: Sequence[int], limbs: int) -> np.ndarray:
    """Python ints -> ``(len(values), limbs)`` uint64 batch."""
    out = np.zeros((len(values), limbs), dtype=np.uint64)
    for j in range(limbs):
        shift = LIMB_BITS * j
        out[:, j] = [(v >> shift) & _LIMB_MASK for v in values]
    return out


def limbs_to_ints(batch: np.ndarray) -> list[int]:
    """``(B, L)`` uint64 batch -> list of Python ints."""
    totals = [0] * batch.shape[0]
    for j in range(batch.shape[1] - 1, -1, -1):
        column = batch[:, j].tolist()
        totals = [(t << LIMB_BITS) | c for t, c in zip(totals, column)]
    return totals


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise multi-limb add, wrapping modulo ``2^(64 * L)``."""
    out = np.empty_like(a)
    carry = np.zeros(a.shape[0], dtype=np.uint64)
    for j in range(a.shape[1]):
        partial = a[:, j] + b[:, j]
        overflow_ab = partial < a[:, j]
        total = partial + carry
        overflow_carry = total < carry
        out[:, j] = total
        carry = (overflow_ab | overflow_carry).astype(np.uint64)
    return out


def lshift(a: np.ndarray, bits: int) -> np.ndarray:
    """Shift every word left by ``bits`` (< 64); drops bits past the top limb."""
    if not 0 <= bits < LIMB_BITS:
        raise ValueError(f"shift must be in [0, {LIMB_BITS}), got {bits}")
    if bits == 0:
        return a.copy()
    shift = np.uint64(bits)
    fill = np.uint64(LIMB_BITS - bits)
    out = a << shift
    out[:, 1:] |= a[:, :-1] >> fill
    return out


def residue(a: np.ndarray, m: int) -> np.ndarray:
    """``word % m`` for every word, via precomputable chunk weights.

    Splits each limb into 32-bit chunks and accumulates
    ``chunk * (2^(32 j) mod m)``; with ``m`` under
    :data:`MAX_MULTIPLIER_BITS` bits the uint64 accumulator cannot
    overflow (see the module note), so one final ``% m`` finishes the
    reduction.
    """
    if m.bit_length() > MAX_MULTIPLIER_BITS:
        raise ValueError(
            f"multiplier {m} exceeds {MAX_MULTIPLIER_BITS} bits; "
            "the chunked residue accumulator would overflow"
        )
    half = np.uint64(32)
    low32 = np.uint64(0xFFFFFFFF)
    acc = np.zeros(a.shape[0], dtype=np.uint64)
    weight = 1
    for j in range(a.shape[1]):
        limb = a[:, j]
        acc += (limb & low32) * np.uint64(weight)
        weight = (weight << 32) % m
        acc += (limb >> half) * np.uint64(weight)
        weight = (weight << 32) % m
    return acc % np.uint64(m)
