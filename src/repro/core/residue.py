"""Residue-code arithmetic primitives (paper Section II, Eqs. 1-4).

A residue (AN) code stores ``m * data`` (Eq. 1) and flags any nonzero
remainder (Eqs. 2-3); the paper instead uses the **systematic** form
(Chien 1964, Eq. 4): the data is shifted left by ``r`` bits and a check
value ``X`` is stored in the freed low bits so that the whole codeword
is divisible by ``m``.  Data and check bits are separable, so the
error-free read path needs no arithmetic at all.

A clean codeword satisfies ``codeword % m == 0``, and an error of value
``e`` leaves the remainder ``e % m`` — the fingerprint the Error Lookup
Circuit translates back into a correction.
"""

from __future__ import annotations


def redundancy_bits(m: int) -> int:
    """Number of check bits needed to store residues of ``m``.

    The paper's Table II: ``r = ceil(log2 m)``; equivalently the bit
    length of ``m - 1`` for the residue range ``[0, m)`` — but the paper
    stores ``X`` values up to ``m`` itself, so we use ``m.bit_length()``
    which equals ``ceil(log2 m)`` for non-powers-of-two (all valid MUSE
    multipliers are odd, hence never powers of two).
    """
    if m <= 1:
        raise ValueError(f"multiplier must be >= 2, got {m}")
    return m.bit_length()


# ----------------------------------------------------------------------
# Systematic formulation (Eq. 4)
# ----------------------------------------------------------------------

def check_bits(data: int, m: int, r: int | None = None) -> int:
    """Eq. 4: the value ``X`` that makes ``(data << r) + X`` divisible by m.

    ``X = (-(data << r)) mod m`` — always in ``[0, m)`` and therefore
    representable in ``r`` bits (every valid multiplier satisfies
    ``m < 2^r``).
    """
    if r is None:
        r = redundancy_bits(m)
    return (-(data << r)) % m


def systematic_encode(data: int, m: int, r: int | None = None) -> int:
    """Encode ``data`` into the systematic codeword ``(data << r) | X``."""
    if data < 0:
        raise ValueError("data must be non-negative")
    if r is None:
        r = redundancy_bits(m)
    return (data << r) + check_bits(data, m, r)
