"""Canonical code registry — the paper's Table I plus Section VI/VII codes.

Each entry records the published design parameters (multiplier, shuffle,
error class) and builds the corresponding :class:`~repro.core.codec.MuseCode`
on demand.  Construction itself re-verifies the multiplier (the ELC
refuses ambiguous mappings), so importing a registry code is a live check
that the paper's parameters are internally consistent.

Registry contents:

=================  ======  ==========  ========================  ==========
name               class   multiplier  shuffle                   source
=================  ======  ==========  ========================  ==========
MUSE(144,132)      C4B     4065        none                      Table I
MUSE(80,69)        C4B     2005        none                      Table I
MUSE(80,67)        C8A     5621        Eq. 5                     Table I
MUSE(80,70)        C4A_U1B 821         Eq. 6                     Table I
MUSE(144,128)      C4B     65519       none                      Section VII-A
MUSE(268,256)      C4B     3621        none                      Section VI-B (PIM)
=================  ======  ==========  ========================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.core.codec import MuseCode, build_hybrid_code
from repro.core.error_model import ErrorDirection, SymbolErrorModel
from repro.core.symbols import SymbolLayout


@dataclass(frozen=True)
class CodeSpec:
    """Published parameters of one registry code."""

    name: str
    n: int
    k: int
    m: int
    error_class: str
    shuffle: str  # "none", "eq5", "eq6"
    symbol_bits: int
    source: str

    @property
    def r(self) -> int:
        return self.n - self.k


TABLE_I: tuple[CodeSpec, ...] = (
    CodeSpec("MUSE(144,132)", 144, 132, 4065, "C4B", "none", 4, "Table I"),
    CodeSpec("MUSE(80,69)", 80, 69, 2005, "C4B", "none", 4, "Table I"),
    CodeSpec("MUSE(80,67)", 80, 67, 5621, "C8A", "eq5", 8, "Table I"),
    CodeSpec("MUSE(80,70)", 80, 70, 821, "C4A_U1B", "eq6", 4, "Table I"),
)

EXTENDED: tuple[CodeSpec, ...] = TABLE_I + (
    CodeSpec("MUSE(144,128)", 144, 128, 65519, "C4B", "none", 4, "Section VII-A"),
    CodeSpec("MUSE(268,256)", 268, 256, 3621, "C4B", "none", 4, "Section VI-B"),
)


def _layout_for(spec: CodeSpec) -> SymbolLayout:
    if spec.shuffle == "none":
        return SymbolLayout.sequential(spec.n, spec.symbol_bits)
    if spec.shuffle == "eq5":
        return SymbolLayout.eq5()
    if spec.shuffle == "eq6":
        return SymbolLayout.eq6()
    raise ValueError(f"unknown shuffle {spec.shuffle!r}")


def _build(spec: CodeSpec) -> MuseCode:
    layout = _layout_for(spec)
    if spec.error_class == "C4B":
        code = MuseCode(layout, spec.m, name=spec.name)
    elif spec.error_class == "C8A":
        model = SymbolErrorModel(layout, ErrorDirection.ONE_TO_ZERO)
        code = MuseCode(layout, spec.m, model, name=spec.name)
    elif spec.error_class == "C4A_U1B":
        code = build_hybrid_code(layout, spec.m, name=spec.name)
    else:
        raise ValueError(f"unknown error class {spec.error_class!r}")
    if code.k != spec.k:
        raise AssertionError(
            f"{spec.name}: registry k={spec.k} but construction gives k={code.k}"
        )
    return code


@lru_cache(maxsize=None)
def get_code(name: str) -> MuseCode:
    """Build (and cache) a registry code by its display name."""
    for spec in EXTENDED:
        if spec.name == name:
            return _build(spec)
    known = ", ".join(spec.name for spec in EXTENDED)
    raise KeyError(f"unknown code {name!r}; registry has: {known}")


def muse_144_132() -> MuseCode:
    """DDR4 ChipKill SSC code: 12 check bits vs Reed-Solomon's 16."""
    return get_code("MUSE(144,132)")


def muse_80_69() -> MuseCode:
    """DDR5 SSC code: 11 check bits, 5 spare bits over a 64-bit payload."""
    return get_code("MUSE(80,69)")


def muse_80_67() -> MuseCode:
    """DDR5 single-device-correct asymmetric (C8A) code, Eq. 5 shuffle."""
    return get_code("MUSE(80,67)")


def muse_80_70() -> MuseCode:
    """DDR5 hybrid (C4A_U1B) code, Eq. 6 shuffle; 6 spare bits."""
    return get_code("MUSE(80,70)")


def muse_144_128() -> MuseCode:
    """Detection-optimized 144-bit code (largest 16-bit multiplier)."""
    return get_code("MUSE(144,128)")


def muse_268_256() -> MuseCode:
    """HBM2-PIM code: 12 check bits for 256-bit words (Section VI-B)."""
    return get_code("MUSE(268,256)")


@lru_cache(maxsize=None)
def toy_16_7() -> MuseCode:
    """A deliberately weak 16-bit toy: the smallest valid C4B multiplier.

    Not a paper code.  m = 393 is the *first* multiplier the Algorithm-1
    search accepts over four 4-bit symbols, so it separates single-symbol
    errors (a real SSC code) while 3-symbol corruptions alias to valid
    codewords at a rate (~3e-3) large enough to see.  Its whole outcome
    space is small enough to enumerate — 172,800 cases at k = 2 and
    1,728,000 at k = 3 — so it is the target of the exact ground-truth
    tests the Monte-Carlo is checked against.
    """
    return MuseCode(SymbolLayout.sequential(16, 4), 393, name="TOY(16,7)")


ALL_BUILDERS: dict[str, Callable[[], MuseCode]] = {
    "MUSE(144,132)": muse_144_132,
    "MUSE(80,69)": muse_80_69,
    "MUSE(80,67)": muse_80_67,
    "MUSE(80,70)": muse_80_70,
    "MUSE(144,128)": muse_144_128,
    "MUSE(268,256)": muse_268_256,
}
