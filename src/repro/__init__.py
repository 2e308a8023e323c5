"""repro — reproduction of "Revisiting Residue Codes for Modern Memories".

MUSE ECC (MICRO 2022): residue codes adapted to DRAM with symbol error
models and shuffling, evaluated against Reed-Solomon ChipKill.

Subpackages
-----------
``repro.core``
    The paper's contribution: symbol layouts, error models, the
    Algorithm-1 multiplier search, the ELC, and the MUSE codec.
``repro.arith``
    Fast constant arithmetic: Granlund-Montgomery division, Lemire
    modulo, Booth/Wallace hardware structure models.
``repro.rs``
    Reed-Solomon ChipKill baseline over GF(2^m).
``repro.memory``
    DRAM geometry, codeword striping/shuffle routing, fault injection.
``repro.engine``
    Pluggable batch decode engines: the scalar big-int reference and a
    vectorised numpy backend over ``(batch, limbs)`` uint64 codewords.
``repro.reliability``
    Monte-Carlo multi-symbol error detection simulator (Table IV).
``repro.vlsi``
    Analytic latency/area/power model (Table V).
``repro.perf``
    Cache/CPU/DRAM timing simulator + synthetic SPEC-like workloads
    (Figures 6-7, Table VI).
``repro.security``
    Rowhammer hash detection and MTE tag semantics (Section VI-A).
``repro.pim``
    Residue-checked processing-in-memory MAC (Section VI-B).
``repro.experiments``
    One runner per paper table/figure.

The names below (``MuseCode``, ``muse_144_132`` …) load their modules
on first use (:func:`repro._lazy.lazy_exports`), so ``import repro``
costs almost nothing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".core": (
        "DecodeResult",
        "DecodeStatus",
        "ErrorDirection",
        "MultiplierSearch",
        "MuseCode",
        "SymbolErrorModel",
        "SymbolLayout",
        "find_multipliers",
        "get_code",
        "muse_80_67",
        "muse_80_69",
        "muse_80_70",
        "muse_144_128",
        "muse_144_132",
        "muse_268_256",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "DecodeResult",
    "DecodeStatus",
    "ErrorDirection",
    "MultiplierSearch",
    "MuseCode",
    "SymbolErrorModel",
    "SymbolLayout",
    "__version__",
    "find_multipliers",
    "get_code",
    "muse_144_128",
    "muse_144_132",
    "muse_268_256",
    "muse_80_67",
    "muse_80_69",
    "muse_80_70",
]
