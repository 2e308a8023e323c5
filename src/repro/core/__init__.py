"""The paper's primary contribution: MUSE residue codes for memories.

Public surface:

* :class:`SymbolLayout` — bit-to-symbol assignment incl. the paper's
  Eq. 5 / Eq. 6 shuffles.
* Error models — :class:`SymbolErrorModel`, :class:`SingleBitErrorModel`,
  :class:`HybridErrorModel` and the :class:`ErrorDirection` axis.
* :class:`MultiplierSearch` / :func:`find_multipliers` — Algorithm 1.
* :class:`ErrorLookupCircuit` — the remainder->correction CAM.
* :class:`MuseCode` — systematic encoder + Figure-4 decoder.
* The code registry (``muse_144_132()`` etc.) with Table I parameters.

Each name loads its module on first use
(:func:`repro._lazy.lazy_exports`): a run that only builds codes never
loads the multiplier search or the erasure decoder.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".codec": (
        "DecodeResult",
        "DecodeStatus",
        "DetectionReason",
        "MuseCode",
        "build_hybrid_code",
    ),
    ".codes": (
        "ALL_BUILDERS",
        "EXTENDED",
        "TABLE_I",
        "CodeSpec",
        "get_code",
        "muse_80_67",
        "muse_80_69",
        "muse_80_70",
        "muse_144_128",
        "muse_144_132",
        "muse_268_256",
    ),
    ".elc": ("ELCEntry", "ErrorLookupCircuit"),
    ".erasure": (
        "ErasureDecoder",
        "ErasureWindow",
        "ErasureWindowError",
        "window_for_symbols",
    ),
    ".error_model": (
        "ErrorDirection",
        "ErrorModel",
        "HybridErrorModel",
        "SingleBitErrorModel",
        "SymbolErrorModel",
        "chipkill_model",
        "hybrid_c4a_u1b",
        "positive_error_value_histogram",
        "symbol_error_values",
    ),
    ".naming": ("ErrorClass", "ErrorClassName", "parse_error_class=parse"),
    ".residue": (
        "ResidueParameters",
        "an_decode",
        "an_encode",
        "an_is_codeword",
        "an_remainder",
        "check_bits",
        "redundancy_bits",
        "systematic_check_field",
        "systematic_data",
        "systematic_encode",
        "systematic_remainder",
    ),
    ".search": (
        "MultiplierSearch",
        "SearchResult",
        "candidate_multipliers",
        "find_multipliers",
        "is_valid_multiplier",
        "largest_multiplier",
        "smallest_feasible_redundancy",
    ),
    ".symbols": ("SymbolLayout",),
})

__all__ = [
    "ALL_BUILDERS",
    "CodeSpec",
    "DecodeResult",
    "DecodeStatus",
    "DetectionReason",
    "ELCEntry",
    "ErasureDecoder",
    "ErasureWindow",
    "ErasureWindowError",
    "ErrorClass",
    "ErrorClassName",
    "ErrorDirection",
    "ErrorLookupCircuit",
    "ErrorModel",
    "EXTENDED",
    "HybridErrorModel",
    "MultiplierSearch",
    "MuseCode",
    "ResidueParameters",
    "SearchResult",
    "SingleBitErrorModel",
    "SymbolErrorModel",
    "SymbolLayout",
    "TABLE_I",
    "an_decode",
    "an_encode",
    "an_is_codeword",
    "an_remainder",
    "build_hybrid_code",
    "candidate_multipliers",
    "check_bits",
    "chipkill_model",
    "find_multipliers",
    "get_code",
    "hybrid_c4a_u1b",
    "is_valid_multiplier",
    "largest_multiplier",
    "muse_144_128",
    "muse_144_132",
    "muse_268_256",
    "muse_80_67",
    "muse_80_69",
    "muse_80_70",
    "parse_error_class",
    "positive_error_value_histogram",
    "redundancy_bits",
    "smallest_feasible_redundancy",
    "symbol_error_values",
    "systematic_check_field",
    "systematic_data",
    "systematic_encode",
    "systematic_remainder",
    "window_for_symbols",
]
