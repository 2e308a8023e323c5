"""The native (self-compiled C) MUSE backend and the backend registry.

The native suites skip on hosts without a working C compiler — the
registry probe is the same gate ``auto`` resolution uses, so skipping
here means the backend can never have been selected either.  Registry
semantics (priority order, env-var disabling, explicit-unavailable
errors, ``auto`` stepping down past a refusing rung) run everywhere,
against the real registry rather than a mock.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.codes import muse_80_67, muse_80_69, muse_80_70, muse_144_132
from repro.engine import (
    DISABLE_ENV,
    BackendUnavailableError,
    RegisteredBackend,
    _REGISTRY,
    available_backends,
    get_engine,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.orchestrate.corruption import (
    muse_corruption_chunk,
    muse_scenario_chunk,
)
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.reliability.monte_carlo import muse_design_point
from repro.scenarios import resolve_scenario

# Gate on the registry (not the raw compiler probe) so the suite also
# skips when REPRO_DISABLE_BACKENDS hides the backend from `auto`.
requires_native = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler, or disabled)",
)

ALL_CODES = [muse_144_132, muse_80_69, muse_80_67, muse_80_70]
CODE_IDS = ["144_132", "80_69", "80_67_eq5", "80_70_eq6_hybrid"]


#: Every Table-IV MUSE point (144_132 and 80_69 are +4b and +5b) plus
#: the two extra 80-bit layouts.
FUSED_CODES = [
    partial(muse_design_point, extra) for extra in range(4)
] + ALL_CODES
FUSED_IDS = [f"144_{128 + extra}" for extra in range(4)] + CODE_IDS
#: The streams the fused kernels replay.
FUSED_SCENARIOS = ("msed", "mbu")


class TestRegistrySemantics:
    def test_three_rungs_registered(self):
        assert registered_backends() == ("scalar", "numpy", "native")

    def test_register_rejects_reserved_names(self):
        with pytest.raises(ValueError):
            register_backend("auto", lambda: True, lambda code: None)
        with pytest.raises(ValueError):
            register_backend("", lambda: True, lambda code: None)

    def test_env_var_disables_a_backend(self, monkeypatch):
        monkeypatch.setenv(DISABLE_ENV, "native")
        assert "native" not in available_backends()
        assert resolve_backend("auto") == "numpy"
        monkeypatch.setenv(DISABLE_ENV, "numpy,native")
        assert available_backends() == ("scalar",)
        assert resolve_backend("auto") == "scalar"

    def test_explicit_disabled_backend_raises(self, monkeypatch):
        """An explicit request must never silently degrade."""
        monkeypatch.setenv(DISABLE_ENV, "numpy")
        with pytest.raises(BackendUnavailableError):
            resolve_backend("numpy")
        with pytest.raises(BackendUnavailableError):
            get_engine(muse_80_69(), "numpy")

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(ValueError) as err:
            resolve_backend("tpu")
        assert "scalar" in str(err.value)

    def test_auto_is_the_last_available(self):
        assert resolve_backend("auto") == available_backends()[-1]

    def test_auto_engine_is_the_explicit_best(self):
        """auto and the explicit top rung share one cached engine."""
        code = muse_80_69()
        best = available_backends()[-1]
        assert get_engine(code, "auto") is get_engine(code, best)

    def test_auto_steps_down_past_a_refusing_rung(self, monkeypatch):
        """A top rung whose factory refuses a code hands ``auto`` to the
        next rung — tried once per code, not once per call — while an
        explicit request for it raises."""
        calls = []

        def refuse(code, ripple_check=True):
            calls.append(code)
            raise BackendUnavailableError("refuses every code")

        monkeypatch.setitem(
            _REGISTRY,
            "refuser",
            RegisteredBackend("refuser", lambda: True, refuse, None, 99),
        )
        code = muse_80_69()
        below = available_backends()[-2]
        assert get_engine(code, "auto") is get_engine(code, below)
        assert get_engine(code, "auto") is get_engine(code, below)
        assert len(calls) == 1
        with pytest.raises(BackendUnavailableError):
            get_engine(code, "refuser")


@requires_native
class TestNativeRegistration:
    def test_native_outranks_numpy_for_auto(self):
        backends = available_backends()
        assert backends.index("native") > backends.index("numpy")

    def test_engine_cached_per_code_and_flavour(self):
        code = muse_80_69()
        first = get_engine(code, "native")
        assert get_engine(code, "native") is first
        assert get_engine(code, "native", ripple_check=False) is not first

    def test_library_compiled_once(self):
        from repro.engine.cc import load_library

        assert load_library() is load_library()

    def test_declines_more_symbols_than_the_choice_scan_holds(self):
        """Empty symbols let a 16-bit layout hold 604 symbols, more than
        the kernels' 512-score scratch: native refuses, auto steps down."""
        from repro.core.codec import MuseCode
        from repro.core.symbols import SymbolLayout

        base = SymbolLayout.sequential(16, 4)
        code = MuseCode(
            SymbolLayout(16, base.symbols + ((),) * 600), 393, name="wide"
        )
        with pytest.raises(BackendUnavailableError):
            get_engine(code, "native")
        assert get_engine(code, "auto") is get_engine(code, "numpy")


@requires_native
class TestNativeDecodeParity:
    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_corrupted_stream_matches_numpy(self, factory):
        code = factory()
        words = muse_corruption_chunk(code, Chunk(0, 600), derive_key(2022), 2)
        ref = get_engine(code, "numpy").decode_batch(words)
        nat = get_engine(code, "native").decode_batch(words)
        assert np.array_equal(ref.statuses, nat.statuses)
        assert ref.counts() == nat.counts()
        assert ref.results() == nat.results()

    @pytest.mark.parametrize("factory", ALL_CODES, ids=CODE_IDS)
    def test_ripple_ablation_matches_numpy(self, factory):
        code = factory()
        words = muse_corruption_chunk(code, Chunk(0, 400), derive_key(7), 2)
        ref = get_engine(code, "numpy", ripple_check=False).decode_batch(words)
        nat = get_engine(code, "native", ripple_check=False).decode_batch(words)
        assert np.array_equal(ref.statuses, nat.statuses)
        assert ref.results() == nat.results()

    def test_stream_exercises_every_status(self):
        """The parity stream is only a real pin if all 4 statuses occur,
        including the ripple path and its in-kernel ctz/confinement."""
        # The weakened eq-6 hybrid code miscorrects often enough that a
        # short 2-symbol stream also lands silent-clean aliases.
        code = muse_80_70()
        words = muse_corruption_chunk(code, Chunk(0, 600), derive_key(2022), 2)
        statuses = set(get_engine(code, "native").decode_batch(words).statuses)
        assert statuses == {0, 1, 2, 3}

    def test_wrapping_correction_add(self):
        """Corrections whose addend wraps the top limb stay exact."""
        code = muse_144_132()
        # Flip the top bit of words near the wrap boundary: the ELC
        # addend for these remainders carries across all three limbs.
        top = code.n - 1
        words = [code.encode(0) ^ (1 << top), code.encode(1) ^ (1 << top)]
        got = get_engine(code, "native").decode_batch(words)
        expect = get_engine(code, "numpy").decode_batch(words)
        assert list(got.statuses) == list(expect.statuses)
        assert got.results() == expect.results()


@requires_native
class TestNativeFusedChunk:
    """``fused_scenario_counts`` against numpy generate-then-decode of
    ``muse_scenario_chunk``, per replayable scenario."""

    @pytest.mark.parametrize("k_symbols", [1, 2])
    @pytest.mark.parametrize("factory", FUSED_CODES, ids=FUSED_IDS)
    @pytest.mark.parametrize("scenario", FUSED_SCENARIOS)
    def test_counts_match_generate_then_decode(
        self, scenario, factory, k_symbols
    ):
        code = factory()
        stream = resolve_scenario(scenario)
        engine = get_engine(code, "native")
        key = derive_key(13)
        for chunk in (Chunk(0, 250), Chunk(137, 200)):
            words = muse_scenario_chunk(stream, code, chunk, key, k_symbols)
            expect = get_engine(code, "numpy").decode_batch(words).counts()
            assert (
                engine.fused_scenario_counts(scenario, chunk, key, k_symbols)
                == expect
            )

    @pytest.mark.parametrize("k_symbols", [1, 2])
    @pytest.mark.parametrize("factory", FUSED_CODES, ids=FUSED_IDS)
    @pytest.mark.parametrize("scenario", FUSED_SCENARIOS)
    def test_ablation_counts_match(self, scenario, factory, k_symbols):
        code = factory()
        stream = resolve_scenario(scenario)
        engine = get_engine(code, "native", ripple_check=False)
        key = derive_key(21)
        chunk = Chunk(11, 150)
        words = muse_scenario_chunk(stream, code, chunk, key, k_symbols)
        expect = (
            get_engine(code, "numpy", ripple_check=False)
            .decode_batch(words)
            .counts()
        )
        assert (
            engine.fused_scenario_counts(scenario, chunk, key, k_symbols)
            == expect
        )

    @pytest.mark.parametrize("k_symbols", [1, 2])
    def test_msed_entry_is_the_msed_scenario(self, k_symbols):
        engine = get_engine(muse_144_132(), "native")
        chunk, key = Chunk(5, 300), derive_key(3)
        assert engine.fused_chunk_counts(
            chunk, key, k_symbols
        ) == engine.fused_scenario_counts("msed", chunk, key, k_symbols)

    def test_declines_what_it_cannot_replay(self):
        """k outside 1..2 and the unfused scenarios are not exactly
        replayable -> the caller must fall back."""
        engine = get_engine(muse_80_69(), "native")
        chunk, key = Chunk(0, 10), derive_key(1)
        assert engine.fused_chunk_counts(chunk, key, 3) is None
        assert engine.fused_chunk_counts(chunk, key, 0) is None
        assert engine.fused_scenario_counts("mbu", chunk, key, 3) is None
        assert engine.fused_scenario_counts("mbu", chunk, key, 0) is None
        for name in ("stuck", "rowfail", "scrub", "wear"):
            for k_symbols in (1, 2):
                assert (
                    engine.fused_scenario_counts(name, chunk, key, k_symbols)
                    is None
                ), name

    @pytest.mark.parametrize("factory", FUSED_CODES, ids=FUSED_IDS)
    @pytest.mark.parametrize("scenario", FUSED_SCENARIOS)
    def test_chunk_splits_compose(self, scenario, factory):
        """Tallies are a pure function of the global trial index."""
        engine = get_engine(factory(), "native")
        key = derive_key(33)

        def counts(chunk):
            return engine.fused_scenario_counts(scenario, chunk, key, 2)

        whole = counts(Chunk(0, 300))
        parts = [counts(Chunk(0, 110)), counts(Chunk(110, 90)),
                 counts(Chunk(200, 100))]
        assert tuple(sum(c) for c in zip(*parts)) == whole
