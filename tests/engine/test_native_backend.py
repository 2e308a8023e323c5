"""The native (self-compiled C) MUSE backend and the backend table.

The native suites skip on hosts without a working C compiler — the
availability probe is the same gate ``auto`` resolution uses, so
skipping here means the backend can never have been selected either.
Backend semantics (rung order, env-var disabling, explicit-unavailable
errors, ``auto`` stepping down past a refusing rung) run everywhere,
against the real tables rather than a mock.
"""

import ctypes
import importlib
import os
import subprocess
from functools import partial

import numpy as np
import pytest

from repro.core.codec import MuseCode
from repro.core.codes import (
    muse_80_67,
    muse_80_69,
    muse_80_70,
    muse_144_132,
    toy_16_7,
)
from repro.engine import (
    BACKENDS,
    DISABLE_ENV,
    ENGINES,
    BackendUnavailableError,
    DecodeEngine,
    available_backends,
    get_engine,
    resolve_backend,
)
from repro.orchestrate.corruption import (
    muse_corruption_chunk,
    muse_scenario_chunk,
)
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.reliability.monte_carlo import muse_design_point
from repro.rs.engine import get_rs_engine
from repro.rs.reed_solomon import rs_for_channel
from repro.scenarios import resolve_scenario

# Gate on availability (not the raw compiler probe) so the suite also
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


class RefusingEngine:
    """An engine class that refuses every code, counting the attempts."""

    built = []

    def __init__(self, code, option):
        RefusingEngine.built.append(code)
        raise BackendUnavailableError("refuses every code")


class TestRegistrySemantics:
    def test_three_rungs_registered(self):
        assert BACKENDS == ("scalar", "numpy", "native")
        assert set(ENGINES) == {"MUSE", "RS"}
        for family, engines in ENGINES.items():
            assert tuple(engines) == BACKENDS
            for backend, target in engines.items():
                module, _, attr = target.partition(":")
                engine = getattr(importlib.import_module(module), attr)
                assert issubclass(engine, DecodeEngine)
                assert engine.name == backend

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
        """A top rung whose engine refuses a code hands ``auto`` to the
        next rung — tried once per code, not once per call — while an
        explicit request for it raises."""
        top, below = available_backends()[-1], available_backends()[-2]
        monkeypatch.setitem(
            ENGINES["MUSE"], top, f"{__name__}:RefusingEngine"
        )
        monkeypatch.setattr(RefusingEngine, "built", [])
        # A fresh code: the memoised muse_80_69() may already hold its
        # auto engine, which would never ask the refusing rung.
        template = muse_80_69()
        code = MuseCode(template.layout, template.m, name=template.name)
        assert get_engine(code, "auto") is get_engine(code, below)
        assert get_engine(code, "auto") is get_engine(code, below)
        assert RefusingEngine.built == [code]
        with pytest.raises(BackendUnavailableError):
            get_engine(code, top)

    def test_auto_steps_down_past_a_refusing_rs_rung(self, monkeypatch):
        """The RS family steps down through the same resolver: its top
        rung is asked once per code, and an explicit request raises."""
        top, below = available_backends()[-1], available_backends()[-2]
        monkeypatch.setitem(ENGINES["RS"], top, f"{__name__}:RefusingEngine")
        monkeypatch.setattr(RefusingEngine, "built", [])
        code = rs_for_channel(8, 144)  # a fresh code, no engines cached
        assert get_rs_engine(code, "auto") is get_rs_engine(code, below)
        assert get_rs_engine(code, "auto") is get_rs_engine(code, below)
        assert RefusingEngine.built == [code]
        with pytest.raises(BackendUnavailableError):
            get_rs_engine(code, top)
        assert get_engine(muse_80_69(), top).name == top

    def test_auto_is_a_request_not_a_rung(self):
        """``auto`` names no engine of its own: it resolves to a rung
        of :data:`BACKENDS`."""
        assert "auto" not in BACKENDS
        assert all("auto" not in engines for engines in ENGINES.values())
        assert resolve_backend("auto") in BACKENDS

    @pytest.mark.parametrize("name", ["", "Native"])
    def test_unknown_name_refused_by_both_families(self, name):
        """A name outside :data:`BACKENDS` is refused with the list of
        backends, for MUSE and RS codes alike."""
        with pytest.raises(ValueError, match="scalar"):
            get_engine(muse_80_69(), name)
        with pytest.raises(ValueError, match="native"):
            get_rs_engine(rs_for_channel(8, 144), name)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: resolve_backend("auto"),
            lambda: get_engine(muse_80_69(), "auto"),
        ],
        ids=["resolve_backend", "get_engine"],
    )
    def test_every_rung_disabled_raises_naming_the_switch(
        self, monkeypatch, call
    ):
        monkeypatch.setenv(DISABLE_ENV, "scalar,numpy,native")
        with pytest.raises(BackendUnavailableError, match=DISABLE_ENV):
            call()


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


class TestKernelCache:
    """The compiled-kernel cache: keyed by the host CPU, and loaded
    from warm without running the compiler."""

    def test_key_carries_the_host_cpu(self, monkeypatch, tmp_path):
        """``-march=native`` builds for the host's ISA, so a cache
        shared between hosts must keep one library per CPU."""
        from repro.engine import cc

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(cc, "_host_cpu", lambda: "x86_64 flags : avx512dq")
        wide = cc._library_path()
        monkeypatch.setattr(cc, "_host_cpu", lambda: "x86_64 flags : avx2")
        narrow = cc._library_path()
        assert wide != narrow
        assert {os.path.dirname(wide), os.path.dirname(narrow)} == {
            str(tmp_path)
        }
        assert cc._library_path() == narrow

    @requires_native
    def test_warm_cache_loads_without_a_compiler(self, monkeypatch, tmp_path):
        """Start-up pays no compiler probe once the cache is filled."""
        from repro.engine import cc

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(cc, "_lib", None)
        assert cc.load_library() is not None
        assert os.path.exists(cc._library_path())

        def no_compiler(*args, **kwargs):
            raise OSError("no compiler on this host")

        monkeypatch.setattr(cc, "_lib", None)
        monkeypatch.setattr(subprocess, "run", no_compiler)
        assert cc.load_library() is not None


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
        # short 3-symbol stream also lands a silent-clean alias.
        code = muse_80_70()
        words = muse_corruption_chunk(code, Chunk(0, 600), derive_key(2022), 3)
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

    @pytest.mark.parametrize("k_symbols", [1, 2, 3, 5])
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
        """k outside 1..5 (or past the symbol count) and the unfused
        scenarios are not replayable -> the caller must fall back."""
        engine = get_engine(muse_80_69(), "native")
        chunk, key = Chunk(0, 10), derive_key(1)
        for scenario in FUSED_SCENARIOS:
            for k_symbols in (0, 6):
                assert (
                    engine.fused_scenario_counts(scenario, chunk, key, k_symbols)
                    is None
                ), (scenario, k_symbols)
        assert engine.fused_chunk_counts(chunk, key, 6) is None
        toy = get_engine(toy_16_7(), "native")
        assert toy.fused_chunk_counts(chunk, key, 4) is not None
        assert toy.fused_chunk_counts(chunk, key, 5) is None
        for name in ("stuck", "rowfail", "scrub", "wear"):
            for k_symbols in (1, 2, 5):
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


class _KernelSpy:
    """Stands in for a native engine's kernel library, recording each
    kernel's pointer arguments before running it."""

    def __init__(self, lib):
        self.lib = lib
        self.pointers: set[int] = set()

    def __getattr__(self, name):
        kernel = getattr(self.lib, name)

        def call(*args):
            self.pointers.update(
                arg.value for arg in args if isinstance(arg, ctypes.c_void_p)
            )
            return kernel(*args)

        return call


@requires_native
class TestSharedTables:
    """One numpy-free table build per code: the native engine passes its
    buffers to the kernels, and the numpy engine reads the same memory
    through read-only views."""

    @staticmethod
    def count_builds(monkeypatch, cls) -> list:
        builds = []
        build = cls.__init__

        def counted(self, *args):
            builds.append(args)
            build(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
        return builds

    @staticmethod
    def assert_views_of_kernel_buffers(views, spy):
        for view in views:
            assert not view.flags.writeable
            assert view.ctypes.data in spy.pointers

    def test_muse(self, monkeypatch):
        from repro.core.codec import MuseCode
        from repro.core.symbols import SymbolLayout
        from repro.engine.tables import MuseTables

        builds = self.count_builds(monkeypatch, MuseTables)
        code = MuseCode(SymbolLayout.sequential(144, 4), 4065)
        native = get_engine(code, "native")
        numpy_engine = get_engine(code, "numpy")
        get_engine(code, "numpy", ripple_check=False)
        assert len(builds) == 1
        assert numpy_engine.tables is native.tables

        spy = _KernelSpy(native._lib)
        monkeypatch.setattr(native, "_lib", spy)
        key = derive_key(2022)
        words = muse_corruption_chunk(code, Chunk(0, 256), key, 2)
        assert (
            native.decode_batch(words).counts()
            == numpy_engine.decode_batch(words).counts()
        )
        assert native.fused_chunk_counts(Chunk(0, 256), key, 2) is not None
        nd = numpy_engine.tables.nd
        self.assert_views_of_kernel_buffers(
            (nd.entry, nd.addend, nd.claim_symbol, nd.k_mask, nd.low_mask,
             nd.above_mask, nd.outside),
            spy,
        )

    def test_rs(self, monkeypatch):
        from repro.engine.tables import RsTables
        from repro.orchestrate.corruption import rs_corruption_chunk

        builds = self.count_builds(monkeypatch, RsTables)
        code = rs_for_channel(7, 144)  # a partial symbol: the pad mask
        native = get_rs_engine(code, "native")
        numpy_engine = get_rs_engine(code, "numpy")
        assert len(builds) == 1
        assert numpy_engine.tables is native.tables

        spy = _KernelSpy(native._lib)
        monkeypatch.setattr(native, "_lib", spy)
        key = derive_key(2022)
        words = rs_corruption_chunk(code, Chunk(0, 256), key, 2)
        assert (
            native.decode_batch(words).counts()
            == numpy_engine.decode_batch(words).counts()
        )
        assert native.fused_chunk_counts(Chunk(0, 256), key, 2) is not None
        nd = numpy_engine.tables.nd
        self.assert_views_of_kernel_buffers(
            (nd.exp2, nd.log, nd.w2_log, nd.confined, nd.check_terms), spy
        )
