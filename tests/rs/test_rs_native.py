"""The native (self-compiled C) Reed-Solomon backend.

Skipped cleanly when no C compiler is present.  Every assertion pins
the C kernels against the numpy engine, which ``test_rs_engine`` pins
against the scalar reference — the chain keeps all three rungs
byte-identical.
"""

import numpy as np
import pytest

from repro.engine import available_backends
from repro.orchestrate.corruption import rs_corruption_chunk, rs_scenario_chunk
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.rs.engine import get_rs_engine
from repro.rs.reed_solomon import rs_for_channel
from repro.scenarios import resolve_scenario

# Gate on the registry (not the raw compiler probe) so the suite also
# skips when REPRO_DISABLE_BACKENDS hides the backend from `auto`.
pytestmark = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler, or disabled)",
)

#: All four Table-IV RS design points; b=7 and b=5 shorten mid-symbol.
TABLE_IV_B = (8, 7, 6, 5)
#: The streams the fused kernels replay.
FUSED_SCENARIOS = ("msed", "mbu")


def make_code(b):
    return rs_for_channel(b, 144)


class TestNativeRsParity:
    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("device_bits", [4, None], ids=["x4", "nopolicy"])
    def test_corrupted_stream_matches_numpy(self, b, device_bits):
        code = make_code(b)
        words = rs_corruption_chunk(code, Chunk(0, 800), derive_key(2022), 2)
        ref = get_rs_engine(code, "numpy", device_bits).decode_batch(words)
        nat = get_rs_engine(code, "native", device_bits).decode_batch(words)
        assert np.array_equal(ref.statuses, nat.statuses)
        assert ref.counts() == nat.counts()
        assert ref.results() == nat.results()

    def test_engine_cached_per_code_and_policy(self):
        code = make_code(8)
        assert get_rs_engine(code, "native") is get_rs_engine(code, "native")
        assert get_rs_engine(code, "native") is not get_rs_engine(
            code, "native", device_bits=None
        )


class TestNativeRsFusedChunk:
    """``fused_scenario_counts`` against numpy generate-then-decode of
    ``rs_scenario_chunk``, per replayable scenario."""

    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("k_symbols", [1, 2])
    @pytest.mark.parametrize("scenario", FUSED_SCENARIOS)
    def test_counts_match_generate_then_decode(self, scenario, b, k_symbols):
        code = make_code(b)
        stream = resolve_scenario(scenario)
        engine = get_rs_engine(code, "native")
        key = derive_key(17)
        for chunk in (Chunk(0, 400), Chunk(211, 250)):
            words = rs_scenario_chunk(stream, code, chunk, key, k_symbols)
            expect = get_rs_engine(code, "numpy").decode_batch(words).counts()
            assert (
                engine.fused_scenario_counts(scenario, chunk, key, k_symbols)
                == expect
            )

    @pytest.mark.parametrize("k_symbols", [1, 2])
    def test_msed_entry_is_the_msed_scenario(self, k_symbols):
        engine = get_rs_engine(make_code(6), "native")
        chunk, key = Chunk(9, 300), derive_key(3)
        assert engine.fused_chunk_counts(
            chunk, key, k_symbols
        ) == engine.fused_scenario_counts("msed", chunk, key, k_symbols)

    def test_declines_what_it_cannot_replay(self):
        engine = get_rs_engine(make_code(8), "native")
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

    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("k_symbols", [1, 2])
    @pytest.mark.parametrize("scenario", FUSED_SCENARIOS)
    def test_respects_device_policy(self, scenario, b, k_symbols):
        """Policy on/off changes the corrected/confinement split, and
        the fused tally must track the batch decode in both modes."""
        code = make_code(b)
        stream = resolve_scenario(scenario)
        key = derive_key(23)
        chunk = Chunk(40, 600)
        words = rs_scenario_chunk(stream, code, chunk, key, k_symbols)
        for device_bits in (4, None):
            engine = get_rs_engine(code, "native", device_bits)
            expect = (
                get_rs_engine(code, "numpy", device_bits)
                .decode_batch(words)
                .counts()
            )
            assert (
                engine.fused_scenario_counts(scenario, chunk, key, k_symbols)
                == expect
            )

    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("scenario", FUSED_SCENARIOS)
    def test_chunk_splits_compose(self, scenario, b):
        engine = get_rs_engine(make_code(b), "native")
        key = derive_key(29)

        def counts(chunk):
            return engine.fused_scenario_counts(scenario, chunk, key, 2)

        whole = counts(Chunk(0, 500))
        parts = [counts(Chunk(0, 123)), counts(Chunk(123, 177)),
                 counts(Chunk(300, 200))]
        assert tuple(sum(c) for c in zip(*parts)) == whole
