"""The native (self-compiled C) Reed-Solomon backend.

Skipped cleanly when no C compiler is present.  Every assertion pins
the C kernels against the numpy engine, which ``test_rs_engine`` pins
against the scalar reference — the chain keeps all three rungs
byte-identical.
"""

import numpy as np
import pytest

from repro.engine import available_backends
from repro.orchestrate.corruption import rs_corruption_chunk
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import derive_key
from repro.rs.engine import get_rs_engine, rs_msed_corruption_batch
from repro.rs.reed_solomon import rs_for_channel

# Gate on the registry (not the raw compiler probe) so the suite also
# skips when REPRO_DISABLE_BACKENDS hides the backend from `auto`.
pytestmark = pytest.mark.skipif(
    "native" not in available_backends(),
    reason="native backend unavailable (no C compiler, or disabled)",
)

#: All four Table-IV RS design points; b=7 and b=5 shorten mid-symbol.
TABLE_IV_B = (8, 7, 6, 5)


def make_code(b):
    return rs_for_channel(b, 144)


class TestNativeRsParity:
    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("device_bits", [4, None], ids=["x4", "nopolicy"])
    def test_corrupted_stream_matches_numpy(self, b, device_bits):
        code = make_code(b)
        words = rs_msed_corruption_batch(code, 800, seed=2022, k_symbols=2)
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
    @pytest.mark.parametrize("b", TABLE_IV_B)
    @pytest.mark.parametrize("k_symbols", [1, 2])
    def test_counts_match_generate_then_decode(self, b, k_symbols):
        code = make_code(b)
        engine = get_rs_engine(code, "native")
        key = derive_key(17)
        for chunk in (Chunk(0, 400), Chunk(211, 250)):
            words = rs_corruption_chunk(code, chunk, key, k_symbols)
            expect = get_rs_engine(code, "numpy").decode_batch(words).counts()
            assert engine.fused_chunk_counts(chunk, key, k_symbols) == expect

    def test_declines_outside_one_or_two_symbols(self):
        engine = get_rs_engine(make_code(8), "native")
        assert engine.fused_chunk_counts(Chunk(0, 10), derive_key(1), 3) is None
        assert engine.fused_chunk_counts(Chunk(0, 10), derive_key(1), 0) is None

    @pytest.mark.parametrize("b", TABLE_IV_B)
    def test_respects_device_policy(self, b):
        """Policy on/off changes the corrected/confinement split, and
        the fused tally must track the batch decode in both modes."""
        code = make_code(b)
        key = derive_key(23)
        chunk = Chunk(0, 600)
        words = rs_corruption_chunk(code, chunk, key, 2)
        for device_bits in (4, None):
            engine = get_rs_engine(code, "native", device_bits)
            expect = (
                get_rs_engine(code, "numpy", device_bits)
                .decode_batch(words)
                .counts()
            )
            assert engine.fused_chunk_counts(chunk, key, 2) == expect

    @pytest.mark.parametrize("b", TABLE_IV_B)
    def test_chunk_splits_compose(self, b):
        engine = get_rs_engine(make_code(b), "native")
        key = derive_key(29)
        whole = engine.fused_chunk_counts(Chunk(0, 500), key, 2)
        parts = [
            engine.fused_chunk_counts(Chunk(0, 123), key, 2),
            engine.fused_chunk_counts(Chunk(123, 177), key, 2),
            engine.fused_chunk_counts(Chunk(300, 200), key, 2),
        ]
        assert tuple(sum(c) for c in zip(*parts)) == whole
