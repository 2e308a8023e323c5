"""Chunk-plan and counter-RNG unit tests."""

import numpy as np
import pytest

from repro.orchestrate.plan import (
    Chunk,
    DEFAULT_CHUNK_SIZE,
    guided_batches,
    guided_share,
    plan_chunk_range,
    plan_chunks,
    resolve_chunk_size,
)
from repro.orchestrate.rng import derive_key, mix64, trial_seed


class TestGuidedBatches:
    def test_share_is_half_a_worker_slice_and_never_zero(self):
        assert guided_share(2450, 2) == 613  # ceil(2450 / 4)
        assert guided_share(3, 2) == 1
        assert guided_share(1, 8) == 1
        assert guided_share(0, 2) == 1
        assert guided_share(10, 0) == 5  # no workers counts as one

    @pytest.mark.parametrize(
        "count,workers", [(1, 2), (7, 1), (130, 2), (2450, 4)]
    )
    def test_batches_cover_items_in_order_shrinking_to_one(
        self, count, workers
    ):
        items = list(range(count))
        batches = guided_batches(items, workers)
        assert [item for batch in batches for item in batch] == items
        sizes = [len(batch) for batch in batches]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == guided_share(count, workers)
        assert sizes[-1] == 1

    def test_empty_input_has_no_batches(self):
        assert guided_batches([], 2) == []


class TestPlanChunks:
    def test_exact_split(self):
        chunks = plan_chunks(200, 50)
        assert chunks == (
            Chunk(0, 50), Chunk(50, 50), Chunk(100, 50), Chunk(150, 50),
        )

    def test_remainder_chunk(self):
        chunks = plan_chunks(130, 64)
        assert chunks == (Chunk(0, 64), Chunk(64, 64), Chunk(128, 2))

    def test_one_trial_remainder_edge(self):
        chunks = plan_chunks(193, 64)
        assert chunks[-1] == Chunk(192, 1)

    def test_covers_every_trial_exactly_once(self):
        for trials, size in ((1, 1), (7, 3), (100, 100), (101, 100), (65_537, None)):
            chunks = plan_chunks(trials, size)
            seen = [t for c in chunks for t in range(c.start, c.stop)]
            assert seen == list(range(trials))

    def test_full_run_single_chunk(self):
        assert plan_chunks(500, 500) == (Chunk(0, 500),)
        assert plan_chunks(500, 10_000) == (Chunk(0, 500),)

    def test_default_caps_at_default_chunk_size(self):
        chunks = plan_chunks(DEFAULT_CHUNK_SIZE + 1)
        assert chunks == (
            Chunk(0, DEFAULT_CHUNK_SIZE),
            Chunk(DEFAULT_CHUNK_SIZE, 1),
        )

    def test_zero_trials_plans_nothing(self):
        assert plan_chunks(0) == ()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_chunks(-1)
        with pytest.raises(ValueError):
            plan_chunks(10, 0)
        with pytest.raises(ValueError):
            resolve_chunk_size(10, -5)


class TestPlanChunkRange:
    def test_offset_range(self):
        assert plan_chunk_range(100, 230, 64) == (
            Chunk(100, 64), Chunk(164, 64), Chunk(228, 2),
        )

    def test_round_extension_tiles_the_stream(self):
        """Adaptive rounds [0,n0), [n0,n1), ... tile exactly the chunks
        a single fixed-trial plan would cover — no trial missed or
        doubled at round boundaries."""
        boundaries = [0, 150, 301, 603, 900]
        tiled = [
            t
            for lo, hi in zip(boundaries, boundaries[1:])
            for c in plan_chunk_range(lo, hi, 64)
            for t in range(c.start, c.stop)
        ]
        assert tiled == list(range(900))

    def test_empty_range_plans_nothing(self):
        assert plan_chunk_range(42, 42, 64) == ()

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            plan_chunk_range(-1, 10)
        with pytest.raises(ValueError):
            plan_chunk_range(10, 5)


class TestCounterRng:
    def test_mix64_is_deterministic_and_64bit(self):
        assert mix64(0) == mix64(0)
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= mix64(x) < 2**64

    def test_derive_key_separates_paths(self):
        base = derive_key(2022)
        assert derive_key(2022) == base
        keys = {derive_key(2022, s, i) for s in range(3) for i in range(8)}
        assert len(keys) == 24
        assert derive_key(2022, 0, 1) != derive_key(2022, 1, 0)

    def test_trial_seed_is_a_pure_counter_function(self):
        key = derive_key(7)
        assert trial_seed(key, 5) == trial_seed(key, 5)
        assert trial_seed(key, 5) != trial_seed(key, 6)
        assert trial_seed(key, 5) != trial_seed(derive_key(8), 5)

    def test_counter_draws_match_scalar_trial_seed(self):
        """The vectorised and scalar hashes are the same function, so
        the scalar fallback and the numpy generators agree about which
        trial is which."""
        from repro.orchestrate.rng import counter_draws

        key = derive_key(2022, 2, 1)
        for start, stop in ((0, 64), (1_000_000, 1_000_100)):
            draws = counter_draws(key, np.arange(start, stop, dtype=np.uint64))
            expected = [trial_seed(key, t) for t in range(start, stop)]
            assert draws.tolist() == expected

    def test_counter_draws_coerces_default_dtype_counters(self):
        """A plain arange (int64) must work, not TypeError in the
        shift ufuncs — the docstring recommends exactly that input."""
        from repro.orchestrate.rng import counter_draws

        key = derive_key(3)
        plain = counter_draws(key, np.arange(0, 16))
        typed = counter_draws(key, np.arange(0, 16, dtype=np.uint64))
        assert plain.tolist() == typed.tolist()

    def test_counter_draws_split_invariant(self):
        from repro.orchestrate.rng import counter_draws

        key = derive_key(11)
        whole = counter_draws(key, np.arange(0, 100, dtype=np.uint64))
        left = counter_draws(key, np.arange(0, 37, dtype=np.uint64))
        right = counter_draws(key, np.arange(37, 100, dtype=np.uint64))
        assert whole.tolist() == left.tolist() + right.tolist()
