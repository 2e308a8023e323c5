"""The shared symbol-choice and replacement helpers of the corruption
streams.

``choose_symbols`` and ``replace_symbols`` serve the msed generator and
the ``mbu``/``stuck`` scenarios alike.  These tests pin them against
the scalar references the scenarios keep (``_chosen_sorted_word``,
``_replace_word``) and against the properties every caller relies on:
k distinct symbols per trial, split invariance, and a replacement that
changes exactly the chosen symbols.
"""

import numpy as np
import pytest

from repro.core.codes import muse_80_69
from repro.engine.limbs import limbs_to_ints
from repro.orchestrate.corruption import (
    MUSE,
    RS,
    choose_symbols,
    replace_symbols,
)
from repro.orchestrate.plan import Chunk
from repro.rs.reed_solomon import rs_144_128
from repro.scenarios.library import _chosen_sorted_word, _replace_word

KEY = 0x5EED_F00D
CHUNK = Chunk(start=11, size=64)
TRIALS = np.arange(CHUNK.start, CHUNK.stop, dtype=np.uint64)
SYMBOLS = 18
FAMILIES = {"MUSE": (MUSE, muse_80_69), "RS": (RS, rs_144_128)}


def _word(family, words, row):
    """Row ``row`` of a batch in the family's scalar word form."""
    if family is MUSE:
        return limbs_to_ints(words[row : row + 1])[0]
    return [int(symbol) for symbol in words[row]]


class TestChooseSymbols:
    @pytest.mark.parametrize("k", [1, 2, 3, SYMBOLS])
    def test_k_distinct_symbols_in_range(self, k):
        chosen = choose_symbols(KEY, TRIALS, SYMBOLS, k)
        assert chosen.shape == (TRIALS.size, k)
        assert chosen.min() >= 0 and chosen.max() < SYMBOLS
        assert all(len(set(row)) == k for row in chosen.tolist())

    def test_split_invariant(self):
        parts = np.concatenate(
            [
                choose_symbols(KEY, TRIALS[:20], SYMBOLS, 2),
                choose_symbols(KEY, TRIALS[20:], SYMBOLS, 2),
            ]
        )
        assert np.array_equal(choose_symbols(KEY, TRIALS, SYMBOLS, 2), parts)

    @pytest.mark.parametrize("k", [1, 2, 4, SYMBOLS])
    def test_sorted_choice_matches_scalar_reference(self, k):
        chosen = choose_symbols(KEY, TRIALS, SYMBOLS, k)
        for row, trial in enumerate(TRIALS.tolist()):
            assert chosen[row].tolist() == _chosen_sorted_word(
                KEY, trial, SYMBOLS, k
            )


@pytest.mark.parametrize("family_name", sorted(FAMILIES))
class TestReplaceSymbols:
    def _replaced(self, family_name, k):
        """A clean chunk, its k-symbol replacement and the choice."""
        family, make = FAMILIES[family_name]
        code = make()
        clean = family.clean_chunk(code, CHUNK, KEY)
        words = clean.copy()
        view = family.batch_view(code, words, TRIALS)
        chosen = choose_symbols(KEY, TRIALS, len(view.widths), k)
        replace_symbols(KEY, view, chosen)
        return family, code, clean, words, chosen

    def test_matches_scalar_reference(self, family_name):
        family, code, _, words, chosen = self._replaced(family_name, 2)
        for row, trial in enumerate(TRIALS.tolist()):
            holder = [family.clean_word(code, trial, KEY)]
            view = family.word_view(code, holder, trial)
            _replace_word(KEY, view, chosen[row].tolist())
            assert _word(family, words, row) == holder[0]

    def test_changes_exactly_the_chosen_symbols(self, family_name):
        family, code, clean, words, chosen = self._replaced(family_name, 3)
        rows = np.arange(TRIALS.size)
        before = family.batch_view(code, clean, TRIALS)
        after = family.batch_view(code, words, TRIALS)
        for index in range(len(after.widths)):
            hit = (chosen == index).any(axis=1)
            changed = after.read(rows, index) != before.read(rows, index)
            assert np.array_equal(changed, hit)
