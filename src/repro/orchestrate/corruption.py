"""Chunk-addressable Monte-Carlo corruption generation.

The single source of the MSED corruption streams: the encode-then-
corrupt recipe with every random draw a counter hash of the **global
trial index** (:mod:`repro.orchestrate.rng`).  Trial ``t`` therefore
receives the same data word, the same ``k`` corrupted symbols and the
same replacement values whether it is generated inside a monolithic
run, a 65536-trial chunk, or a 1-trial sliver on another process —
which is what makes chunk tallies a pure, split-invariant fold.  The
whole-run generators (:func:`repro.engine.msed_corruption_batch`,
:func:`repro.rs.engine.rs_msed_corruption_batch`) are thin wrappers
over the chunk forms here.

Per trial the draws are fixed-count and stream-separated:

* ``(DATA, column)`` — raw data limbs / symbols
  (:func:`muse_clean_chunk` / :func:`rs_clean_chunk` stop here, which
  is how tests recover the pre-corruption words);
* ``(CHOICE, symbol)`` — one uint64 score per symbol; the corrupted
  set is the ``k`` smallest scores (distinct by construction);
* ``(VALUE, slot)`` — the replacement draw for each corrupted slot,
  reduced mod ``2^w - 1`` and stepped over the original value, so the
  replacement is never the original.  (The mod introduces a bias of
  order ``2^(w-64)`` — vanishing for the <= 16-bit symbols here.)

The fused native kernels replay the same draws in C from the stream
keys of :func:`stream_keys`; the scalar ``*_word`` forms below
replay them one word at a time for the scenario reference streams.
"""

from __future__ import annotations

import numpy as np

from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import counter_draws, derive_key, trial_seed

#: Stream tags keeping the three per-trial draw families independent.
STREAM_DATA = 0
STREAM_CHOICE = 1
STREAM_VALUE = 2


def stream_keys(key: int, columns: int, symbols: int, k_symbols: int):
    """The ``(DATA, CHOICE, VALUE)`` stream keys of a run as uint64
    arrays — one per data column, per symbol and per corrupted slot —
    which is all a fused kernel needs to replay this module's stream."""

    def keys(stream: int, count: int) -> "np.ndarray":
        return np.array(
            [derive_key(key, stream, index) for index in range(count)],
            dtype=np.uint64,
        )

    return (
        keys(STREAM_DATA, columns),
        keys(STREAM_CHOICE, symbols),
        keys(STREAM_VALUE, k_symbols),
    )


def _trial_counters(chunk: Chunk) -> "np.ndarray":
    return np.arange(chunk.start, chunk.stop, dtype=np.uint64)


def _choose_symbols(
    key: int, trials: "np.ndarray", symbol_count: int, k_symbols: int
) -> "np.ndarray":
    """The ``k`` distinct corrupted symbols per trial: k smallest of
    ``symbol_count`` iid uint64 scores (per-row, so split-invariant)."""
    scores = np.empty((trials.size, symbol_count), dtype=np.uint64)
    for index in range(symbol_count):
        scores[:, index] = counter_draws(
            derive_key(key, STREAM_CHOICE, index), trials
        )
    return np.argpartition(scores, k_symbols - 1, axis=1)[:, :k_symbols]


def _replace_chosen_symbols(
    key: int,
    trials: "np.ndarray",
    chosen: "np.ndarray",
    widths,
    read,
    write,
) -> None:
    """Overwrite every chosen symbol with a fresh never-the-original
    value — the one replace loop both code families share.

    ``read(rows, index)`` returns the current symbol values as uint64;
    ``write(rows, index, values)`` stores uint64 values back (casting
    to the family's dtype as needed).
    """
    for slot in range(chosen.shape[1]):
        draws = counter_draws(derive_key(key, STREAM_VALUE, slot), trials)
        slot_symbols = chosen[:, slot]
        for index, width in enumerate(widths):
            rows = np.flatnonzero(slot_symbols == index)
            if rows.size == 0:
                continue
            original = read(rows, index)
            # Uniform over the 2^w - 1 values != original: reduce into a
            # range one short and step over the original.
            draw = draws[rows] % np.uint64((1 << width) - 1)
            write(rows, index, draw + (draw >= original).astype(np.uint64))


def muse_clean_chunk(code, chunk: Chunk, key: int):
    """Encode chunk trials of the MUSE data stream (no corruption).

    Returns the ``(chunk.size, limbs)`` uint64 clean-codeword batch the
    corruption stream starts from.
    """
    from repro.engine import get_engine
    from repro.engine.limbs import int_to_limb_row

    engine = get_engine(code, "numpy")
    trials = _trial_counters(chunk)
    data = np.empty((trials.size, engine.limbs), dtype=np.uint64)
    for limb in range(engine.limbs):
        data[:, limb] = counter_draws(derive_key(key, STREAM_DATA, limb), trials)
    data &= int_to_limb_row((1 << code.k) - 1, engine.limbs)
    return engine.encode_limbs(data)


def muse_corruption_chunk(code, chunk: Chunk, key: int, k_symbols: int = 2):
    """Generate chunk trials of the MUSE MSED corruption stream.

    Returns a ``(chunk.size, limbs)`` uint64 batch of corrupted
    codewords, consumable by any :class:`~repro.engine.base.DecodeEngine`.
    ``key`` is :func:`repro.orchestrate.rng.derive_key` of the run's
    master seed.
    """
    from repro.engine.numpy_backend import (
        extract_symbol_batch,
        insert_symbol_batch,
    )

    layout = code.layout
    if not 1 <= k_symbols <= layout.symbol_count:
        raise ValueError(
            f"k_symbols must be in [1, {layout.symbol_count}], got {k_symbols}"
        )
    trials = _trial_counters(chunk)
    words = muse_clean_chunk(code, chunk, key)

    def read(rows, index):
        return extract_symbol_batch(words[rows], layout, index)

    def write(rows, index, values):
        insert_symbol_batch(words, layout, index, values, rows)

    _replace_chosen_symbols(
        key,
        trials,
        _choose_symbols(key, trials, layout.symbol_count, k_symbols),
        [len(symbol) for symbol in layout.symbols],
        read,
        write,
    )
    return words


def muse_split_chunk(code, chunk: Chunk, key: int, k_symbols: int = 2):
    """Generate chunk trials of the MUSE *prefix* corruption stream.

    The importance-splitting front half of :func:`muse_corruption_chunk`:
    the same clean words, the same ``k`` chosen symbols, and the same
    replacement values for the first ``k - 1`` of them — but the last
    chosen symbol is left intact and its index returned instead, so the
    splitting estimator can branch over *every* value it could take.

    Returns ``(words, last_symbols)``: the ``(chunk.size, limbs)``
    uint64 prefix-corrupted batch and the per-trial held-out symbol
    index (int64).  Because the CHOICE and VALUE streams are shared
    with the full generator, the prefix distribution here is exactly
    the full stream's marginal over everything but the final draw.
    """
    from repro.engine.numpy_backend import (
        extract_symbol_batch,
        insert_symbol_batch,
    )

    layout = code.layout
    if not 2 <= k_symbols <= layout.symbol_count:
        raise ValueError(
            f"splitting needs k_symbols in [2, {layout.symbol_count}], "
            f"got {k_symbols}"
        )
    trials = _trial_counters(chunk)
    words = muse_clean_chunk(code, chunk, key)
    chosen = _choose_symbols(key, trials, layout.symbol_count, k_symbols)

    def read(rows, index):
        return extract_symbol_batch(words[rows], layout, index)

    def write(rows, index, values):
        insert_symbol_batch(words, layout, index, values, rows)

    _replace_chosen_symbols(
        key,
        trials,
        chosen[:, : k_symbols - 1],
        [len(symbol) for symbol in layout.symbols],
        read,
        write,
    )
    return words, chosen[:, k_symbols - 1].astype(np.int64)


def rs_split_chunk(code, chunk: Chunk, key: int, k_symbols: int = 2):
    """Generate chunk trials of the RS prefix corruption stream.

    The RS analogue of :func:`muse_split_chunk`: returns
    ``(words, last_symbols)`` with the first ``k - 1`` chosen symbols
    corrupted and the final chosen symbol's index held out per trial.
    """
    if not 2 <= k_symbols <= code.n_symbols:
        raise ValueError(
            f"splitting needs k_symbols in [2, {code.n_symbols}], "
            f"got {k_symbols}"
        )
    trials = _trial_counters(chunk)
    words = rs_clean_chunk(code, chunk, key)
    chosen = _choose_symbols(key, trials, code.n_symbols, k_symbols)

    def read(rows, index):
        return words[rows, index].astype(np.uint64)

    def write(rows, index, values):
        words[rows, index] = values.astype(np.uint32)

    _replace_chosen_symbols(
        key,
        trials,
        chosen[:, : k_symbols - 1],
        code.symbol_widths,
        read,
        write,
    )
    return words, chosen[:, k_symbols - 1].astype(np.int64)


def rs_clean_chunk(code, chunk: Chunk, key: int):
    """Encode chunk trials of the RS data stream (no corruption).

    Returns the ``(chunk.size, n_symbols)`` uint32 clean-codeword batch
    the corruption stream starts from.
    """
    from repro.rs.engine import get_rs_engine

    engine = get_rs_engine(code, "numpy")
    trials = _trial_counters(chunk)
    data = np.empty((trials.size, code.data_symbols), dtype=np.uint32)
    for index in range(code.data_symbols):
        width = code.symbol_widths[index]
        data[:, index] = (
            counter_draws(derive_key(key, STREAM_DATA, index), trials)
            & np.uint64((1 << width) - 1)
        ).astype(np.uint32)
    return engine.encode_arrays(data)


# ----------------------------------------------------------------------
# Scenario drivers (repro.scenarios)
# ----------------------------------------------------------------------
#
# A registered scenario supplies corrupt_batch/corrupt_word callables
# over symbol views; the drivers here bind those views to each code
# family's storage (limb batches for MUSE, symbol arrays for RS) and
# to the single-word scalar forms.  The clean words stay on the base
# key's DATA stream — shared across scenarios — while every corruption
# draw comes from the per-scenario stream key, so the scalar and batch
# paths of one scenario are byte-identical and two scenarios never
# share a corruption stream.


def _check_k(k_symbols: int, symbol_count: int) -> None:
    if not 1 <= k_symbols <= symbol_count:
        raise ValueError(
            f"k_symbols must be in [1, {symbol_count}], got {k_symbols}"
        )


def muse_clean_word(code, trial: int, key: int) -> int:
    """Trial ``trial`` of the MUSE data stream as one clean codeword.

    The scalar twin of :func:`muse_clean_chunk`: the same per-limb
    DATA draws, assembled into a big int and encoded through the code
    itself.
    """
    from repro.engine.limbs import limb_count

    data = 0
    for limb in range(limb_count(code.n)):
        data |= trial_seed(derive_key(key, STREAM_DATA, limb), trial) << (
            64 * limb
        )
    return code.encode(data & ((1 << code.k) - 1))


def rs_clean_word(code, trial: int, key: int) -> list[int]:
    """Trial ``trial`` of the RS data stream as one clean codeword."""
    data = [
        trial_seed(derive_key(key, STREAM_DATA, index), trial)
        & ((1 << code.symbol_widths[index]) - 1)
        for index in range(code.data_symbols)
    ]
    return list(code.encode(data))


def muse_scenario_chunk(scenario, code, chunk: Chunk, key: int,
                        k_symbols: int = 2):
    """Generate chunk trials of ``scenario``'s MUSE corruption stream.

    Returns the ``(chunk.size, limbs)`` uint64 corrupted batch; the
    legacy ``"msed"`` scenario delegates to
    :func:`muse_corruption_chunk` (identical stream, fused-kernel
    compatible).
    """
    if scenario.corrupt_batch is None:
        return muse_corruption_chunk(code, chunk, key, k_symbols)
    from repro.engine.numpy_backend import (
        extract_symbol_batch,
        insert_symbol_batch,
    )
    from repro.scenarios import BatchSymbolView, scenario_stream_key

    layout = code.layout
    _check_k(k_symbols, layout.symbol_count)
    words = muse_clean_chunk(code, chunk, key)
    view = BatchSymbolView(
        trials=_trial_counters(chunk),
        widths=tuple(len(symbol) for symbol in layout.symbols),
        read=lambda rows, index: extract_symbol_batch(
            words[rows], layout, index
        ),
        write=lambda rows, index, values: insert_symbol_batch(
            words, layout, index, values, rows
        ),
    )
    scenario.corrupt_batch(
        scenario_stream_key(key, scenario.name), view, k_symbols
    )
    return words


def rs_scenario_chunk(scenario, code, chunk: Chunk, key: int,
                      k_symbols: int = 2):
    """Generate chunk trials of ``scenario``'s RS corruption stream.

    Returns the ``(chunk.size, n_symbols)`` uint32 corrupted batch;
    ``"msed"`` delegates to :func:`rs_corruption_chunk`.
    """
    if scenario.corrupt_batch is None:
        return rs_corruption_chunk(code, chunk, key, k_symbols)
    from repro.scenarios import BatchSymbolView, scenario_stream_key

    _check_k(k_symbols, code.n_symbols)
    words = rs_clean_chunk(code, chunk, key)

    def write(rows, index, values):
        words[rows, index] = values.astype(np.uint32)

    view = BatchSymbolView(
        trials=_trial_counters(chunk),
        widths=tuple(code.symbol_widths),
        read=lambda rows, index: words[rows, index].astype(np.uint64),
        write=write,
    )
    scenario.corrupt_batch(
        scenario_stream_key(key, scenario.name), view, k_symbols
    )
    return words


def muse_scenario_word(scenario, code, trial: int, key: int,
                       k_symbols: int = 2) -> int:
    """One corrupted MUSE word of ``scenario`` — the scalar reference.

    Byte-identical to row ``trial - chunk.start`` of any
    :func:`muse_scenario_chunk` covering ``trial`` (pinned by the
    scenario test matrix), which is what lets the simulators'
    ``_scenario_sequential`` loops serve as the scenario oracle.
    """
    if scenario.corrupt_word is None:
        raise ValueError(
            f"scenario {scenario.name!r} has no scalar reference stream"
        )
    from repro.scenarios import WordSymbolView, scenario_stream_key

    layout = code.layout
    _check_k(k_symbols, layout.symbol_count)
    state = [muse_clean_word(code, trial, key)]
    view = WordSymbolView(
        trial=trial,
        widths=tuple(len(symbol) for symbol in layout.symbols),
        get=lambda index: layout.extract_symbol(state[0], index),
        put=lambda index, value: state.__setitem__(
            0, layout.insert_symbol(state[0], index, int(value))
        ),
    )
    scenario.corrupt_word(
        scenario_stream_key(key, scenario.name), view, k_symbols
    )
    return state[0]


def rs_scenario_word(scenario, code, trial: int, key: int,
                     k_symbols: int = 2) -> list[int]:
    """One corrupted RS word of ``scenario`` — the scalar reference."""
    if scenario.corrupt_word is None:
        raise ValueError(
            f"scenario {scenario.name!r} has no scalar reference stream"
        )
    from repro.scenarios import WordSymbolView, scenario_stream_key

    _check_k(k_symbols, code.n_symbols)
    word = rs_clean_word(code, trial, key)
    view = WordSymbolView(
        trial=trial,
        widths=tuple(code.symbol_widths),
        get=lambda index: word[index],
        put=lambda index, value: word.__setitem__(index, int(value)),
    )
    scenario.corrupt_word(
        scenario_stream_key(key, scenario.name), view, k_symbols
    )
    return word


def rs_corruption_chunk(code, chunk: Chunk, key: int, k_symbols: int = 2):
    """Generate chunk trials of the RS MSED corruption stream.

    Returns a ``(chunk.size, n_symbols)`` uint32 batch of corrupted
    codewords — the RS analogue of :func:`muse_corruption_chunk`, with
    the same split-invariance.
    """
    if not 1 <= k_symbols <= code.n_symbols:
        raise ValueError(
            f"k_symbols must be in [1, {code.n_symbols}], got {k_symbols}"
        )
    trials = _trial_counters(chunk)
    words = rs_clean_chunk(code, chunk, key)

    def read(rows, index):
        return words[rows, index].astype(np.uint64)

    def write(rows, index, values):
        words[rows, index] = values.astype(np.uint32)

    _replace_chosen_symbols(
        key,
        trials,
        _choose_symbols(key, trials, code.n_symbols, k_symbols),
        code.symbol_widths,
        read,
        write,
    )
    return words
