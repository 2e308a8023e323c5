"""Chunk-addressable Monte-Carlo corruption generation.

The single source of the corruption streams: the encode-then-corrupt
recipe with every random draw a counter hash of the **global trial
index** (:mod:`repro.orchestrate.rng`).  Trial ``t`` therefore
receives the same data word, the same ``k`` corrupted symbols and the
same replacement values whether it is generated inside a monolithic
run, a 65536-trial chunk, or a 1-trial sliver on another process —
which is what makes chunk tallies a pure, split-invariant fold.

Every generator is written once, over a :class:`CodeFamily`: the
:data:`MUSE` and :data:`RS` instances hide how each family stores
words (uint64 limb batches and big ints for MUSE, uint32 symbol
arrays and symbol lists for RS) behind a clean chunk, a clean word and
two symbol views, so :func:`corruption_chunk`, :func:`split_chunk`,
:func:`scenario_chunk` and :func:`scenario_word` never ask which
family they serve.

Per trial the draws are fixed-count and stream-separated:

* ``(DATA, column)`` — raw data limbs / symbols (the family's
  ``clean_chunk`` stops here, which is how tests recover the
  pre-corruption words);
* ``(CHOICE, symbol)`` — one uint64 score per symbol; the corrupted
  set is the ``k`` smallest scores (distinct by construction);
* ``(VALUE, slot)`` — the replacement draw for each corrupted slot,
  reduced mod ``2^w - 1`` and stepped over the original value, so the
  replacement is never the original.  (The mod introduces a bias of
  order ``2^(w-64)`` — vanishing for the <= 16-bit symbols here.)

Registered fault scenarios (:mod:`repro.scenarios`) corrupt the same
clean words through the same views, drawing from their own stream
keys.  The fused native kernels replay the msed draws — and the
``mbu`` scenario's — in C from the stream keys of
:func:`fused_stream`, which decides which streams they can replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import counter_draws, derive_key, trial_seed

#: Stream tags keeping the three per-trial draw families independent.
STREAM_DATA = 0
STREAM_CHOICE = 1
STREAM_VALUE = 2

#: The fused kernels' corruption modes (``MODE_*`` in
#: :mod:`repro.engine.cc`).
FUSED_MSED = 0
FUSED_MBU = 1


def _keys(key: int, stream: int, count: int) -> "np.ndarray":
    """Stream keys ``(stream, 0..count-1)`` under ``key`` as uint64."""
    return np.array(
        [derive_key(key, stream, index) for index in range(count)],
        dtype=np.uint64,
    )


def fused_stream(scenario: str, key: int, columns: int, symbols: int,
                 k_symbols: int):
    """What a fused kernel needs to replay the stream of the scenario
    named ``scenario``, or ``None`` when it cannot.

    Returns ``(mode, data_keys, choice_keys, value_keys, start_keys)``
    as uint64 arrays — one key per data column, per symbol and per
    corrupted slot.  The clean words always come from the base key's
    DATA stream; msed chooses and replaces from the base CHOICE/VALUE
    keys (``start_keys`` unused), mbu chooses and bursts from its
    :func:`~repro.scenarios.scenario_stream_key` (``S_CHOICE`` per
    symbol, ``S_LEN``/``S_START`` per slot).  ``None`` for every other
    scenario and for ``k_symbols`` outside 1..2, where the kernels'
    two-minimum scan no longer fixes the chosen set's order — callers
    then generate the chunk and batch-decode it.
    """
    if not 1 <= k_symbols <= min(2, symbols):
        return None
    if scenario == "msed":
        value = _keys(key, STREAM_VALUE, k_symbols)
        return (
            FUSED_MSED,
            _keys(key, STREAM_DATA, columns),
            _keys(key, STREAM_CHOICE, symbols),
            value,
            value,
        )
    if scenario == "mbu":
        from repro.scenarios import scenario_stream_key
        from repro.scenarios.library import S_CHOICE, S_LEN, S_START

        skey = scenario_stream_key(key, scenario)
        return (
            FUSED_MBU,
            _keys(key, STREAM_DATA, columns),
            _keys(skey, S_CHOICE, symbols),
            _keys(skey, S_LEN, k_symbols),
            _keys(skey, S_START, k_symbols),
        )
    return None


@dataclass
class BatchSymbolView:
    """A chunk of codewords seen as an editable symbol grid.

    ``trials`` is the uint64 *global* trial-counter array of the chunk
    (scenarios key their draws off it, which is what makes them
    split-invariant); ``read(rows, index)`` returns the current uint64
    values of symbol ``index`` for the given row indices and
    ``write(rows, index, values)`` stores them back.  Built by each
    :class:`CodeFamily`'s ``batch_view``, so one scenario
    implementation serves MUSE and RS.
    """

    trials: "object"
    widths: tuple[int, ...]
    read: Callable[[object, int], object]
    write: Callable[[object, int, object], None]


@dataclass
class WordSymbolView:
    """One codeword of global trial ``trial`` as an editable symbol row.

    The scalar twin of :class:`BatchSymbolView`: ``get(index)`` /
    ``put(index, value)`` operate on plain Python ints.
    """

    trial: int
    widths: tuple[int, ...]
    get: Callable[[int], int]
    put: Callable[[int, int], None]


@dataclass(frozen=True)
class CodeFamily:
    """How one code family stores words: all the generators ask of it.

    ``widths(code)`` gives the symbol widths; ``clean_chunk(code,
    chunk, key)`` and ``clean_word(code, trial, key)`` the encoded DATA
    stream as a batch (any engine's input) and as one word (the code's
    own decoder's); ``batch_view(code, words, trials)`` and
    ``word_view(code, holder, trial)`` edit a batch in place and the
    word in the one-item list ``holder``; ``signature(code)`` is what
    must match for two codes to tally identically.
    """

    name: str
    widths: Callable[[Any], tuple[int, ...]]
    clean_chunk: Callable[[Any, Chunk, int], "np.ndarray"]
    clean_word: Callable[[Any, int, int], Any]
    batch_view: Callable[..., BatchSymbolView]
    word_view: Callable[[Any, list, int], WordSymbolView]
    signature: Callable[[Any], tuple]


def _trial_counters(chunk: Chunk) -> "np.ndarray":
    return np.arange(chunk.start, chunk.stop, dtype=np.uint64)


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


def _muse_widths(code) -> tuple[int, ...]:
    return tuple(len(symbol) for symbol in code.layout.symbols)


def _muse_batch_view(code, words, trials=None) -> BatchSymbolView:
    from repro.engine.numpy_backend import (
        extract_symbol_batch,
        insert_symbol_batch,
    )

    layout = code.layout
    return BatchSymbolView(
        trials=trials,
        widths=_muse_widths(code),
        read=lambda rows, index: extract_symbol_batch(
            words[rows], layout, index
        ),
        write=lambda rows, index, values: insert_symbol_batch(
            words, layout, index, values, rows
        ),
    )


def _muse_word_view(code, holder: list, trial: int) -> WordSymbolView:
    layout = code.layout
    return WordSymbolView(
        trial=trial,
        widths=_muse_widths(code),
        get=lambda index: layout.extract_symbol(holder[0], index),
        put=lambda index, value: holder.__setitem__(
            0, layout.insert_symbol(holder[0], index, int(value))
        ),
    )


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


def rs_clean_word(code, trial: int, key: int) -> list[int]:
    """Trial ``trial`` of the RS data stream as one clean codeword."""
    data = [
        trial_seed(derive_key(key, STREAM_DATA, index), trial)
        & ((1 << code.symbol_widths[index]) - 1)
        for index in range(code.data_symbols)
    ]
    return list(code.encode(data))


def _rs_batch_view(code, words, trials=None) -> BatchSymbolView:
    return BatchSymbolView(
        trials=trials,
        widths=tuple(code.symbol_widths),
        read=lambda rows, index: words[rows, index].astype(np.uint64),
        write=lambda rows, index, values: words.__setitem__(
            (rows, index), values.astype(np.uint32)
        ),
    )


def _rs_word_view(code, holder: list, trial: int) -> WordSymbolView:
    return WordSymbolView(
        trial=trial,
        widths=tuple(code.symbol_widths),
        get=lambda index: holder[0][index],
        put=lambda index, value: holder[0].__setitem__(index, int(value)),
    )


#: MUSE residue codes: ``(batch, limbs)`` uint64 batches, big-int words.
MUSE = CodeFamily(
    name="MUSE",
    widths=_muse_widths,
    clean_chunk=muse_clean_chunk,
    clean_word=muse_clean_word,
    batch_view=_muse_batch_view,
    word_view=_muse_word_view,
    signature=lambda code: (code.n, code.m, code.layout.symbols),
)

#: Reed-Solomon codes: ``(batch, n_symbols)`` uint32 batches, symbol
#: lists.
RS = CodeFamily(
    name="RS",
    widths=lambda code: tuple(code.symbol_widths),
    clean_chunk=rs_clean_chunk,
    clean_word=rs_clean_word,
    batch_view=_rs_batch_view,
    word_view=_rs_word_view,
    signature=lambda code: (
        code.symbol_bits, code.data_symbols, code.partial_bits
    ),
)


def _check_k(k_symbols: int, low: int, symbol_count: int,
             message: str = "k_symbols must be") -> None:
    if not low <= k_symbols <= symbol_count:
        raise ValueError(
            f"{message} in [{low}, {symbol_count}], got {k_symbols}"
        )


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


def _msed_chunk(family: CodeFamily, code, chunk: Chunk, key: int,
                k_symbols: int, replaced: int):
    """Clean chunk words with the first ``replaced`` of their ``k``
    chosen symbols overwritten by fresh never-the-original values.

    Returns ``(words, chosen)``.
    """
    words = family.clean_chunk(code, chunk, key)
    view = family.batch_view(code, words, _trial_counters(chunk))
    chosen = _choose_symbols(key, view.trials, len(view.widths), k_symbols)
    for slot in range(replaced):
        draws = counter_draws(derive_key(key, STREAM_VALUE, slot), view.trials)
        slot_symbols = chosen[:, slot]
        for index, width in enumerate(view.widths):
            rows = np.flatnonzero(slot_symbols == index)
            if rows.size == 0:
                continue
            original = view.read(rows, index)
            # Uniform over the 2^w - 1 values != original: reduce into a
            # range one short and step over the original.
            draw = draws[rows] % np.uint64((1 << width) - 1)
            view.write(
                rows, index, draw + (draw >= original).astype(np.uint64)
            )
    return words, chosen


def corruption_chunk(family: CodeFamily, code, chunk: Chunk, key: int,
                     k_symbols: int = 2):
    """Generate chunk trials of ``family``'s MSED corruption stream.

    Returns the family's batch of corrupted codewords, consumable by
    any of its decode engines.  ``key`` is
    :func:`repro.orchestrate.rng.derive_key` of the run's master seed.
    """
    _check_k(k_symbols, 1, len(family.widths(code)))
    return _msed_chunk(family, code, chunk, key, k_symbols, k_symbols)[0]


def split_chunk(family: CodeFamily, code, chunk: Chunk, key: int,
                k_symbols: int = 2):
    """Generate chunk trials of the *prefix* corruption stream.

    The importance-splitting front half of :func:`corruption_chunk`:
    the same clean words, the same ``k`` chosen symbols, and the same
    replacement values for the first ``k - 1`` of them — but the last
    chosen symbol is left intact and its index returned instead, so the
    splitting estimator can branch over *every* value it could take.

    Returns ``(words, last_symbols)``: the prefix-corrupted batch and
    the per-trial held-out symbol index (int64).  Because the CHOICE
    and VALUE streams are shared with the full generator, the prefix
    distribution here is exactly the full stream's marginal over
    everything but the final draw.
    """
    _check_k(
        k_symbols, 2, len(family.widths(code)), "splitting needs k_symbols"
    )
    words, chosen = _msed_chunk(
        family, code, chunk, key, k_symbols, k_symbols - 1
    )
    return words, chosen[:, k_symbols - 1].astype(np.int64)


def scenario_chunk(family: CodeFamily, scenario, code, chunk: Chunk,
                   key: int, k_symbols: int = 2):
    """Generate chunk trials of ``scenario``'s corruption stream.

    The clean words stay on the base key's DATA stream — shared across
    scenarios — while every corruption draw comes from the scenario's
    own stream key, so two scenarios never share a corruption stream.
    The ``"msed"`` scenario is :func:`corruption_chunk` (the historical
    stream, fused-kernel compatible).
    """
    if scenario.corrupt_batch is None:
        return corruption_chunk(family, code, chunk, key, k_symbols)
    from repro.scenarios import scenario_stream_key

    _check_k(k_symbols, 1, len(family.widths(code)))
    words = family.clean_chunk(code, chunk, key)
    scenario.corrupt_batch(
        scenario_stream_key(key, scenario.name),
        family.batch_view(code, words, _trial_counters(chunk)),
        k_symbols,
    )
    return words


def scenario_word(family: CodeFamily, scenario, code, trial: int, key: int,
                  k_symbols: int = 2):
    """One corrupted word of ``scenario`` — the scalar reference.

    Byte-identical to row ``trial - chunk.start`` of any
    :func:`scenario_chunk` covering ``trial`` (pinned by the scenario
    test matrix), which is what lets the simulators'
    ``_scenario_sequential`` loop serve as the scenario oracle.
    """
    if scenario.corrupt_word is None:
        raise ValueError(
            f"scenario {scenario.name!r} has no scalar reference stream"
        )
    from repro.scenarios import scenario_stream_key

    _check_k(k_symbols, 1, len(family.widths(code)))
    holder = [family.clean_word(code, trial, key)]
    scenario.corrupt_word(
        scenario_stream_key(key, scenario.name),
        family.word_view(code, holder, trial),
        k_symbols,
    )
    return holder[0]


# Per-family spellings of the generators, for callers that name one
# family (tests, benches, and perfbench's tracing via monte_carlo).
muse_corruption_chunk = partial(corruption_chunk, MUSE)
rs_corruption_chunk = partial(corruption_chunk, RS)
muse_split_chunk = partial(split_chunk, MUSE)
muse_scenario_chunk = partial(scenario_chunk, MUSE)
rs_scenario_chunk = partial(scenario_chunk, RS)
muse_scenario_word = partial(scenario_word, MUSE)
rs_scenario_word = partial(scenario_word, RS)
