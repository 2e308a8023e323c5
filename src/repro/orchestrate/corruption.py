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
two symbol views, so :func:`corruption_chunk`, :func:`scenario_chunk`
and :func:`scenario_word` never ask which family they serve.

Per trial the draws are fixed-count and stream-separated:

* ``(DATA, column)`` — raw data limbs / symbols (the family's
  ``clean_chunk`` stops here, which is how tests recover the
  pre-corruption words);
* ``(CHOICE, step)`` — one uint64 draw per corrupted symbol, which
  Floyd's sampler turns into ``k`` distinct symbols, handed to the
  slots in ascending symbol order (:func:`choose_symbols`);
* ``(VALUE, slot)`` — the replacement draw for each corrupted slot,
  reduced mod ``2^w - 1`` and stepped over the original value, so the
  replacement is never the original.  (The mod introduces a bias of
  order ``2^(w-64)`` — vanishing for the <= 16-bit symbols here.)

The fault scenarios (:mod:`repro.scenarios`) corrupt the same clean
words through the same views, drawing from their own stream keys; the
ones that choose or replace symbols call the msed stream's own
:func:`choose_symbols` and :func:`replace_symbols` under their key.
The fused native kernels replay the msed draws — and the ``mbu``
scenario's — in C from the stream keys of :func:`fused_stream`, which
decides which streams they can replay.

:data:`STREAM_VERSION` names this recipe.  Result-cache cells and
checkpoint journals carry it in their spec fingerprint
(:func:`repro.distribute.checkpoint.spec_fingerprint`), so a tally
drawn under an older recipe is never folded into a run of this one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable

from repro._lazy import lazy_import
from repro.orchestrate.plan import Chunk
from repro.orchestrate.rng import counter_draws, derive_key, trial_seed

np = lazy_import(globals(), "np", "numpy")

#: The version of the trial stream below: bump it with any change that
#: moves a tally at a fixed seed.  Version 1 chose the corrupted
#: symbols as the k smallest of one score per symbol; version 2 draws
#: them with Floyd's sampler and hands them to the slots in ascending
#: order.
STREAM_VERSION = 2

#: Stream tags keeping the three per-trial draw families independent.
STREAM_DATA = 0
STREAM_CHOICE = 1
STREAM_VALUE = 2

#: The fused kernels' corruption modes (``MODE_*`` in
#: :mod:`repro.engine.cc`).
FUSED_MSED = 0
FUSED_MBU = 1
#: The most symbols a fused kernel corrupts per trial (``MAX_SLOTS`` in
#: :mod:`repro.engine.cc`).
FUSED_MAX_SLOTS = 5


def _keys(key: int, stream: int, count: int) -> bytes:
    """Stream keys ``(stream, 0..count-1)`` under ``key`` as an
    immutable machine-order uint64 buffer."""
    return array(
        "Q", [derive_key(key, stream, index) for index in range(count)]
    ).tobytes()


@lru_cache(maxsize=32)
def fused_stream(scenario: str, key: int, columns: int, symbols: int,
                 k_symbols: int):
    """What a fused kernel needs to replay the stream of the scenario
    named ``scenario``, or ``None`` when it cannot.

    Returns ``(mode, data_keys, choice_keys, value_keys, start_keys)``:
    an int and four immutable ``bytes`` of machine-order uint64 keys —
    one key per data column, then three per corrupted slot (read them
    with ``array("Q", keys)``), passed to the kernels as they are.
    Every chunk of a point shares them, so they are derived once per
    point (memoised) rather than once per chunk.  The clean words
    always come from the base key's DATA stream; msed chooses and
    replaces from the base CHOICE/VALUE keys (``start_keys`` unused),
    mbu chooses and bursts from its
    :func:`~repro.scenarios.scenario_stream_key` (``STREAM_CHOICE``,
    ``S_LEN`` and ``S_START`` per slot).  ``None`` for every other
    scenario and for ``k_symbols`` outside 1..:data:`FUSED_MAX_SLOTS`
    (or past ``symbols``) — callers then generate the chunk and
    batch-decode it.
    """
    if not 1 <= k_symbols <= min(FUSED_MAX_SLOTS, symbols):
        return None
    if scenario == "msed":
        value = _keys(key, STREAM_VALUE, k_symbols)
        return (
            FUSED_MSED,
            _keys(key, STREAM_DATA, columns),
            _keys(key, STREAM_CHOICE, k_symbols),
            value,
            value,
        )
    if scenario == "mbu":
        from repro.scenarios import scenario_stream_key
        from repro.scenarios.library import S_LEN, S_START

        skey = scenario_stream_key(key, scenario)
        return (
            FUSED_MBU,
            _keys(key, STREAM_DATA, columns),
            _keys(skey, STREAM_CHOICE, k_symbols),
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
    batch_view: Callable[[Any, "np.ndarray", "np.ndarray"], BatchSymbolView]
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

    engine = get_engine(code, "numpy")
    trials = _trial_counters(chunk)
    data = np.empty((trials.size, engine.limbs), dtype=np.uint64)
    for limb in range(engine.limbs):
        data[:, limb] = counter_draws(derive_key(key, STREAM_DATA, limb), trials)
    data &= engine.tables.nd.k_mask
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


def _muse_batch_view(code, words, trials) -> BatchSymbolView:
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


def _rs_batch_view(code, words, trials) -> BatchSymbolView:
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


def _check_k(k_symbols: int, symbol_count: int) -> None:
    if not 1 <= k_symbols <= symbol_count:
        raise ValueError(
            f"k_symbols must be in [1, {symbol_count}], got {k_symbols}"
        )


def choose_symbols(
    key: int, trials: "np.ndarray", count: int, k: int
) -> "np.ndarray":
    """The ``k`` distinct chosen symbols of each trial, by Floyd's
    sampler: a ``(trials, k)`` int64 array, each row ascending, so
    column ``j`` is the symbol slot ``j`` corrupts.

    Step ``i``, with ``j = count - k + i``, draws ``u`` from
    ``(STREAM_CHOICE, i)`` under ``key`` and maps it to ``t =
    floor(u (j + 1) / 2^64)``, uniform over ``0..j`` up to a bias below
    ``count / 2^64``; it takes ``j`` if an earlier step took ``t``,
    else ``t``.  Every k-subset is then equally likely.  Row by row, so
    split-invariant.
    """
    chosen = np.empty((trials.size, k), dtype=np.int64)
    for step in range(k):
        top = count - k + step
        draws = counter_draws(derive_key(key, STREAM_CHOICE, step), trials)
        # floor(u (j + 1) / 2^64) in uint64: 32-bit halves of u times
        # j + 1 < 2^32 never overflow, and the dropped low bits of the
        # low half's product cannot carry into the result.
        bound = np.uint64(top + 1)
        pick = (
            (
                (draws >> np.uint64(32)) * bound
                + (((draws & np.uint64(0xFFFFFFFF)) * bound) >> np.uint64(32))
            )
            >> np.uint64(32)
        ).view(np.int64)
        # Every earlier pick is below j, so swapping in j never makes a
        # new match.
        for earlier in range(step):
            pick = np.where(chosen[:, earlier] == pick, top, pick)
        chosen[:, step] = pick
    chosen.sort(axis=1)
    return chosen


def replace_symbols(
    key: int, view: BatchSymbolView, chosen: "np.ndarray"
) -> None:
    """Give each trial's chosen symbols a uniform never-the-original
    value: column ``j`` of ``chosen`` draws from ``(STREAM_VALUE, j)``
    under ``key``."""
    for slot in range(chosen.shape[1]):
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


def corruption_chunk(family: CodeFamily, code, chunk: Chunk, key: int,
                     k_symbols: int = 2):
    """Generate chunk trials of ``family``'s MSED corruption stream.

    Returns the family's batch of corrupted codewords, consumable by
    any of its decode engines.  ``key`` is
    :func:`repro.orchestrate.rng.derive_key` of the run's master seed.
    """
    _check_k(k_symbols, len(family.widths(code)))
    words = family.clean_chunk(code, chunk, key)
    view = family.batch_view(code, words, _trial_counters(chunk))
    chosen = choose_symbols(key, view.trials, len(view.widths), k_symbols)
    replace_symbols(key, view, chosen)
    return words


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

    _check_k(k_symbols, len(family.widths(code)))
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

    _check_k(k_symbols, len(family.widths(code)))
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
muse_scenario_chunk = partial(scenario_chunk, MUSE)
rs_scenario_chunk = partial(scenario_chunk, RS)
muse_scenario_word = partial(scenario_word, MUSE)
rs_scenario_word = partial(scenario_word, RS)
