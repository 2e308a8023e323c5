"""The fault scenarios and their table, :data:`SCENARIOS`.

Every fault scenario here implements the same stream twice — a
vectorised ``corrupt_batch`` over a
:class:`~repro.scenarios.BatchSymbolView` and a pure-Python
``corrupt_word`` over a :class:`~repro.scenarios.WordSymbolView` —
with integer-only arithmetic, so the two paths agree bit for bit
(pinned by ``tests/scenarios``).  All draws come from the scenario
stream key via sub-streams tagged below.  The batch side chooses and
replaces symbols with the msed generators' own helpers
(:func:`~repro.orchestrate.corruption.choose_symbols`,
:func:`~repro.orchestrate.corruption.replace_symbols`); the scalar
side runs the same Floyd sampler in :func:`_chosen_sorted_word`.  Both
hand the chosen symbols to the slots in ascending index order, so slot
``j`` names the same symbol on both paths.

Scenarios (``repro-muse table4 --scenario NAME``):

========  ============================================================
msed      the paper's transient model: ``k`` symbols replaced by
          uniform never-the-original values (legacy stream)
mbu       correlated multi-bit upset: an adjacent-bit burst (2..4
          bits) XORed *inside* each of the ``k`` chosen symbols
stuck     permanent faults: two stuck-at cells (symbol, bit, forced
          level per trial) layered *under* the transient k-symbol
          replacement — the fault wins after the flips land
rowfail   row failure: one row index per trial; the bit sharing that
          row index flips in **every** symbol (``k`` ignored)
scrub     scrubbing interval: a geometric number of reads (p=1/4,
          capped at 8) accumulates that many distinct single-bit
          upsets between scrubs before the word is decoded
wear      wear profile: every cell's flip probability rises linearly
          with the trial-indexed write count; the most-worn cell of a
          trial fails outright when no cell fired
========  ============================================================

A delivered word can, in rare corners (e.g. a stuck cell forcing a
flipped bit back), equal the original codeword; tallies classify the
delivered word, so such reads count as CLEAN -> silent, exactly like
an aliased corruption.  The XOR-based scenarios (mbu/rowfail/scrub)
never return the original by construction.
"""

from __future__ import annotations

from repro._lazy import lazy_import
from repro.orchestrate.corruption import (
    STREAM_CHOICE,
    STREAM_VALUE,
    choose_symbols,
    replace_symbols,
)
from repro.orchestrate.rng import counter_draws, derive_key, trial_seed
from repro.scenarios import BatchSymbolView, Scenario, WordSymbolView

np = lazy_import(globals(), "np", "numpy")

#: Sub-stream tags under the scenario stream key.  Every scenario uses
#: its own key (hashed from its name), so tags may overlap *across*
#: scenarios but must be distinct within one.  The first two are the
#: msed stream's, which the shared batch helpers draw from.
S_CHOICE = STREAM_CHOICE  # Floyd's sampler: one draw per chosen symbol
S_VALUE = STREAM_VALUE    # replacement value draws, one per chosen slot
S_LEN = 3      # mbu: burst length draw per slot
S_START = 4    # mbu: burst start draw per slot
S_FSYM = 5     # stuck: fault's symbol index
S_FBIT = 6     # stuck: fault's bit index
S_FVAL = 7     # stuck: fault's forced level
S_ROW = 8      # rowfail: the failing row index
S_SCRUB = 9    # scrub: geometric interval continuation draws
S_POS = 10     # scrub: accumulated upset bit positions
S_WEAR = 11    # wear: per-cell flip draws

_MASK64 = (1 << 64) - 1

#: mbu: burst spans 2..4 adjacent bits (clipped to the symbol width).
MBU_MAX_BURST = 4
#: stuck: permanent faults per trial.
STUCK_FAULTS = 2
#: scrub: reads between scrubs is 1 + Geometric(p); draw < threshold
#: continues the interval.  p = 1/4 -> threshold 2^62.
SCRUB_CONTINUE_THRESHOLD = 1 << 62
SCRUB_MAX_READS = 8
#: wear: per-cell flip threshold BASE + RATE*min(t, TCAP) out of 2^64.
#: BASE = 2^-8 baseline; the rate doubles it every WEAR_HALF writes.
WEAR_BASE = 1 << 56
WEAR_HALF = 50_000
WEAR_RATE = WEAR_BASE // WEAR_HALF
WEAR_TRIAL_CAP = 10_000_000


def _draw(skey: int, tag: int, slot: int, trial: int) -> int:
    """One scalar draw of sub-stream ``(tag, slot)`` at ``trial``."""
    return trial_seed(derive_key(skey, tag, slot), trial)


def _draws(skey: int, tag: int, slot: int, trials) -> "np.ndarray":
    """The batch twin of :func:`_draw` over a counter array."""
    return counter_draws(derive_key(skey, tag, slot), trials)


def _chosen_sorted_word(
    skey: int, trial: int, symbol_count: int, k: int
) -> list[int]:
    """The ``k`` chosen symbols of ``trial``, ascending: the scalar
    twin of :func:`~repro.orchestrate.corruption.choose_symbols`.

    Floyd's sampler: step ``i`` maps its draw to ``t = floor(u (j + 1)
    / 2^64)`` with ``j = symbol_count - k + i`` and takes ``j`` if an
    earlier step took ``t``, else ``t``.
    """
    chosen: list[int] = []
    for step in range(k):
        top = symbol_count - k + step
        pick = (_draw(skey, S_CHOICE, step, trial) * (top + 1)) >> 64
        chosen.append(top if pick in chosen else pick)
    return sorted(chosen)


def _apply_mask_batch(view: BatchSymbolView, masks: "np.ndarray") -> None:
    """XOR per-symbol ``masks`` (rows x symbols, uint64) into the view."""
    for index in range(masks.shape[1]):
        rows = np.flatnonzero(masks[:, index])
        if rows.size:
            view.write(
                rows, index, view.read(rows, index) ^ masks[rows, index]
            )


# ----------------------------------------------------------------------
# mbu — correlated multi-bit upset
# ----------------------------------------------------------------------

def _mbu_mask(width: int, r_len: int, r_start: int) -> int:
    if width < 2:
        return 1
    longest = min(MBU_MAX_BURST, width)
    length = 2 + r_len % (longest - 1)
    start = r_start % (width - length + 1)
    return ((1 << length) - 1) << start


def mbu_word(skey: int, view: WordSymbolView, k_symbols: int) -> None:
    chosen = _chosen_sorted_word(skey, view.trial, len(view.widths), k_symbols)
    for slot, index in enumerate(chosen):
        mask = _mbu_mask(
            view.widths[index],
            _draw(skey, S_LEN, slot, view.trial),
            _draw(skey, S_START, slot, view.trial),
        )
        view.put(index, view.get(index) ^ mask)


def mbu_batch(skey: int, view: BatchSymbolView, k_symbols: int) -> None:
    trials = view.trials
    chosen = choose_symbols(skey, trials, len(view.widths), k_symbols)
    for slot in range(k_symbols):
        r_len = _draws(skey, S_LEN, slot, trials)
        r_start = _draws(skey, S_START, slot, trials)
        slot_symbols = chosen[:, slot]
        for index, width in enumerate(view.widths):
            rows = np.flatnonzero(slot_symbols == index)
            if rows.size == 0:
                continue
            if width < 2:
                masks = np.ones(rows.size, dtype=np.uint64)
            else:
                longest = min(MBU_MAX_BURST, width)
                length = np.uint64(2) + r_len[rows] % np.uint64(longest - 1)
                start = r_start[rows] % (
                    np.uint64(width) - length + np.uint64(1)
                )
                masks = ((np.uint64(1) << length) - np.uint64(1)) << start
            view.write(rows, index, view.read(rows, index) ^ masks)


# ----------------------------------------------------------------------
# stuck — permanent stuck-at faults under transient flips
# ----------------------------------------------------------------------

def _replace_word(skey: int, view: WordSymbolView, chosen: list[int]) -> None:
    """Uniform never-the-original replacement of the chosen symbols."""
    for slot, index in enumerate(chosen):
        width = view.widths[index]
        original = view.get(index)
        draw = _draw(skey, S_VALUE, slot, view.trial) % ((1 << width) - 1)
        view.put(index, draw + (1 if draw >= original else 0))


def stuck_word(skey: int, view: WordSymbolView, k_symbols: int) -> None:
    chosen = _chosen_sorted_word(skey, view.trial, len(view.widths), k_symbols)
    _replace_word(skey, view, chosen)
    symbol_count = len(view.widths)
    for fault in range(STUCK_FAULTS):
        index = _draw(skey, S_FSYM, fault, view.trial) % symbol_count
        bit = _draw(skey, S_FBIT, fault, view.trial) % view.widths[index]
        value = view.get(index)
        if _draw(skey, S_FVAL, fault, view.trial) & 1:
            value |= 1 << bit
        else:
            value &= ~(1 << bit)
        view.put(index, value)


def stuck_batch(skey: int, view: BatchSymbolView, k_symbols: int) -> None:
    trials = view.trials
    symbol_count = len(view.widths)
    replace_symbols(
        skey, view, choose_symbols(skey, trials, symbol_count, k_symbols)
    )
    for fault in range(STUCK_FAULTS):
        fault_symbols = _draws(skey, S_FSYM, fault, trials) % np.uint64(
            symbol_count
        )
        fault_bits = _draws(skey, S_FBIT, fault, trials)
        stuck_high = (_draws(skey, S_FVAL, fault, trials) & np.uint64(1)).astype(
            bool
        )
        for index, width in enumerate(view.widths):
            rows = np.flatnonzero(fault_symbols == index)
            if rows.size == 0:
                continue
            bitmask = np.uint64(1) << (fault_bits[rows] % np.uint64(width))
            value = view.read(rows, index)
            view.write(
                rows,
                index,
                np.where(stuck_high[rows], value | bitmask, value & ~bitmask),
            )


# ----------------------------------------------------------------------
# rowfail — one row index fails across every symbol
# ----------------------------------------------------------------------

def rowfail_word(skey: int, view: WordSymbolView, k_symbols: int) -> None:
    row = _draw(skey, S_ROW, 0, view.trial) % max(view.widths)
    for index, width in enumerate(view.widths):
        view.put(index, view.get(index) ^ (1 << (row % width)))


def rowfail_batch(skey: int, view: BatchSymbolView, k_symbols: int) -> None:
    trials = view.trials
    rows_all = np.arange(trials.size, dtype=np.int64)
    row = _draws(skey, S_ROW, 0, trials) % np.uint64(max(view.widths))
    for index, width in enumerate(view.widths):
        masks = np.uint64(1) << (row % np.uint64(width))
        view.write(rows_all, index, view.read(rows_all, index) ^ masks)


# ----------------------------------------------------------------------
# scrub — error accumulation between scrubs
# ----------------------------------------------------------------------

def _symbol_offsets(widths: tuple[int, ...]) -> list[int]:
    offsets = [0]
    for width in widths:
        offsets.append(offsets[-1] + width)
    return offsets


def scrub_word(skey: int, view: WordSymbolView, k_symbols: int) -> None:
    upsets = 1
    for reads in range(SCRUB_MAX_READS - 1):
        if _draw(skey, S_SCRUB, reads, view.trial) < SCRUB_CONTINUE_THRESHOLD:
            break
        upsets += 1
    offsets = _symbol_offsets(view.widths)
    total_bits = offsets[-1]
    chosen: list[int] = []
    for slot in range(upsets):
        candidate = _draw(skey, S_POS, slot, view.trial) % (total_bits - slot)
        for taken in sorted(chosen):
            if candidate >= taken:
                candidate += 1
        chosen.append(candidate)
    for position in chosen:
        index = 0
        while offsets[index + 1] <= position:
            index += 1
        view.put(index, view.get(index) ^ (1 << (position - offsets[index])))


def scrub_batch(skey: int, view: BatchSymbolView, k_symbols: int) -> None:
    trials = view.trials
    size = trials.size
    upsets = np.ones(size, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    for reads in range(SCRUB_MAX_READS - 1):
        draws = _draws(skey, S_SCRUB, reads, trials)
        alive &= draws >= np.uint64(SCRUB_CONTINUE_THRESHOLD)
        upsets += alive.astype(np.int64)
    offsets = _symbol_offsets(view.widths)
    total_bits = offsets[-1]
    # Distinct bit positions via a vectorised Fisher-Yates: draw slot i
    # into a range shrunk by i, then step over each earlier pick.
    positions = np.zeros((size, SCRUB_MAX_READS), dtype=np.int64)
    for slot in range(SCRUB_MAX_READS):
        candidate = (
            _draws(skey, S_POS, slot, trials) % np.uint64(total_bits - slot)
        ).astype(np.int64)
        if slot:
            taken = np.sort(positions[:, :slot], axis=1)
            for earlier in range(slot):
                candidate += candidate >= taken[:, earlier]
        positions[:, slot] = candidate
    starts = np.asarray(offsets[:-1], dtype=np.int64)
    masks = np.zeros((size, len(view.widths)), dtype=np.uint64)
    for slot in range(SCRUB_MAX_READS):
        active = np.flatnonzero(upsets > slot)
        if active.size == 0:
            continue
        position = positions[active, slot]
        index = np.searchsorted(starts, position, side="right") - 1
        bit = (position - starts[index]).astype(np.uint64)
        np.bitwise_xor.at(masks, (active, index), np.uint64(1) << bit)
    _apply_mask_batch(view, masks)


# ----------------------------------------------------------------------
# wear — flip probability rising with the write count
# ----------------------------------------------------------------------

def wear_word(skey: int, view: WordSymbolView, k_symbols: int) -> None:
    threshold = WEAR_BASE + WEAR_RATE * min(view.trial, WEAR_TRIAL_CAP)
    best = _MASK64
    best_index = 0
    best_bit = 0
    cell = 0
    flipped = False
    for index, width in enumerate(view.widths):
        mask = 0
        for bit in range(width):
            draw = _draw(skey, S_WEAR, cell, view.trial)
            if draw < threshold:
                mask ^= 1 << bit
            if draw < best:
                best = draw
                best_index = index
                best_bit = bit
            cell += 1
        if mask:
            flipped = True
            view.put(index, view.get(index) ^ mask)
    if not flipped:
        # The dominant weak cell fails outright: every trial delivers a
        # disturbed word, so early (low-wear) trials still measure the
        # decoder rather than the no-op read.
        view.put(best_index, view.get(best_index) ^ (1 << best_bit))


def wear_batch(skey: int, view: BatchSymbolView, k_symbols: int) -> None:
    trials = view.trials
    size = trials.size
    threshold = np.uint64(WEAR_BASE) + np.uint64(WEAR_RATE) * np.minimum(
        trials, np.uint64(WEAR_TRIAL_CAP)
    )
    masks = np.zeros((size, len(view.widths)), dtype=np.uint64)
    best = np.full(size, _MASK64, dtype=np.uint64)
    best_index = np.zeros(size, dtype=np.int64)
    best_bit = np.zeros(size, dtype=np.uint64)
    cell = 0
    for index, width in enumerate(view.widths):
        for bit in range(width):
            draws = _draws(skey, S_WEAR, cell, trials)
            masks[:, index] ^= np.where(
                draws < threshold, np.uint64(1 << bit), np.uint64(0)
            )
            better = draws < best
            best[better] = draws[better]
            best_index[better] = index
            best_bit[better] = np.uint64(bit)
            cell += 1
    calm = np.flatnonzero(~masks.any(axis=1))
    if calm.size:
        masks[calm, best_index[calm]] = np.uint64(1) << best_bit[calm]
    _apply_mask_batch(view, masks)


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

#: Every scenario by name, ``msed`` first (it leads the CLI choices).
SCENARIOS = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "msed",
            "transient k-symbol replacement, the paper's Table IV model "
            "(legacy stream)",
        ),
        Scenario(
            "mbu",
            "correlated multi-bit upset: 2-4 adjacent bits per chosen symbol",
            mbu_batch,
            mbu_word,
        ),
        Scenario(
            "stuck",
            "two per-trial stuck-at cells layered under transient flips",
            stuck_batch,
            stuck_word,
        ),
        Scenario(
            "rowfail",
            "row failure: the same row index flips in every symbol",
            rowfail_batch,
            rowfail_word,
        ),
        Scenario(
            "scrub",
            "geometric read count between scrubs accumulates distinct upsets",
            scrub_batch,
            scrub_word,
        ),
        Scenario(
            "wear",
            "per-cell flip probability rising with the trial-indexed writes",
            wear_batch,
            wear_word,
        ),
    )
}
