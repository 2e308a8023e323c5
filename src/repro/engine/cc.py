"""Self-compiled C kernels backing the ``native`` backend.

The top rung of the backend ladder: four kernels (MUSE decode, MUSE
fused chunk, RS PGZ decode, RS fused chunk) written once in C99 plus
GCC vector extensions over the numpy engines' table layouts, compiled
at first use with the system compiler (``$CC``, default ``cc``, with
``-O3 -march=native -fPIC -shared``) into a cache under the temp
directory addressed by the source, the compiler, its flags and the host
CPU, and loaded with ctypes.  uint64 arithmetic wraps natively in C, so
the splitmix64 mixing and the limb adds need no casting discipline —
and the backend works on any host with a C compiler, no package
installs required.

The two fused chunk kernels replay more than one corruption stream: a
mode argument picks msed's never-the-original replacement or mbu's
adjacent-bit burst XOR (:mod:`repro.scenarios.library`), and
:func:`repro.orchestrate.corruption.fused_stream` supplies the matching
mode and stream keys.  Every other scenario stays generate-then-decode.
Both share one choice scan, ``choose_block``: trials are independent,
so it scores ``LANES`` consecutive trials at once, one per 64-bit
vector lane, and keeps each lane's two smallest (value, index) pairs
with compares and selects.  ``LANES`` follows the ISA ``-march=native``
targets — 8 with AVX-512DQ, 4 with AVX2, else 1 — which is why the
host CPU is part of the cache key.  The same block step draws every
slot's replacement for the block (``draw_slots``), and the MUSE kernel
encodes the block's clean codewords in lanes (``encode_block``).  Both
kernels then decode the error pattern: a clean word's remainder and
syndromes are zero and both are linear, so the chosen symbols' changes
alone give the received word's.  MUSE classifies a trial from that
remainder and builds the received word only for an ELC hit under the
ripple check; RS never builds it, and shares its PGZ verdict
(``rs_verdict``) with the RS batch decode.

Availability is probed by actually compiling (cached across processes
by that key), so ``available_backends()`` never advertises a backend
that cannot run.  Any failure — no compiler, one that rejects
``-march=native``, a read-only temp dir — just reports unavailable;
``auto`` then falls back down the ladder.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile

_SOURCE = r"""
#include <stdint.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
/* Fused-kernel corruption modes (repro/orchestrate/corruption.py). */
#define MODE_MSED 0
#define MODE_MBU 1
/* repro/scenarios/library.py MBU_MAX_BURST */
#define MBU_MAX_BURST 4
/* Trials one choice scan covers: one per 64-bit lane of the target's
 * widest integer vectors with a native 64-bit multiply (AVX-512DQ's
 * vpmullq), or four AVX2 lanes; 1 elsewhere.  _FLAGS' -march=native
 * lets the host ISA pick it. */
#if defined(__AVX512DQ__)
#define LANES 8
#elif defined(__AVX2__)
#define LANES 4
#else
#define LANES 1
#endif

typedef uint64_t lanes_t __attribute__((vector_size(8 * LANES)));

static inline uint64_t mix64(uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* mix64 of every lane. */
static inline lanes_t mix64_lanes(lanes_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Per lane: `yes` where `mask` is all-ones, `no` where it is zero. */
static inline lanes_t select_lanes(lanes_t mask, lanes_t yes, lanes_t no) {
    return (yes & mask) | (no & ~mask);
}

/* The counter-hash inputs of the LANES consecutive trials from
 * `first_trial`, one trial per lane. */
static inline lanes_t block_counters(int64_t first_trial) {
    lanes_t counters;
    for (int64_t lane = 0; lane < LANES; lane++)
        counters[lane] = ((uint64_t)(first_trial + lane) + 1) * GOLDEN;
    return counters;
}

/* The k <= 2 chosen symbols of the LANES trials at `counters`, one
 * trial per lane: the two smallest of S iid scores in (value, index)
 * order.  Each lane starts from its first two real scores (symbol 0's
 * twice on a one-symbol code, whose k = 1 leaves slot 1 unused); a
 * later symbol has the higher index, so it displaces a kept score only
 * when strictly smaller, and ties go to the lower index.  msed keeps
 * argpartition's (argmin, 2nd-min) slot order; registered scenarios
 * sort the chosen symbols by index, as _chosen_sorted_batch does. */
static inline void choose_block(int32_t mode, int64_t k_symbols,
        const uint64_t *choice_keys, int64_t symbol_count,
        lanes_t counters, int64_t chosen[LANES][2]) {
    const lanes_t zero = {0};
    uint64_t second_symbol = symbol_count > 1;
    lanes_t first = mix64_lanes(counters + choice_keys[0]);
    lanes_t second = mix64_lanes(counters + choice_keys[second_symbol]);
    lanes_t swap = (lanes_t)(second < first);
    lanes_t kept = first;
    first = select_lanes(swap, second, first);
    second = select_lanes(swap, kept, second);
    lanes_t first_index = swap & second_symbol;
    lanes_t second_index = ~swap & second_symbol;
    for (int64_t s = 2; s < symbol_count; s++) {
        lanes_t score = mix64_lanes(counters + choice_keys[s]);
        lanes_t index = zero + (uint64_t)s;
        lanes_t below_first = (lanes_t)(score < first);
        lanes_t below_second = (lanes_t)(score < second);
        second = select_lanes(below_first, first,
                              select_lanes(below_second, score, second));
        second_index = select_lanes(below_first, first_index,
                select_lanes(below_second, index, second_index));
        first = select_lanes(below_first, score, first);
        first_index = select_lanes(below_first, index, first_index);
    }
    for (int64_t lane = 0; lane < LANES; lane++) {
        int64_t best = (int64_t)first_index[lane];
        int64_t next = (int64_t)second_index[lane];
        int swap_slots = mode != MODE_MSED && k_symbols == 2 && next < best;
        chosen[lane][0] = swap_slots ? next : best;
        chosen[lane][1] = swap_slots ? best : next;
    }
}

/* Each slot's VALUE draw (msed's replacement, mbu's S_LEN) and mbu's
 * S_START draw, for the LANES trials at `counters`.  msed has no start
 * draw (fused_stream repeats its value keys there), so it copies the
 * value draws rather than hash them twice. */
static inline void draw_slots(int32_t mode, int64_t k_symbols,
        const uint64_t *value_keys, const uint64_t *start_keys,
        lanes_t counters, lanes_t values[2], lanes_t starts[2]) {
    for (int64_t slot = 0; slot < k_symbols; slot++) {
        values[slot] = mix64_lanes(counters + value_keys[slot]);
        starts[slot] = mode == MODE_MBU
            ? mix64_lanes(counters + start_keys[slot]) : values[slot];
    }
}

/* The value one chosen slot leaves in a symbol of `width` bits holding
 * `original`: msed's uniform never-the-original replacement (its VALUE
 * draw), or mbu's 2..4 adjacent-bit burst XOR clipped to the width
 * (its S_LEN and S_START draws). */
static inline uint64_t rewrite_symbol(int32_t mode, uint64_t original,
        int64_t width, uint64_t value_draw, uint64_t start_draw) {
    if (mode == MODE_MSED) {
        uint64_t draw = value_draw % ((1ULL << width) - 1ULL);
        return draw + (draw >= original);
    }
    uint64_t mask = 1;
    if (width >= 2) {
        uint64_t longest = width < MBU_MAX_BURST ? width : MBU_MAX_BURST;
        uint64_t length = 2 + value_draw % (longest - 1);
        uint64_t start = start_draw % ((uint64_t)width - length + 1);
        mask = ((1ULL << length) - 1ULL) << start;
    }
    return original ^ mask;
}

/* word % m via the 32-bit chunk weights 2^(32 i) mod m, read from the
 * per-bit table pow2[p] = 2^p mod m; m < 2^28 keeps the accumulator
 * below 2^64 (see repro/engine/limbs.py). */
static inline uint64_t residue_row(const uint64_t *word, int64_t limbs,
                                   const uint64_t *pow2, uint64_t m) {
    uint64_t acc = 0;
    for (int64_t j = 0; j < limbs; j++) {
        acc += (word[j] & 0xFFFFFFFFULL) * pow2[64 * j];
        acc += (word[j] >> 32) * pow2[64 * j + 32];
    }
    return acc % m;
}

/* Figure-4 decode of one codeword of remainder `rem`; returns the
 * status code and writes the delivered word into fixed[] (== word[]
 * unless accepted). */
static int muse_decode_row(const uint64_t *word, uint64_t *fixed,
        int64_t limbs, uint64_t rem, const uint8_t *hit,
        const uint64_t *addend, const uint64_t *low_mask,
        const uint64_t *above_mask, const int64_t *bit_symbol,
        const uint64_t *outside, int ripple) {
    for (int64_t j = 0; j < limbs; j++) fixed[j] = word[j];
    if (rem == 0) return 0;
    if (!hit[rem]) return 2;
    const uint64_t *row = addend + (int64_t)rem * limbs;
    uint64_t carry = 0;
    for (int64_t j = 0; j < limbs; j++) {
        uint64_t a = word[j];
        uint64_t partial = a + row[j];
        uint64_t total = partial + carry;
        fixed[j] = total;
        carry = (partial < a) || (total < carry);
    }
    if (!ripple) {
        for (int64_t j = 0; j < limbs; j++) fixed[j] &= low_mask[j];
        return 1;
    }
    int out_of_range = 0;
    for (int64_t j = 0; j < limbs; j++)
        if (fixed[j] & above_mask[j]) out_of_range = 1;
    int64_t lowest = 0;
    for (int64_t j = 0; j < limbs; j++) {
        uint64_t changed = fixed[j] ^ word[j];
        if (changed) {
            lowest = 64 * j + __builtin_ctzll(changed);
            break;
        }
    }
    const uint64_t *outside_row = outside + bit_symbol[lowest] * limbs;
    int confined = 1;
    for (int64_t j = 0; j < limbs; j++)
        if ((fixed[j] ^ word[j]) & outside_row[j]) confined = 0;
    if (confined && !out_of_range) return 1;
    for (int64_t j = 0; j < limbs; j++) fixed[j] = word[j];
    return 3;
}

void muse_decode_batch(const uint64_t *words, int64_t batch, int64_t limbs,
        uint64_t *corrected, uint8_t *statuses, uint64_t *rems,
        uint64_t m, const uint64_t *pow2, const uint8_t *hit,
        const uint64_t *addend, const uint64_t *low_mask,
        const uint64_t *above_mask, const int64_t *bit_symbol,
        const uint64_t *outside, int32_t ripple) {
    for (int64_t i = 0; i < batch; i++) {
        const uint64_t *word = words + i * limbs;
        rems[i] = residue_row(word, limbs, pow2, m);
        statuses[i] = muse_decode_row(word, corrected + i * limbs, limbs,
            rems[i], hit, addend, low_mask, above_mask, bit_symbol,
            outside, ripple);
    }
}

/* The clean codewords of the LANES trials at `counters`, limb j of
 * lane l in clean[j][l]: the DATA limbs masked to k bits and shifted up
 * r bits, plus the check (m - word % m) % m.  The low r bits are clear
 * and the check is below m < 2^r, so an OR adds it without a carry. */
static inline void encode_block(lanes_t counters, int64_t limbs,
        int64_t r_shift, uint64_t m, const uint64_t *pow2,
        const uint64_t *k_mask, const uint64_t *data_keys,
        lanes_t clean[8]) {
    const lanes_t zero = {0};
    lanes_t previous = zero, acc = zero;
    for (int64_t j = 0; j < limbs; j++) {
        lanes_t data = mix64_lanes(counters + data_keys[j]) & k_mask[j];
        lanes_t word = (data << r_shift) | (previous >> (64 - r_shift));
        previous = data;
        acc += (word & 0xFFFFFFFFULL) * pow2[64 * j];
        acc += (word >> 32) * pow2[64 * j + 32];
        clean[j] = word;
    }
    lanes_t rem = acc % m;
    clean[0] |= (m - rem) & (lanes_t)(rem != zero);
}

/* A symbol's value in lane `lane` of a clean block: one shift and mask
 * when it is bits first..first+width-1 of one limb (`first` >= 0),
 * else bit by bit from its bit table. */
static inline uint64_t read_symbol(const lanes_t *clean, int64_t lane,
        int64_t first, const int64_t *bits, int64_t width) {
    if (first >= 0)
        return (clean[first >> 6][lane] >> (first & 63))
               & ((1ULL << width) - 1ULL);
    uint64_t value = 0;
    for (int64_t b = 0; b < width; b++)
        value |= ((clean[bits[b] >> 6][lane] >> (bits[b] & 63)) & 1ULL) << b;
    return value;
}

/* Store a symbol's value into one word, the inverse of read_symbol. */
static inline void write_symbol(uint64_t *word, uint64_t value,
        int64_t first, const int64_t *bits, int64_t width) {
    if (first >= 0) {
        uint64_t mask = ((1ULL << width) - 1ULL) << (first & 63);
        word[first >> 6] = (word[first >> 6] & ~mask)
                           | (value << (first & 63));
        return;
    }
    for (int64_t b = 0; b < width; b++) {
        int64_t limb = bits[b] >> 6, offset = bits[b] & 63;
        word[limb] = (word[limb] & ~(1ULL << offset))
                     | (((value >> b) & 1ULL) << offset);
    }
}

/* A non-negative value congruent mod m to the change a symbol going
 * from `original` to `received` makes to the word: (received -
 * original) * 2^first, or the same bit by bit over its bit table.
 * Since pow2[p] = 2^p mod m < 2^28 and a symbol read with one shift is
 * at most 32 bits wide, each term stays below 2^61. */
static inline uint64_t change_residue(uint64_t original, uint64_t received,
        uint64_t m, const uint64_t *pow2, int64_t first,
        const int64_t *bits, int64_t width) {
    if (first >= 0)
        return received * pow2[first] + original * (m - pow2[first]);
    uint64_t acc = 0;
    for (int64_t b = 0; b < width; b++)
        acc += ((received >> b) & 1ULL) * pow2[bits[b]]
               + ((original >> b) & 1ULL) * (m - pow2[bits[b]]);
    return acc;
}

/* Fused corruption draw -> decode -> tally; the compiled twin of
 * repro/orchestrate/corruption.py's msed and mbu streams for k <= 2.
 * Each LANES block encodes its clean words at once (encode_block).  A
 * clean word's remainder is zero and the remainder is linear, so a
 * trial's received remainder is that of its error pattern alone: the
 * chosen symbols' changes.  Zero is clean, a miss in the ELC no-match,
 * and a hit corrected -- unless the ripple check is on, when the
 * received word is built and decoded in full. */
void muse_fused_chunk(int64_t start, int64_t size, int64_t k_symbols,
        int64_t limbs, int64_t r_shift, uint64_t m,
        const uint64_t *pow2, const uint64_t *k_mask,
        const uint8_t *hit, const uint64_t *addend,
        const uint64_t *low_mask, const uint64_t *above_mask,
        const int64_t *bit_symbol, const uint64_t *outside,
        const int64_t *sym_bits, const int64_t *sym_widths,
        const int64_t *sym_first, int64_t max_width,
        int64_t symbol_count, int32_t mode,
        const uint64_t *data_keys, const uint64_t *choice_keys,
        const uint64_t *value_keys, const uint64_t *start_keys,
        int32_t ripple, int64_t *counts) {
    lanes_t clean[8], values[2], starts[2];
    int64_t block[LANES][2];
    for (int64_t i = 0; i < size; i++) {
        /* lanes past the chunk's end are drawn and dropped */
        int64_t lane = i % LANES;
        if (lane == 0) {
            lanes_t counters = block_counters(start + i);
            choose_block(mode, k_symbols, choice_keys, symbol_count,
                         counters, block);
            draw_slots(mode, k_symbols, value_keys, start_keys, counters,
                       values, starts);
            encode_block(counters, limbs, r_shift, m, pow2, k_mask,
                         data_keys, clean);
        }
        uint64_t received[2], acc = 0;
        for (int64_t slot = 0; slot < k_symbols; slot++) {
            int64_t symbol = block[lane][slot];
            int64_t width = sym_widths[symbol];
            int64_t first = sym_first[symbol];
            const int64_t *bits = sym_bits + symbol * max_width;
            uint64_t original = read_symbol(clean, lane, first, bits, width);
            received[slot] = rewrite_symbol(mode, original, width,
                values[slot][lane], starts[slot][lane]);
            acc += change_residue(original, received[slot], m, pow2, first,
                                  bits, width);
        }
        uint64_t rem = acc % m;
        int status = rem == 0 ? 0 : hit[rem] ? 1 : 2;
        if (status == 1 && ripple) {
            uint64_t word[8], fixed[8];
            for (int64_t j = 0; j < limbs; j++) word[j] = clean[j][lane];
            for (int64_t slot = 0; slot < k_symbols; slot++) {
                int64_t symbol = block[lane][slot];
                write_symbol(word, received[slot], sym_first[symbol],
                             sym_bits + symbol * max_width,
                             sym_widths[symbol]);
            }
            status = muse_decode_row(word, fixed, limbs, rem, hit, addend,
                low_mask, above_mask, bit_symbol, outside, ripple);
        }
        counts[status] += 1;
    }
}

/* ---------------- Reed-Solomon (t = 1 PGZ) ---------------- */

/* One RS code's decode tables (repro/rs/engine.py NumpyRsEngine). */
struct rs_tables {
    const uint32_t *exp2;     /* doubled antilog table */
    const int64_t *logt;
    const int64_t *w2_log;    /* log of alpha^(2i): 2i mod order */
    int64_t order, n_symbols, pad_mask, partial_position;
    const uint8_t *confined;  /* (position, magnitude) -> one x4 device */
    int has_policy;
    int64_t conf_stride;
};

static inline int64_t gf_mul(int64_t a, int64_t b,
        const uint32_t *exp2, const int64_t *logt) {
    if (a == 0 || b == 0) return 0;
    return exp2[logt[a] + logt[b]];
}

static inline int64_t gf_div(int64_t a, int64_t b,
        const uint32_t *exp2, const int64_t *logt, int64_t order) {
    if (a == 0) return 0;
    return exp2[logt[a] - logt[b] + order];
}

/* Add symbol `value` at `position` to the syndromes S1, S2. */
static inline void rs_syndrome_term(const struct rs_tables *rs,
        int64_t position, int64_t value, int64_t *s1, int64_t *s2) {
    if (value) {
        int64_t lv = rs->logt[value];
        *s1 ^= rs->exp2[lv + position];
        *s2 ^= rs->exp2[lv + rs->w2_log[position]];
    }
}

/* The t = 1 PGZ verdict from a word's syndromes: the status code, and
 * the position and magnitude of a correction (statuses 1 and 3; else
 * -1 and 0).  `partial_value` is the word's partial last data symbol,
 * whose correction must leave its virtual pad bits clear. */
static inline int rs_verdict(const struct rs_tables *rs, int64_t s1,
        int64_t s2, int64_t partial_value, int64_t *pos_out,
        int64_t *mag_out) {
    *pos_out = -1;
    *mag_out = 0;
    if (s1 == 0 && s2 == 0) return 0;
    if (s1 == 0 || s2 == 0) return 2;
    /* locator X = S2/S1 == alpha^position; both logs lie in
     * [0, order), so their difference lies in (-order, order) */
    int64_t position = rs->logt[s2] - rs->logt[s1];
    if (position < 0) position += rs->order;
    if (position >= rs->n_symbols) return 2;
    int64_t magnitude = rs->exp2[rs->logt[s1] - position + rs->order];
    if (rs->pad_mask && position == rs->partial_position
            && ((partial_value ^ magnitude) & rs->pad_mask))
        return 2;
    *pos_out = position;
    *mag_out = magnitude;
    if (rs->has_policy
            && !rs->confined[position * rs->conf_stride + magnitude])
        return 3;
    return 1;
}

static int rs_decode_row(const struct rs_tables *rs, const uint32_t *word,
        uint32_t *fixed, int64_t *pos_out, int64_t *mag_out) {
    int64_t s1 = 0, s2 = 0;
    for (int64_t i = 0; i < rs->n_symbols; i++) {
        fixed[i] = word[i];
        rs_syndrome_term(rs, i, word[i], &s1, &s2);
    }
    int status = rs_verdict(rs, s1, s2, word[rs->partial_position],
                            pos_out, mag_out);
    if (*pos_out >= 0) fixed[*pos_out] ^= (uint32_t)*mag_out;
    return status;
}

void rs_decode_batch(const uint32_t *words, int64_t batch,
        uint32_t *corrected, uint8_t *statuses, int64_t *positions,
        uint32_t *magnitudes, const uint32_t *exp2, const int64_t *logt,
        const int64_t *w2_log, int64_t order, int64_t n_symbols,
        int64_t pad_mask, int64_t partial_position,
        const uint8_t *confined, int32_t has_policy, int64_t conf_stride) {
    struct rs_tables rs = {exp2, logt, w2_log, order, n_symbols, pad_mask,
                           partial_position, confined, has_policy,
                           conf_stride};
    for (int64_t i = 0; i < batch; i++) {
        int64_t position, magnitude;
        statuses[i] = rs_decode_row(&rs, words + i * n_symbols,
            corrected + i * n_symbols, &position, &magnitude);
        positions[i] = position;
        magnitudes[i] = (uint32_t)magnitude;
    }
}

/* Data symbol j of the clean word of trial `counter` (rs_clean_chunk). */
static inline int64_t rs_data_symbol(const uint64_t *data_keys,
        const int64_t *widths, int64_t j, uint64_t counter) {
    return (int64_t)(mix64(data_keys[j] + counter)
                     & ((1ULL << widths[j]) - 1ULL));
}

/* Fused corruption draw -> decode -> tally; the compiled twin of
 * repro/orchestrate/corruption.py's msed and mbu RS streams for
 * k <= 2.  A clean word's syndromes are zero and syndromes are linear,
 * so the received word's are those of the error pattern alone: the
 * kernel adds one term per chosen symbol and never builds the word.
 * Only msed's never-the-original replacement needs a chosen symbol's
 * clean value -- one DATA draw for a data symbol, the check-symbol
 * solve for a check symbol; mbu's burst needs none. */
void rs_fused_chunk(int64_t start, int64_t size, int64_t k_symbols,
        const uint32_t *exp2, const int64_t *logt, const int64_t *w2_log,
        int64_t order, int64_t n_symbols, int64_t data_symbols,
        const int64_t *widths, int64_t pad_mask, int64_t partial_position,
        const uint8_t *confined, int32_t has_policy, int64_t conf_stride,
        int64_t aq, int64_t aq2, int64_t ap, int64_t ap2, int64_t det,
        int32_t mode, const uint64_t *data_keys, const uint64_t *choice_keys,
        const uint64_t *value_keys, const uint64_t *start_keys,
        int64_t *counts) {
    struct rs_tables rs = {exp2, logt, w2_log, order, n_symbols, pad_mask,
                           partial_position, confined, has_policy,
                           conf_stride};
    lanes_t values[2], starts[2];
    int64_t block[LANES][2];
    for (int64_t i = 0; i < size; i++) {
        /* lanes past the chunk's end are drawn and dropped */
        int64_t lane = i % LANES;
        if (lane == 0) {
            lanes_t counters = block_counters(start + i);
            choose_block(mode, k_symbols, choice_keys, n_symbols, counters,
                         block);
            draw_slots(mode, k_symbols, value_keys, start_keys, counters,
                       values, starts);
        }
        const int64_t *chosen = block[lane];
        uint64_t counter = ((uint64_t)(start + i) + 1) * GOLDEN;
        int64_t s1 = 0, s2 = 0;
        for (int64_t slot = 0; slot < k_symbols; slot++) {
            int64_t symbol = chosen[slot];
            /* msed steps over the clean value; mbu never reads it */
            int64_t original = 0;
            if (mode == MODE_MSED && symbol < data_symbols) {
                original = rs_data_symbol(data_keys, widths, symbol, counter);
            } else if (mode == MODE_MSED) {
                /* a check symbol: the clean word's solve (rs_clean_chunk) */
                int64_t d1 = 0, d2 = 0;
                for (int64_t j = 0; j < data_symbols; j++)
                    rs_syndrome_term(&rs, j, rs_data_symbol(data_keys, widths,
                        j, counter), &d1, &d2);
                original = symbol == data_symbols
                    ? gf_div(gf_mul(d1, aq2, exp2, logt)
                        ^ gf_mul(d2, aq, exp2, logt), det, exp2, logt, order)
                    : gf_div(gf_mul(d2, ap, exp2, logt)
                        ^ gf_mul(d1, ap2, exp2, logt), det, exp2, logt, order);
            }
            int64_t error = (int64_t)rewrite_symbol(mode, (uint64_t)original,
                widths[symbol], values[slot][lane], starts[slot][lane])
                ^ original;
            rs_syndrome_term(&rs, symbol, error, &s1, &s2);
        }
        /* the clean value and the error both fit the partial symbol's
         * width, so its pad bits are clear and the pad check sees the
         * magnitude alone */
        int64_t position, magnitude;
        counts[rs_verdict(&rs, s1, s2, 0, &position, &magnitude)] += 1;
    }
}
"""

_COMPILER = os.environ.get("CC", "cc")
_FLAGS = ("-O3", "-march=native", "-fPIC", "-shared")
_lib: "ctypes.CDLL | None" = None
_load_failed = False


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    tag = getattr(os, "getuid", lambda: "any")()
    return os.path.join(tempfile.gettempdir(), f"repro-native-{tag}")


def _host_cpu() -> str:
    """The host CPU's identity: its machine type and the kernel's list
    of its features (the first ``flags``/``Features`` line of
    ``/proc/cpuinfo``, where there is one).  Read from files, never by
    spawning a compiler, so a warm start stays compiler-free."""
    features = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    features = line.strip()
                    break
    except OSError:
        pass
    return f"{platform.machine()} {features}"


def _library_path() -> str:
    """Where the kernel library of this source, compiler, flags and host
    CPU lives in the cache.

    The compiler and its flags are part of the key, so a library built
    by another ``CC`` (say, a sanitizer wrapper) is never reused; the
    CPU is too, because ``-march=native`` builds for the host's ISA and
    a cache shared between hosts must never hand an AVX-512 library to
    a CPU without AVX-512.
    """
    recipe = "\0".join((_COMPILER, *_FLAGS, _host_cpu(), _SOURCE))
    digest = hashlib.sha256(recipe.encode()).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"repro_kernels_{digest}.so")


def _declare(lib: "ctypes.CDLL") -> None:
    """Fix the scalar argtypes so >2^63 uint64s cross the FFI intact."""
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    u64 = ctypes.c_uint64
    i32 = ctypes.c_int32
    lib.muse_decode_batch.restype = None
    lib.muse_decode_batch.argtypes = [
        p, i64, i64, p, p, p, u64, p, p, p, p, p, p, p, i32,
    ]
    lib.muse_fused_chunk.restype = None
    lib.muse_fused_chunk.argtypes = [
        i64, i64, i64, i64, i64, u64, p, p, p, p, p, p, p, p, p, p, p,
        i64, i64, i32, p, p, p, p, i32, p,
    ]
    lib.rs_decode_batch.restype = None
    lib.rs_decode_batch.argtypes = [
        p, i64, p, p, p, p, p, p, p, i64, i64, i64, i64, p, i32, i64,
    ]
    lib.rs_fused_chunk.restype = None
    lib.rs_fused_chunk.argtypes = [
        i64, i64, i64, p, p, p, i64, i64, i64, p, i64, i64, p, i32, i64,
        i64, i64, i64, i64, i64, i32, p, p, p, p, p,
    ]


def load_library() -> "ctypes.CDLL | None":
    """Compile (once per :func:`_library_path`: source, compiler, flags
    and host CPU) and load the kernel library.

    A warm cache loads without running the compiler.  Returns ``None``
    on any failure — no compiler, one that rejects ``-march=native``, a
    read-only cache — and the registry probe then reports the native
    backend unavailable instead of erroring.
    """
    global _lib, _load_failed
    if _lib is not None:
        return _lib
    if _load_failed:
        return None
    try:
        shared = _library_path()
        os.makedirs(os.path.dirname(shared), exist_ok=True)
        if not os.path.exists(shared):
            source = shared[: -len(".so")] + ".c"
            with open(source, "w") as handle:
                handle.write(_SOURCE)
            building = f"{shared}.build{os.getpid()}"
            subprocess.run(
                [_COMPILER, *_FLAGS, "-o", building, source],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(building, shared)  # atomic: racing procs both win
        lib = ctypes.CDLL(shared)
        _declare(lib)
        _lib = lib
    except Exception:
        _load_failed = True
        return None
    return _lib


def ptr(array) -> ctypes.c_void_p:
    """The address of an ndarray's buffer, as a kernel pointer argument."""
    return ctypes.c_void_p(array.ctypes.data)


def native_kernels_available() -> bool:
    """Probe for the registry: can the C kernels compile and load here?"""
    return load_library() is not None


__all__ = ["load_library", "native_kernels_available", "ptr"]
