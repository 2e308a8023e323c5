"""Self-compiled C kernels backing the ``native`` backend.

The top rung of the backend ladder: four kernels (MUSE decode, MUSE
fused chunk, RS PGZ decode, RS fused chunk) written once in portable
C99 over the numpy engines' table layouts, compiled at first use with
the system compiler (``cc -O3 -shared -fPIC``) into a content-addressed
cache under the temp directory, and loaded with ctypes.  uint64
arithmetic wraps natively in C, so the splitmix64 mixing and the limb
adds need no casting discipline — and the backend works on any host
with a C compiler, no package installs required.

The two fused chunk kernels replay more than one corruption stream: a
mode argument picks msed's never-the-original replacement or mbu's
adjacent-bit burst XOR (:mod:`repro.scenarios.library`), and
:func:`repro.orchestrate.corruption.fused_stream` supplies the matching
mode and stream keys.  Every other scenario stays generate-then-decode.

Availability is probed by actually compiling (cached across processes
by the content hash), so ``available_backends()`` never advertises a
backend that cannot run.  Any failure — no compiler, a read-only temp
dir — just reports unavailable; ``auto`` then falls back down the
ladder.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
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

static inline uint64_t mix64(uint64_t x) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* The k <= 2 chosen symbols of one trial: the two smallest of S iid
 * scores.  msed keeps argpartition's (argmin, 2nd-min) slot order;
 * registered scenarios sort the chosen symbols by index, as
 * _chosen_sorted_batch does. */
static inline void choose_slots(int32_t mode, int64_t k_symbols,
        const uint64_t *choice_keys, int64_t symbol_count,
        uint64_t counter, int64_t *chosen) {
    uint64_t best = mix64(choice_keys[0] + counter);
    uint64_t second = ~0ULL;
    int64_t best_index = 0, second_index = -1;
    for (int64_t s = 1; s < symbol_count; s++) {
        uint64_t score = mix64(choice_keys[s] + counter);
        if (score < best) {
            second = best; second_index = best_index;
            best = score; best_index = s;
        } else if (score < second) {
            second = score; second_index = s;
        }
    }
    if (second_index < 0) second_index = best_index == 0 ? 1 : 0;
    int swap = mode != MODE_MSED && k_symbols == 2
               && second_index < best_index;
    chosen[0] = swap ? second_index : best_index;
    chosen[1] = swap ? best_index : second_index;
}

/* The value one chosen slot leaves in a symbol of `width` bits holding
 * `original`: msed's uniform never-the-original replacement (one VALUE
 * draw), or mbu's 2..4 adjacent-bit burst XOR clipped to the width
 * (one S_LEN and one S_START draw). */
static inline uint64_t rewrite_symbol(int32_t mode, uint64_t original,
        int64_t width, uint64_t value_key, uint64_t start_key,
        uint64_t counter) {
    if (mode == MODE_MSED) {
        uint64_t draw = mix64(value_key + counter) % ((1ULL << width) - 1ULL);
        return draw + (draw >= original);
    }
    uint64_t mask = 1;
    if (width >= 2) {
        uint64_t longest = width < MBU_MAX_BURST ? width : MBU_MAX_BURST;
        uint64_t length = 2 + mix64(value_key + counter) % (longest - 1);
        uint64_t start = mix64(start_key + counter)
                         % ((uint64_t)width - length + 1);
        mask = ((1ULL << length) - 1ULL) << start;
    }
    return original ^ mask;
}

/* word % m via precomputed 32-bit chunk weights; m < 2^28 keeps the
 * accumulator below 2^64 (see repro/engine/limbs.py). */
static inline uint64_t residue_row(const uint64_t *word, int64_t limbs,
                                   const uint64_t *weights, uint64_t m) {
    uint64_t acc = 0;
    for (int64_t j = 0; j < limbs; j++) {
        acc += (word[j] & 0xFFFFFFFFULL) * weights[2 * j];
        acc += (word[j] >> 32) * weights[2 * j + 1];
    }
    return acc % m;
}

/* Figure-4 decode of one codeword; returns the status code and writes
 * the delivered word into fixed[] (== word[] unless accepted). */
static int muse_decode_row(const uint64_t *word, uint64_t *fixed,
        int64_t limbs, uint64_t m, const uint64_t *weights,
        const uint8_t *hit, const uint64_t *addend,
        const uint64_t *low_mask, const uint64_t *above_mask,
        const int64_t *bit_symbol, const uint64_t *outside,
        int ripple, uint64_t *rem_out) {
    uint64_t rem = residue_row(word, limbs, weights, m);
    *rem_out = rem;
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
        uint64_t m, const uint64_t *weights, const uint8_t *hit,
        const uint64_t *addend, const uint64_t *low_mask,
        const uint64_t *above_mask, const int64_t *bit_symbol,
        const uint64_t *outside, int32_t ripple) {
    for (int64_t i = 0; i < batch; i++)
        statuses[i] = muse_decode_row(words + i * limbs,
            corrected + i * limbs, limbs, m, weights, hit, addend,
            low_mask, above_mask, bit_symbol, outside, ripple, rems + i);
}

/* Fused corruption draw -> encode -> corrupt -> decode -> tally; the
 * compiled twin of repro/orchestrate/corruption.py's msed and mbu
 * streams for k <= 2. */
void muse_fused_chunk(int64_t start, int64_t size, int64_t k_symbols,
        int64_t limbs, int64_t r_shift, uint64_t m,
        const uint64_t *weights, const uint64_t *k_mask,
        const uint8_t *hit, const uint64_t *addend,
        const uint64_t *low_mask, const uint64_t *above_mask,
        const int64_t *bit_symbol, const uint64_t *outside,
        const int64_t *sym_bits, const int64_t *sym_widths,
        int64_t max_width, int64_t symbol_count, int32_t mode,
        const uint64_t *data_keys, const uint64_t *choice_keys,
        const uint64_t *value_keys, const uint64_t *start_keys,
        int32_t ripple, int64_t *counts) {
    uint64_t word[8], fixed[8];
    int64_t chosen[2];
    for (int64_t i = 0; i < size; i++) {
        uint64_t counter = ((uint64_t)(start + i) + 1) * GOLDEN;
        /* data draws masked to k bits, then systematic encode */
        for (int64_t j = 0; j < limbs; j++)
            word[j] = mix64(data_keys[j] + counter) & k_mask[j];
        uint64_t previous = 0;
        for (int64_t j = 0; j < limbs; j++) {
            uint64_t data_limb = word[j];
            word[j] = (data_limb << r_shift) | (previous >> (64 - r_shift));
            previous = data_limb;
        }
        uint64_t carry = (m - residue_row(word, limbs, weights, m)) % m;
        for (int64_t j = 0; j < limbs; j++) {
            uint64_t total = word[j] + carry;
            carry = total < carry;
            word[j] = total;
        }
        choose_slots(mode, k_symbols, choice_keys, symbol_count, counter,
                     chosen);
        for (int64_t slot = 0; slot < k_symbols; slot++) {
            int64_t symbol = chosen[slot];
            int64_t width = sym_widths[symbol];
            const int64_t *bits = sym_bits + symbol * max_width;
            uint64_t original = 0;
            for (int64_t b = 0; b < width; b++)
                original |= ((word[bits[b] >> 6] >> (bits[b] & 63)) & 1ULL) << b;
            uint64_t value = rewrite_symbol(mode, original, width,
                value_keys[slot], start_keys[slot], counter);
            for (int64_t b = 0; b < width; b++) {
                int64_t limb = bits[b] >> 6, offset = bits[b] & 63;
                word[limb] = (word[limb] & ~(1ULL << offset))
                             | (((value >> b) & 1ULL) << offset);
            }
        }
        uint64_t rem;
        counts[muse_decode_row(word, fixed, limbs, m, weights, hit,
            addend, low_mask, above_mask, bit_symbol, outside, ripple,
            &rem)] += 1;
    }
}

/* ---------------- Reed-Solomon (t = 1 PGZ) ---------------- */

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

static int rs_decode_row(const uint32_t *word, uint32_t *fixed,
        const uint32_t *exp2, const int64_t *logt, int64_t order,
        int64_t n_symbols, int64_t pad_mask, int64_t partial_position,
        const uint8_t *confined, int has_policy, int64_t conf_stride,
        int64_t *pos_out, int64_t *mag_out) {
    int64_t s1 = 0, s2 = 0;
    for (int64_t i = 0; i < n_symbols; i++) {
        int64_t value = word[i];
        fixed[i] = word[i];
        if (value) {
            int64_t lv = logt[value];
            s1 ^= exp2[lv + i];
            s2 ^= exp2[lv + ((2 * i) % order)];
        }
    }
    *pos_out = -1;
    *mag_out = 0;
    if (s1 == 0 && s2 == 0) return 0;
    if (s1 == 0 || s2 == 0) return 2;
    /* locator X = S2/S1 == alpha^position; C's % is signed, so fold
     * the (negative-capable) log difference back into [0, order) */
    int64_t position = (logt[s2] - logt[s1]) % order;
    if (position < 0) position += order;
    if (position >= n_symbols) return 2;
    int64_t magnitude = exp2[logt[s1] - position + order];
    int64_t corrected = (int64_t)word[position] ^ magnitude;
    if (pad_mask && position == partial_position && (corrected & pad_mask))
        return 2;
    fixed[position] = (uint32_t)corrected;
    *pos_out = position;
    *mag_out = magnitude;
    if (has_policy && !confined[position * conf_stride + magnitude])
        return 3;
    return 1;
}

void rs_decode_batch(const uint32_t *words, int64_t batch,
        uint32_t *corrected, uint8_t *statuses, int64_t *positions,
        uint32_t *magnitudes, const uint32_t *exp2, const int64_t *logt,
        int64_t order, int64_t n_symbols, int64_t pad_mask,
        int64_t partial_position, const uint8_t *confined,
        int32_t has_policy, int64_t conf_stride) {
    for (int64_t i = 0; i < batch; i++) {
        int64_t position, magnitude;
        statuses[i] = rs_decode_row(words + i * n_symbols,
            corrected + i * n_symbols, exp2, logt, order, n_symbols,
            pad_mask, partial_position, confined, has_policy,
            conf_stride, &position, &magnitude);
        positions[i] = position;
        magnitudes[i] = (uint32_t)magnitude;
    }
}

void rs_fused_chunk(int64_t start, int64_t size, int64_t k_symbols,
        const uint32_t *exp2, const int64_t *logt, int64_t order,
        int64_t n_symbols, int64_t data_symbols, const int64_t *widths,
        int64_t pad_mask, int64_t partial_position,
        const uint8_t *confined, int32_t has_policy, int64_t conf_stride,
        int64_t aq, int64_t aq2, int64_t ap, int64_t ap2, int64_t det,
        int32_t mode, const uint64_t *data_keys, const uint64_t *choice_keys,
        const uint64_t *value_keys, const uint64_t *start_keys,
        int64_t *counts) {
    uint32_t word[64], fixed[64];
    int64_t chosen[2];
    for (int64_t i = 0; i < size; i++) {
        uint64_t counter = ((uint64_t)(start + i) + 1) * GOLDEN;
        /* data draws + GF check-symbol solve (rs_clean_chunk) */
        int64_t s1 = 0, s2 = 0;
        for (int64_t j = 0; j < data_symbols; j++) {
            int64_t value = (int64_t)(mix64(data_keys[j] + counter)
                                      & ((1ULL << widths[j]) - 1ULL));
            word[j] = (uint32_t)value;
            if (value) {
                int64_t lv = logt[value];
                s1 ^= exp2[lv + j];
                s2 ^= exp2[lv + ((2 * j) % order)];
            }
        }
        word[data_symbols] = (uint32_t)gf_div(
            gf_mul(s1, aq2, exp2, logt) ^ gf_mul(s2, aq, exp2, logt),
            det, exp2, logt, order);
        word[data_symbols + 1] = (uint32_t)gf_div(
            gf_mul(s2, ap, exp2, logt) ^ gf_mul(s1, ap2, exp2, logt),
            det, exp2, logt, order);
        choose_slots(mode, k_symbols, choice_keys, n_symbols, counter,
                     chosen);
        for (int64_t slot = 0; slot < k_symbols; slot++) {
            int64_t symbol = chosen[slot];
            word[symbol] = (uint32_t)rewrite_symbol(mode, word[symbol],
                widths[symbol], value_keys[slot], start_keys[slot], counter);
        }
        int64_t position, magnitude;
        counts[rs_decode_row(word, fixed, exp2, logt, order, n_symbols,
            pad_mask, partial_position, confined, has_policy,
            conf_stride, &position, &magnitude)] += 1;
    }
}
"""

_COMPILER = os.environ.get("CC", "cc")
_lib: "ctypes.CDLL | None" = None
_load_failed = False


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    tag = getattr(os, "getuid", lambda: "any")()
    return os.path.join(tempfile.gettempdir(), f"repro-native-{tag}")


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
        i64, i64, i64, i64, i64, u64, p, p, p, p, p, p, p, p, p, p,
        i64, i64, i32, p, p, p, p, i32, p,
    ]
    lib.rs_decode_batch.restype = None
    lib.rs_decode_batch.argtypes = [
        p, i64, p, p, p, p, p, p, i64, i64, i64, i64, p, i32, i64,
    ]
    lib.rs_fused_chunk.restype = None
    lib.rs_fused_chunk.argtypes = [
        i64, i64, i64, p, p, i64, i64, i64, p, i64, i64, p, i32, i64,
        i64, i64, i64, i64, i64, i32, p, p, p, p, p,
    ]


def load_library() -> "ctypes.CDLL | None":
    """Compile (once, content-addressed) and load the kernel library.

    Returns ``None`` on any failure — the registry probe then reports
    the native backend unavailable instead of erroring.
    """
    global _lib, _load_failed
    if _lib is not None:
        return _lib
    if _load_failed:
        return None
    try:
        digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
        cache = _cache_dir()
        os.makedirs(cache, exist_ok=True)
        shared = os.path.join(cache, f"repro_kernels_{digest}.so")
        if not os.path.exists(shared):
            source = os.path.join(cache, f"repro_kernels_{digest}.c")
            with open(source, "w") as handle:
                handle.write(_SOURCE)
            building = f"{shared}.build{os.getpid()}"
            subprocess.run(
                [_COMPILER, "-O3", "-fPIC", "-shared", "-o", building, source],
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
