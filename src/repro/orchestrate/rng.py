"""Counter-based randomness for chunked Monte-Carlo runs.

The streaming orchestrator needs a property sequential generators
cannot give: trial ``t`` of a ``(trials, seed)`` run must draw the same
random values no matter how the run is chunked or which worker process
executes the chunk.  We get it from a splitmix64 *counter* scheme —
draw ``t`` of stream ``key`` is ``mix64(key + (t + 1) * GOLDEN)``, a
pure function of ``(key, t)`` with no carried state.  Chunk boundaries
then fall wherever they like: a chunk covering trials ``[a, b)`` just
evaluates the hash at counters ``a..b-1``.

Two synchronised implementations:

* :func:`trial_seed` / :func:`derive_key` — pure-Python 64-bit ints,
  used for stream keys and by the scalar scenario reference streams
  (:mod:`repro.scenarios`);
* :func:`counter_draws` — the same hash over a uint64 counter ndarray,
  feeding the vectorised corruption generators.

``counter_draws(key, arange(a, b)) == [trial_seed(key, t) for t in
range(a, b)]`` — pinned by the orchestrator tests, and the reason the
scalar and vectorised chunkings agree about which trial is which.
"""

from __future__ import annotations

from repro._lazy import lazy_import

np = lazy_import(globals(), "np", "numpy")

_MASK64 = (1 << 64) - 1

#: splitmix64 constants (Steele, Lea & Flood; public domain).
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """The splitmix64 output function over one 64-bit integer."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    return x ^ (x >> 31)


def derive_key(seed: int, *path: int) -> int:
    """Derive a 64-bit stream key from a master seed and a path.

    Distinct paths (e.g. ``(DATA, limb)`` vs ``(CHOICE, step)``) give
    statistically independent streams of :func:`trial_seed` /
    :func:`counter_draws` values under the same master seed.
    """
    key = mix64((seed & _MASK64) + GOLDEN)
    for part in path:
        key = mix64(key ^ mix64((part & _MASK64) + GOLDEN))
    return key


def trial_seed(key: int, trial: int) -> int:
    """Draw ``trial`` of stream ``key`` as a plain 64-bit integer."""
    return mix64((key + ((trial + 1) * GOLDEN)) & _MASK64)


def counter_draws(key: int, trials: "np.ndarray") -> "np.ndarray":
    """Vectorised :func:`trial_seed`: one uint64 draw per counter.

    ``trials`` is a counter array (typically ``arange(start, stop)``,
    any integer dtype — it is coerced to uint64); element ``i`` equals
    ``trial_seed(key, trials[i])``.
    """
    # A default-dtype arange is int64; mixing it with uint64 scalars
    # promotes to float64 and breaks the shift ufuncs.  asarray is a
    # no-copy view when the input is already uint64.
    trials = np.asarray(trials, dtype=np.uint64)
    x = np.uint64(key) + (trials + np.uint64(1)) * np.uint64(GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))
