"""Extension: the Section-IV double-device claim, reverse-engineered.

The paper states the 80-bit construction can "recover two consecutive
device-failures with one bit to spare" (64 data + 1 spare + 15 check
bits).  This experiment establishes, by construction:

1. **No unknown-location code exists.** The Algorithm-1 search over
   aligned or adjacent 8-bit windows at r = 15 (and even r = 16) finds
   no multiplier — a 15-bit residue cannot disambiguate ~5k-9k window
   error values *plus* their positions.
2. **The erasure reading works.** Once the failed devices are
   identified (which the SSC correction of the *first* failure
   provides), the same codeword recovers from any corruption of two
   adjacent devices via known-location decoding, for every 15-bit
   multiplier that separates the single-device (C4B) errors.

So the claim is reproduced under the (standard, commercial-ChipKill)
identify-then-erase operating model, and shown infeasible under the
stronger unknown-location reading.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.codec import DecodeStatus, MuseCode
from repro.core.erasure import ErasureDecoder
from repro.core.error_model import SymbolErrorModel
from repro.core.search import MultiplierSearch, is_valid_multiplier
from repro.core.symbols import SymbolLayout
from repro.orchestrate.plan import Chunk, plan_chunks
from repro.orchestrate.pool import run_sharded
from repro.orchestrate.rng import derive_key, trial_seed
from repro.orchestrate.worker import ChunkTask


def aligned_window_values(n: int = 80, window: int = 8) -> list[int]:
    """Unknown-location error values for aligned two-device windows."""
    values = set()
    for offset in range(0, n, window):
        for d in range(-(1 << window) + 1, 1 << window):
            if d:
                values.add(d << offset)
    return sorted(values)


def unknown_location_search(r: int) -> list[int]:
    """First multipliers separating aligned 8-bit windows at budget r."""
    values = aligned_window_values()
    found = []
    for m in range((1 << (r - 1)) + 1, 1 << r, 2):
        if is_valid_multiplier(m, values):
            found.append(m)
            if len(found) >= 3:
                break
    return found


@dataclass(frozen=True)
class DoubleDeviceResult:
    r15_unknown_location: list[int]
    r16_unknown_location: list[int]
    ssc_multiplier: int
    erasure_trials: int
    erasure_recovered: int


def ssc_code(m: int) -> MuseCode:
    """The 80-bit C4B SSC code for a known multiplier ``m``.

    Worker processes rebuild the code from the multiplier the parent
    already searched for, skipping the descending search entirely.
    """
    return MuseCode(SymbolLayout.sequential(80, 4), m, name="MUSE(80,65)")


def build_r15_ssc_code() -> MuseCode:
    """Largest 15-bit multiplier for the 80-bit C4B (SSC) model."""
    model = SymbolErrorModel(SymbolLayout.sequential(80, 4))
    result = MultiplierSearch(model, 15).run_descending(stop_after=1)
    if not result.found:
        raise AssertionError("no 15-bit SSC multiplier over 80 bits")
    return ssc_code(result.multipliers[-1])


@dataclass
class ErasureTally:
    """Mergeable fold term for the erasure Monte-Carlo."""

    trials: int = 0
    recovered: int = 0

    def merge(self, other: "ErasureTally") -> "ErasureTally":
        self.trials += other.trials
        self.recovered += other.recovered
        return self


@dataclass(frozen=True)
class ErasureChunkSpec:
    """Picklable recipe for one worker's erasure-chunk runner."""

    m: int
    backend: str = "auto"

    def build(self) -> "ErasureChunkRunner":
        return ErasureChunkRunner(ssc_code(self.m), self.backend)


class ErasureChunkRunner:
    """Runs chunks of the adjacent-pair corruption stream.

    Trial ``t`` is generated from a counter-seeded
    :class:`random.Random`, so chunk tallies fold split-invariantly —
    the same scheme the MSED simulators use, applied to known-location
    erasure decoding.  ``backend`` picks the engine that encodes the
    clean words; the erasure decode has one implementation,
    :meth:`ErasureDecoder.decode`, so the tally is the same on every
    backend.
    """

    def __init__(self, code: MuseCode, backend: str = "auto"):
        self.code = code
        self.backend = backend
        self.decoder = ErasureDecoder(code)

    def run_chunk(self, chunk: Chunk, key: int) -> ErasureTally:
        code = self.code
        symbol_count = code.layout.symbol_count
        datas, pairs, corrupted_values = [], [], []
        for trial in range(chunk.start, chunk.stop):
            rng = random.Random(trial_seed(key, trial))
            datas.append(rng.randrange(1 << code.k))
            first = rng.randrange(symbol_count - 1)
            pairs.append((first, first + 1))  # consecutive devices
            corrupted_values.append((rng.randrange(16), rng.randrange(16)))
        codewords = code.encode_batch(datas, backend=self.backend)
        corrupted = []
        for codeword, pair, pair_values in zip(codewords, pairs, corrupted_values):
            for symbol, value in zip(pair, pair_values):
                codeword = code.layout.insert_symbol(codeword, symbol, value)
            corrupted.append(codeword)
        results = self.decoder.decode_batch(corrupted, pairs)
        recovered = sum(
            1
            for data, result in zip(datas, results)
            if result.status is not DecodeStatus.DETECTED and result.data == data
        )
        return ErasureTally(trials=chunk.size, recovered=recovered)


def run(
    trials: int = 400,
    seed: int = 13,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
) -> DoubleDeviceResult:
    code = build_r15_ssc_code()
    spec = ErasureChunkSpec(m=code.m, backend=backend)
    key = derive_key(seed)
    # run_sharded executes in process for jobs <= 1 (same runner cache,
    # same fold), so one path covers both execution modes.
    tasks = [
        ChunkTask(0, spec, chunk, key) for chunk in plan_chunks(trials, chunk_size)
    ]
    tally = run_sharded(tasks, jobs).get(0, ErasureTally())
    return DoubleDeviceResult(
        r15_unknown_location=unknown_location_search(15),
        r16_unknown_location=unknown_location_search(16),
        ssc_multiplier=code.m,
        erasure_trials=tally.trials,
        erasure_recovered=tally.recovered,
    )


def render(result: DoubleDeviceResult) -> str:
    lines = [
        "Extension: two consecutive device failures on the 80-bit code",
        f"  unknown-location search, r=15: "
        f"{result.r15_unknown_location or 'no multiplier exists'}",
        f"  unknown-location search, r=16: "
        f"{result.r16_unknown_location or 'no multiplier exists'}",
        f"  -> the claim cannot mean unknown-location correction.",
        "",
        f"  erasure reading: MUSE(80,65) SSC code, m={result.ssc_multiplier} "
        f"(15 check bits, 64 data + 1 spare)",
        f"  known-location recovery of random adjacent-pair corruption: "
        f"{result.erasure_recovered}/{result.erasure_trials}",
    ]
    return "\n".join(lines)


DEFAULT_TRIALS = 400
DEFAULT_SEED = 13


def main(
    trials: int | None = None,
    seed: int | None = None,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
) -> str:
    report = render(
        run(
            DEFAULT_TRIALS if trials is None else trials,
            DEFAULT_SEED if seed is None else seed,
            backend=backend,
            jobs=jobs,
            chunk_size=chunk_size,
        )
    )
    print(report)
    return report


if __name__ == "__main__":
    main()
