"""Monte-Carlo multi-symbol error detection simulator (Table IV).

Methodology (paper Section VII-A): for each design point, sample
``trials`` random k-symbol error patterns (k = 2 by default), corrupt a
random encoded codeword, run the decoder, and classify the outcome.
The multi-symbol error detection (MSED) rate is the detected fraction.

Two decoders participate:

* **MUSE** — the Figure-4 flow: ELC miss and correction-ripple
  (overflow/underflow) both detect; an ELC hit whose correction stays
  symbol-confined is a miscorrection.
* **Reed-Solomon** — bounded-distance PGZ.  By default the decoder also
  enforces *device confinement*: a corrected magnitude must fall inside
  a single x4 device's bit positions, as a commercial x4 ChipKill
  decoder would require (a real single-device failure can never span
  two devices).  Without this policy RS MSED drops by roughly its
  locator-validity factor; the ablation flag lets you measure both.

Execution is *streamed*: a run is split into fixed-size chunks
(:mod:`repro.orchestrate.plan`) whose corruption streams are counter
hashes of the global trial index, so every chunk's tally is a pure
fold term and memory stays flat however many trials the run totals.
``run(..., jobs=N)`` fans the chunks over a process pool; for a fixed
master seed the folded tally is byte-identical for every
``(chunk_size, jobs)`` combination and across decode backends.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

from repro import telemetry
from repro.core.codec import DecodeStatus, DetectionReason, MuseCode
from repro.core.error_model import SymbolErrorModel
from repro.core.search import MultiplierSearch
from repro.core.symbols import SymbolLayout
from repro.engine import get_engine
# The msed generators stay importable from here: perfbench's tracing
# wraps them as attributes of this module.
from repro.orchestrate.corruption import (  # noqa: F401
    muse_corruption_chunk,
    muse_scenario_chunk,
    muse_scenario_word,
    rs_corruption_chunk,
    rs_scenario_chunk,
    rs_scenario_word,
)
from repro.orchestrate.plan import Chunk, plan_chunks
from repro.orchestrate.pool import ProgressCallback, run_sharded
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import (
    ChunkTask,
    CodeRef,
    MuseSimSpec,
    RsSimSpec,
    checked_code_ref,
    group_labels,
    muse_signature,
    rs_signature,
)
from repro.reliability.metrics import (
    DesignPoint,
    MsedResult,
    MsedTally,
    TableIV,
)
from repro.reliability.sampling.scheduler import (
    CampaignOutcome,
    CampaignPolicy,
    CampaignRunner,
)
from repro.reliability.sampling.sequential import (
    AdaptiveOutcome,
    AdaptivePolicy,
    AdaptiveRunner,
)
from repro.rs.chipkill import assess
from repro.rs.engine import device_confined, get_rs_engine
from repro.rs.reed_solomon import RSCode, RSDecodeStatus, rs_for_channel


def _streamed_run(
    simulator,
    trials: int,
    seed: int,
    jobs: int,
    chunk_size: int | None,
    progress: ProgressCallback | None,
    executor=None,
) -> MsedResult:
    """One simulator's run is the single-point case of the shared
    design-point grid runner — one skeleton, never two to keep in sync.
    """
    return run_design_points(
        [simulator], trials, seed, jobs, chunk_size, progress, executor
    )[0]


def _adaptive_run(
    simulator,
    policy: AdaptivePolicy | None,
    seed: int,
    jobs: int,
    chunk_size: int | None,
    progress: ProgressCallback | None,
    executor=None,
) -> AdaptiveOutcome:
    """Shared ``run_adaptive`` body of both simulator classes."""
    runner = AdaptiveRunner(policy if policy is not None else AdaptivePolicy())
    return runner.run_one(simulator, seed, jobs, chunk_size, progress, executor)


def _tally(counts) -> MsedTally:
    """Fold one chunk's 4-status counts into a tally.

    Tallies classify the delivered word: CLEAN means the corruption
    aliased to a valid codeword (silent), CORRECTED a single-symbol
    miscorrection, and the fourth status is MUSE's ripple veto or the
    RS device-confinement veto.
    """
    clean, corrected, no_match, vetoed = counts
    tally = MsedTally()
    tally.record_counts(
        silent=clean,
        miscorrected=corrected,
        detected_no_match=no_match,
        detected_confinement=vetoed,
    )
    return tally


def _chunk_counts(engine, generate, scenario: str, code, chunk: Chunk,
                  key: int, k_symbols: int):
    """The 4-status counts of one chunk of a scenario's stream.

    One compiled draw->decode->tally pass when the engine can replay the
    stream (``fused_scenario_counts``: native, msed or mbu, k <= 2),
    else ``generate`` the corrupted chunk and batch-decode it.
    """
    fused = getattr(engine, "fused_scenario_counts", None)
    counts = (
        fused(scenario, chunk, key, k_symbols) if fused is not None else None
    )
    if counts is None:
        from repro.scenarios import resolve_scenario

        words = generate(
            resolve_scenario(scenario), code, chunk, key, k_symbols
        )
        counts = engine.decode_batch(words).counts()
    return counts


@dataclass
class MuseMsedSimulator:
    """Inject k-symbol errors into a MUSE code and classify outcomes.

    Corruptions are generated chunk by chunk by
    :func:`repro.orchestrate.corruption.muse_scenario_chunk` and
    classified by vectorised batch decodes, or drawn, decoded and
    tallied in one compiled pass where a fused kernel replays them.
    ``backend`` selects the decode engine ("scalar", "numpy", "native"
    or "auto"); the counter-hashed trial stream depends on neither the
    backend nor the chunking, so the tally of a fixed
    ``(trials, seed)`` run is byte-identical across backends and across
    every ``(chunk_size, jobs)`` split.

    ``code_ref`` (a :class:`~repro.orchestrate.worker.CodeRef` or a
    ``"module:callable"`` string) is only needed for ``jobs > 1``: it
    lets worker processes rebuild the code instead of pickling it.
    """

    code: MuseCode
    k_symbols: int = 2
    ripple_check: bool = True
    backend: str = "auto"
    code_ref: CodeRef | str | None = None
    #: Which registered fault scenario to inject (:mod:`repro.scenarios`).
    #: The default "msed" is the paper's transient model and keeps the
    #: historical stream.  The native fused kernels replay msed and mbu;
    #: every other scenario runs generate-then-decode, and each fault
    #: scenario has a byte-identical scalar reference.
    scenario: str = "msed"

    def run(
        self,
        trials: int = 10_000,
        seed: int = 2022,
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: ProgressCallback | None = None,
        executor=None,
    ) -> MsedResult:
        return _streamed_run(
            self, trials, seed, jobs, chunk_size, progress, executor
        )

    def run_adaptive(
        self,
        policy: AdaptivePolicy | None = None,
        seed: int = 2022,
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: ProgressCallback | None = None,
        executor=None,
    ) -> AdaptiveOutcome:
        """Grow this simulator's trial stream until ``policy`` is met.

        The returned outcome's tally is the byte-identical prefix of
        the fixed-trial stream at the same seed (see
        :mod:`repro.reliability.sampling.sequential`).
        """
        return _adaptive_run(
            self, policy, seed, jobs, chunk_size, progress, executor
        )

    def run_chunk(self, chunk: Chunk, key: int) -> MsedTally:
        """Classify one chunk of the stream keyed by ``key``.

        The unit of work the shard runner executes; folding the
        returned tallies over a run's chunks reproduces ``run``.  Every
        scenario takes one route: the fused kernel when the engine can
        replay the stream, else ``muse_scenario_chunk`` then a batch
        decode on whatever engine ``backend`` resolves to.
        """
        engine = get_engine(
            self.code, self.backend, ripple_check=self.ripple_check
        )
        return _tally(
            _chunk_counts(
                engine, muse_scenario_chunk, self.scenario, self.code,
                chunk, key, self.k_symbols,
            )
        )

    def _task_spec(self) -> MuseSimSpec:
        return MuseSimSpec(
            code=checked_code_ref(self.code_ref, self.code, muse_signature),
            k_symbols=self.k_symbols,
            ripple_check=self.ripple_check,
            backend=self.backend,
            scenario=self.scenario,
        )

    def _scenario_sequential(self, scenario, chunk: Chunk, key: int) -> MsedTally:
        """The scalar reference of one scenario chunk: one
        ``corrupt_word`` and one big-int decode per trial — the oracle
        the scenario tests pin :meth:`run_chunk` against."""
        code = self.code
        tally = MsedTally()
        for trial in range(chunk.start, chunk.stop):
            corrupted = muse_scenario_word(
                scenario, code, trial, key, self.k_symbols
            )
            if self.ripple_check:
                result = code.decode(corrupted)
            else:
                result = code.decode_without_ripple_check(corrupted)
            if result.status is DecodeStatus.CLEAN:
                tally.record_silent()
            elif result.status is DecodeStatus.CORRECTED:
                tally.record_miscorrected()
            elif result.reason is DetectionReason.REMAINDER_NOT_FOUND:
                tally.record_detected_no_match()
            else:
                tally.record_detected_confinement()
        return tally


@dataclass
class RsMsedSimulator:
    """Inject k-symbol errors into an RS code and classify outcomes.

    ``device_bits`` enables the device-confinement decode policy
    (defaults to x4, matching the paper's DIMMs); ``None`` disables it.
    Like :class:`MuseMsedSimulator`, corruptions come from the shared
    counter-hashed chunk generator
    (:func:`repro.orchestrate.corruption.rs_scenario_chunk`), so the
    tally of a fixed ``(trials, seed)`` run is byte-identical across
    backends and every ``(chunk_size, jobs)`` split.  ``code_ref``
    names a factory for worker processes (``jobs > 1``).
    """

    code: RSCode
    k_symbols: int = 2
    device_bits: int | None = 4
    backend: str = "auto"
    code_ref: CodeRef | str | None = None
    #: Registered fault scenario to inject (:mod:`repro.scenarios`);
    #: see :class:`MuseMsedSimulator`.
    scenario: str = "msed"

    def run(
        self,
        trials: int = 10_000,
        seed: int = 2022,
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: ProgressCallback | None = None,
        executor=None,
    ) -> MsedResult:
        return _streamed_run(
            self, trials, seed, jobs, chunk_size, progress, executor
        )

    def run_adaptive(
        self,
        policy: AdaptivePolicy | None = None,
        seed: int = 2022,
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: ProgressCallback | None = None,
        executor=None,
    ) -> AdaptiveOutcome:
        """Grow this simulator's trial stream until ``policy`` is met."""
        return _adaptive_run(
            self, policy, seed, jobs, chunk_size, progress, executor
        )

    def run_chunk(self, chunk: Chunk, key: int) -> MsedTally:
        """Classify one chunk of the stream keyed by ``key`` — the RS
        twin of :meth:`MuseMsedSimulator.run_chunk`: fused when the
        engine can replay the scenario, else ``rs_scenario_chunk`` then
        a batch decode."""
        engine = get_rs_engine(
            self.code, self.backend, device_bits=self.device_bits
        )
        return _tally(
            _chunk_counts(
                engine, rs_scenario_chunk, self.scenario, self.code,
                chunk, key, self.k_symbols,
            )
        )

    def _task_spec(self) -> RsSimSpec:
        return RsSimSpec(
            code=checked_code_ref(self.code_ref, self.code, rs_signature),
            k_symbols=self.k_symbols,
            device_bits=self.device_bits,
            backend=self.backend,
            scenario=self.scenario,
        )

    def _scenario_sequential(self, scenario, chunk: Chunk, key: int) -> MsedTally:
        """The scalar reference of one scenario chunk (see
        :meth:`MuseMsedSimulator._scenario_sequential`)."""
        code = self.code
        tally = MsedTally()
        for trial in range(chunk.start, chunk.stop):
            codeword = rs_scenario_word(
                scenario, code, trial, key, self.k_symbols
            )
            result = code.decode(codeword)
            if result.status is RSDecodeStatus.CLEAN:
                tally.record_silent()
            elif result.status is RSDecodeStatus.DETECTED:
                tally.record_detected_no_match()
            elif self.device_bits is not None and not device_confined(
                code, result.error_position, result.error_magnitude,
                self.device_bits,
            ):
                tally.record_detected_confinement()
            else:
                tally.record_miscorrected()
        return tally


# ----------------------------------------------------------------------
# Table IV assembly
# ----------------------------------------------------------------------

#: Largest valid multipliers for the 144-bit C4B model at the two
#: redundancies the paper publishes (verified in tests).  Immutable:
#: lazily-discovered values live in the lru_cache below, never here, so
#: concurrent or batched callers can't observe a half-filled table.
PAPER_144_MULTIPLIERS = {
    16: 65519,  # the paper's MUSE(144,128) pick
    12: 4065,   # the paper's MUSE(144,132) pick
}


@lru_cache(maxsize=None)
def largest_144_multiplier(r: int) -> int:
    """Largest valid multiplier for the 144-bit C4B model at budget r.

    Memoised because the r=15/16 descending searches cost a few
    seconds; the published picks short-circuit the search entirely.
    """
    known = PAPER_144_MULTIPLIERS.get(r)
    if known is not None:
        return known
    model = SymbolErrorModel(SymbolLayout.sequential(144, 4))
    result = MultiplierSearch(model, r).run_descending(stop_after=1)
    if not result.found:
        raise LookupError(f"no valid multiplier for r={r}")
    return result.multipliers[-1]


@lru_cache(maxsize=None)
def muse_design_point(extra_bits: int) -> MuseCode:
    """The MUSE code giving ``extra_bits`` spare bits (Table IV row).

    Extra bits 0..4 shrink the 144-bit code's redundancy from 16 to 12;
    extra bits 5 is the 80-bit MUSE(80,69) code (the paper's footnote).
    Memoised, like :func:`~repro.core.codes.get_code`: every call
    returns the same code object, and the decode engines cached on it
    (:func:`repro.engine.cached_engine`) are built once per process,
    not once per Table-IV build.
    """
    if extra_bits == 5:
        from repro.core.codes import muse_80_69

        return muse_80_69()
    if not 0 <= extra_bits <= 4:
        raise ValueError("MUSE design points exist for 0..5 extra bits")
    r = 16 - extra_bits
    m = largest_144_multiplier(r)
    layout = SymbolLayout.sequential(144, 4)
    return MuseCode(layout, m, name=f"MUSE(144,{144 - r})")


@lru_cache(maxsize=None)
def rs_design_point(extra_bits: int) -> RSCode:
    """The RS code giving ``extra_bits`` spare bits over 144 bits.

    RS redundancy comes in two-symbol steps, so only even extra-bit
    counts exist: b = 8 - extra/2.  Memoised like
    :func:`muse_design_point`, so the engines cached on the code are
    built once per process.
    """
    if extra_bits % 2 or not 0 <= extra_bits <= 6:
        raise ValueError("RS design points exist for extra bits 0, 2, 4, 6")
    return rs_for_channel(8 - extra_bits // 2, 144)


_SELF = "repro.reliability.monte_carlo"


def run_design_points(
    simulators: "list[MuseMsedSimulator | RsMsedSimulator]",
    trials: int,
    seed: int,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    executor=None,
    group_ns: str | None = None,
) -> list[MsedResult]:
    """Run every simulator over the same chunk plan and master seed.

    ``jobs > 1`` fans the full design-points x chunks grid over **one**
    process pool (no per-point barriers, one worker spin-up for the
    whole grid); ``jobs = 1`` streams the same chunks in process.
    ``executor`` (a :class:`repro.distribute.DistributedSession`)
    replaces the pool with remote workers pulling from the
    coordinator's queue.  Every path folds the identical chunk tallies,
    so results are positionally aligned with ``simulators`` and
    independent of ``jobs``/``chunk_size``/transport.
    """
    chunks = plan_chunks(trials, chunk_size)
    key = derive_key(seed)
    if jobs > 1 or executor is not None:
        # One spec per simulator, hoisted out of the chunk loop: each
        # _task_spec() rebuilds the code for its consistency check, and
        # a large run has thousands of chunks per point.
        specs = [simulator._task_spec() for simulator in simulators]
        groups = group_labels(len(simulators), group_ns)
        tasks = [
            ChunkTask(groups[index], spec, chunk, key)
            for index, spec in enumerate(specs)
            for chunk in chunks
        ]
        folded = run_sharded(tasks, jobs, progress, executor)
        return [
            folded.get(group, MsedTally()).freeze() for group in groups
        ]
    results = []
    groups = group_labels(len(simulators), group_ns)
    total = len(simulators) * len(chunks)
    done = 0
    for index, simulator in enumerate(simulators):
        tally = MsedTally()
        for chunk in chunks:
            with telemetry.span("decode_chunk", point=str(groups[index])):
                tally.merge(simulator.run_chunk(chunk, key))
            done += 1
            if progress is not None:
                progress(done, total)
        results.append(tally.freeze())
    return results


def run_design_points_adaptive(
    simulators: "list[MuseMsedSimulator | RsMsedSimulator]",
    policy: "AdaptivePolicy | CampaignPolicy",
    seed: int,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    executor=None,
    group_ns: str | None = None,
    trial_budget: int | None = None,
    cache_dir: str | None = None,
) -> list[CampaignOutcome]:
    """Adaptive sibling of :func:`run_design_points`.

    Every simulator consumes the same counter-hashed stream, but the
    sweep is now scheduled as one *campaign*
    (:class:`~repro.reliability.sampling.scheduler.CampaignRunner`):
    each round spends the next batch of trials on the points furthest
    from the policy's CI target instead of finishing points one at a
    time, optionally under a campaign-wide ``trial_budget`` and backed
    by a ``cache_dir`` result cache.  Results are positionally aligned
    with ``simulators`` and, like the fixed-budget runner, independent
    of ``jobs``/``chunk_size``/backend at a fixed seed (including each
    point's ``trials_used``) — allocation is a pure function of the
    folded tallies.
    """
    if isinstance(policy, CampaignPolicy):
        campaign = policy
    else:
        campaign = CampaignPolicy(base=policy)
    if trial_budget is not None:
        campaign = dataclasses.replace(campaign, trial_budget=trial_budget)
    cache = None
    if cache_dir is not None and executor is None:
        # Distributed runs attach the cache to the session (the
        # coordinator owns all folds there); in-process runs own it
        # here.
        from repro.distribute.cache import ResultCache

        cache = ResultCache(cache_dir)
    runner = CampaignRunner(
        campaign,
        cache=cache,
        heartbeat=getattr(executor, "heartbeat", None),
    )
    outcomes = runner.run(
        simulators, seed, jobs, chunk_size, progress, executor, group_ns
    )
    if cache is not None:
        cache.flush()
    return outcomes


def run_design_points_with_outcomes(
    simulators: "list[MuseMsedSimulator | RsMsedSimulator]",
    trials: int,
    seed: int,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    adaptive: AdaptivePolicy | None = None,
    executor=None,
    group_ns: str | None = None,
    trial_budget: int | None = None,
    cache_dir: str | None = None,
) -> "tuple[list[MsedResult], list[CampaignOutcome | None]]":
    """The one fixed-vs-adaptive dispatch every experiment shares.

    Returns ``(results, outcomes)`` positionally aligned with
    ``simulators``; ``outcomes`` is all ``None`` for fixed-budget runs
    (``adaptive is None``), so callers render trial counts and
    convergence flags from one shape.  ``trial_budget`` and
    ``cache_dir`` only apply to adaptive (campaign) runs.
    """
    if adaptive is not None:
        outcomes = run_design_points_adaptive(
            simulators, adaptive, seed, jobs, chunk_size, progress, executor,
            group_ns, trial_budget, cache_dir,
        )
        return [outcome.result for outcome in outcomes], list(outcomes)
    results = run_design_points(
        simulators, trials, seed, jobs, chunk_size, progress, executor,
        group_ns,
    )
    return results, [None] * len(results)


def build_table_iv(
    trials: int = 10_000,
    seed: int = 2022,
    k_symbols: int = 2,
    rs_device_policy: bool = True,
    backend: str = "auto",
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    adaptive: AdaptivePolicy | None = None,
    executor=None,
    trial_budget: int | None = None,
    cache_dir: str | None = None,
    scenario: str = "msed",
) -> TableIV:
    """Run every design point and assemble the paper's Table IV.

    ``backend`` selects the decode engine for *both* families (MUSE and
    RS batch engines); ``jobs`` fans design points x chunks over a
    process pool, ``chunk_size`` bounds per-chunk memory, and
    ``executor`` ships the same chunk grid to distributed workers
    (:class:`repro.distribute.DistributedSession`).  None of them
    changes the tallies of a fixed ``(trials, seed)`` table — one flag
    set accelerates the whole table without altering it.

    With ``adaptive`` set, ``trials`` is ignored: the whole table runs
    as one campaign (trials flow to the points furthest from the CI
    target each round), optionally capped by ``trial_budget`` and
    served from the ``cache_dir`` result cache, and every
    :class:`DesignPoint` carries its campaign outcome in ``.sampling``.

    ``scenario`` swaps the injected corruption stream for any
    registered fault scenario (:mod:`repro.scenarios`) — same grid,
    same determinism contract, per-scenario result-cache cells.
    """
    entries: list[tuple[str, int, object]] = []
    simulators: list[MuseMsedSimulator | RsMsedSimulator] = []
    for extra_bits in range(0, 6):
        code = muse_design_point(extra_bits)
        simulators.append(
            MuseMsedSimulator(
                code,
                k_symbols=k_symbols,
                backend=backend,
                code_ref=CodeRef(f"{_SELF}:muse_design_point", (extra_bits,)),
                scenario=scenario,
            )
        )
        entries.append(("MUSE", extra_bits, code))
    for extra_bits in (0, 2, 4, 6):
        code = rs_design_point(extra_bits)
        simulators.append(
            RsMsedSimulator(
                code,
                k_symbols=k_symbols,
                device_bits=4 if rs_device_policy else None,
                backend=backend,
                code_ref=CodeRef(f"{_SELF}:rs_design_point", (extra_bits,)),
                scenario=scenario,
            )
        )
        entries.append(("RS", extra_bits, code))

    results, outcomes = run_design_points_with_outcomes(
        simulators, trials, seed, jobs, chunk_size, progress, adaptive,
        executor, trial_budget=trial_budget, cache_dir=cache_dir,
    )

    table = TableIV()
    for (family, extra_bits, code), result, outcome in zip(
        entries, results, outcomes
    ):
        if family == "MUSE":
            table.add(
                DesignPoint(
                    family="MUSE",
                    extra_bits=extra_bits,
                    label=f"{code.name} m={code.m}",
                    chipkill=True,
                    result=result,
                    sampling=outcome,
                )
            )
        else:
            verdict = assess(code.symbol_bits, 4, 144)
            table.add(
                DesignPoint(
                    family="RS",
                    extra_bits=extra_bits,
                    label=repr(code),
                    chipkill=verdict.chipkill,
                    result=result,
                    note="" if verdict.chipkill else verdict.explain(),
                    sampling=outcome,
                )
            )
    return table
