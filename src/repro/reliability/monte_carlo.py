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

Both run on one code-family layer: :class:`MuseMsedSimulator` and
:class:`RsMsedSimulator` are thin dataclasses over one shared body that
holds a :class:`~repro.orchestrate.corruption.CodeFamily` and never
asks which one.  A chunk runs in a fused native kernel where one
replays its stream, else is generated by the family-generic
:func:`~repro.orchestrate.corruption.scenario_chunk` and batch-decoded;
the scalar reference decodes ``scenario_word`` words through the
family's scalar engine.

Execution is *streamed*: a run is split into fixed-size chunks
(:mod:`repro.orchestrate.plan`) whose corruption streams are counter
hashes of the global trial index, so every chunk's tally is a pure
fold term and memory stays flat however many trials the run totals.
``run(..., jobs=N)`` fans the chunks over a process pool; for a fixed
master seed the folded tally is byte-identical for every
``(chunk_size, jobs)`` combination and across decode backends.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.codec import MuseCode
from repro.core.symbols import SymbolLayout
from repro.engine import get_engine
# The per-family generators stay importable from here: perfbench's
# tracing wraps them as attributes of this module.
from repro.orchestrate.corruption import (  # noqa: F401
    MUSE,
    RS,
    muse_corruption_chunk,
    muse_scenario_chunk,
    rs_corruption_chunk,
    rs_scenario_chunk,
    scenario_chunk,
    scenario_word,
)
from repro.orchestrate.plan import Chunk, plan_chunks
from repro.orchestrate.pool import ProgressCallback, run_grid
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import (
    CodeRef,
    MuseSimSpec,
    RsSimSpec,
    checked_code_ref,
    group_labels,
)
from repro.reliability.metrics import (
    DesignPoint,
    MsedResult,
    MsedTally,
    TableIV,
)
from repro.reliability.sampling.sequential import AdaptivePolicy
from repro.rs.chipkill import assess
from repro.rs.engine import get_rs_engine
from repro.rs.reed_solomon import RSCode, rs_for_channel

if TYPE_CHECKING:
    from repro.reliability.sampling.scheduler import CampaignOutcome


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


class _MsedSimulator:
    """The one body of both family simulators.

    A subclass is a dataclass declaring only its fields, its
    :class:`~repro.orchestrate.corruption.CodeFamily` as ``family``,
    its worker recipe as ``spec_class`` and its engine getter
    ``_engine(backend)``.  The counter-hashed trial stream depends on
    neither the backend nor the chunking, so the tally of a fixed
    ``(trials, seed)`` run is byte-identical across backends and every
    ``(chunk_size, jobs)`` split.
    """

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
        """The single-point case of the shared design-point runner."""
        return run_design_points(
            [self], trials, seed, jobs, chunk_size, progress, executor
        )[0]

    def run_adaptive(
        self,
        policy: AdaptivePolicy | None = None,
        seed: int = 2022,
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: ProgressCallback | None = None,
        executor=None,
    ) -> CampaignOutcome:
        """Grow this simulator's trial stream until ``policy`` is met:
        the one-point case of :func:`run_design_points_adaptive`.

        The returned outcome's tally is the byte-identical prefix of
        the fixed-trial stream at the same seed.
        """
        return run_design_points_adaptive(
            [self],
            policy if policy is not None else AdaptivePolicy(),
            seed, jobs, chunk_size, progress, executor,
        )[0]

    def run_chunk(self, chunk: Chunk, key: int) -> MsedTally:
        """Classify one chunk of the stream keyed by ``key``.

        The unit of work the shard runner executes; folding the
        returned tallies over a run's chunks reproduces ``run``.  Every
        scenario takes one route: one compiled draw->decode->tally pass
        when the engine can replay the stream (``fused_scenario_counts``:
        native, msed or mbu, k <= 5), else ``scenario_chunk`` then a
        batch decode on whatever engine ``backend`` resolves to.
        """
        engine = self._engine(self.backend)
        fused = getattr(engine, "fused_scenario_counts", None)
        counts = (
            fused(self.scenario, chunk, key, self.k_symbols)
            if fused is not None
            else None
        )
        if counts is None:
            from repro.scenarios import resolve_scenario

            words = scenario_chunk(
                self.family, resolve_scenario(self.scenario), self.code,
                chunk, key, self.k_symbols,
            )
            counts = engine.decode_batch(words).counts()
        return _tally(counts)

    def _task_spec(self):
        """``spec_class`` filled from this simulator's same-named
        fields, its code replaced by the checked ``code_ref``."""
        values = {f.name: getattr(self, f.name) for f in fields(self.spec_class)}
        values["code"] = checked_code_ref(
            self.code_ref, self.code, self.family.signature
        )
        return self.spec_class(**values)

    def _scenario_sequential(self, scenario, chunk: Chunk, key: int) -> MsedTally:
        """The scalar reference of one scenario chunk: one
        ``corrupt_word`` per trial, decoded by the family's scalar
        engine — the oracle the scenario tests pin :meth:`run_chunk`
        against."""
        words = [
            scenario_word(
                self.family, scenario, self.code, trial, key, self.k_symbols
            )
            for trial in range(chunk.start, chunk.stop)
        ]
        return _tally(self._engine("scalar").decode_batch(words).counts())


@dataclass
class MuseMsedSimulator(_MsedSimulator):
    """Inject k-symbol errors into a MUSE code and classify outcomes.

    ``ripple_check`` keeps the Figure-4 correction-ripple veto;
    ``backend`` picks the decode engine ("scalar", "numpy", "native" or
    "auto"); ``code_ref`` (a :class:`~repro.orchestrate.worker.CodeRef`
    or a ``"module:callable"`` string) lets ``jobs > 1`` workers rebuild
    the code instead of pickling it; ``scenario`` names the fault
    scenario (:mod:`repro.scenarios`) — by default "msed", the
    paper's transient model.
    """

    code: MuseCode
    k_symbols: int = 2
    ripple_check: bool = True
    backend: str = "auto"
    code_ref: CodeRef | str | None = None
    scenario: str = "msed"

    family = MUSE
    spec_class = MuseSimSpec

    def _engine(self, backend: str):
        return get_engine(self.code, backend, ripple_check=self.ripple_check)


@dataclass
class RsMsedSimulator(_MsedSimulator):
    """Inject k-symbol errors into an RS code and classify outcomes.

    ``device_bits`` enables the device-confinement decode policy
    (defaults to x4, matching the paper's DIMMs); ``None`` disables it.
    Every other field is as in :class:`MuseMsedSimulator`.
    """

    code: RSCode
    k_symbols: int = 2
    device_bits: int | None = 4
    backend: str = "auto"
    code_ref: CodeRef | str | None = None
    scenario: str = "msed"

    family = RS
    spec_class = RsSimSpec

    def _engine(self, backend: str):
        return get_rs_engine(self.code, backend, device_bits=self.device_bits)


# ----------------------------------------------------------------------
# Table IV assembly
# ----------------------------------------------------------------------

#: Largest valid multipliers for the 144-bit C4B model at every
#: redundancy a Table-IV design point uses: the paper's r = 16 and
#: r = 12 picks and the r = 13..15 codes between them (each equal to a
#: fresh descending search, verified in tests), so building the table
#: runs no search.  Immutable: values for any other r are searched and
#: live in the lru_cache below, never here, so concurrent or batched
#: callers can't observe a half-filled table.
PAPER_144_MULTIPLIERS = {
    16: 65519,  # the paper's MUSE(144,128) pick
    15: 32749,
    14: 16367,
    13: 8167,
    12: 4065,   # the paper's MUSE(144,132) pick
}


@lru_cache(maxsize=None)
def largest_144_multiplier(r: int) -> int:
    """Largest valid multiplier for the 144-bit C4B model at budget r.

    The recorded multipliers short-circuit the search; any other r runs
    it once per process.
    """
    known = PAPER_144_MULTIPLIERS.get(r)
    if known is not None:
        return known
    from repro.core.error_model import SymbolErrorModel
    from repro.core.search import MultiplierSearch

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


def _result_cache(cache_dir: str | None):
    """The cross-run :class:`~repro.distribute.cache.ResultCache` under
    ``cache_dir``, or None; imported lazily, so uncached runs never
    load the distribute package."""
    if cache_dir is None:
        return None
    from repro.distribute.cache import ResultCache

    return ResultCache(cache_dir)


def run_design_points(
    simulators: "list[MuseMsedSimulator | RsMsedSimulator]",
    trials: int,
    seed: int,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    executor=None,
    group_ns: str | None = None,
    cache_dir: str | None = None,
) -> list[MsedResult]:
    """Run every simulator over the same chunk plan and master seed.

    The full design-points x chunks grid runs as one
    :func:`~repro.orchestrate.pool.run_grid`: streamed in process for
    ``jobs = 1``, over **one** process pool for ``jobs > 1`` (no
    per-point barriers, one worker spin-up for the whole grid), or on
    the remote workers of an ``executor``
    (:class:`repro.distribute.DistributedSession`); with ``cache_dir``
    the chunks an earlier run computed fold from the result cache
    instead.  Every path folds the identical chunk tallies, so results
    are positionally aligned with ``simulators`` and independent of
    ``jobs``/``chunk_size``/transport/cache state.
    """
    chunks = plan_chunks(trials, chunk_size)
    folded = run_grid(
        simulators,
        [(index, chunk) for index in range(len(simulators)) for chunk in chunks],
        derive_key(seed),
        groups=group_labels(len(simulators), group_ns),
        jobs=jobs,
        progress=progress,
        executor=executor,
        cache=_result_cache(cache_dir),
    )
    return [
        folded.get(index, MsedTally()).freeze()
        for index in range(len(simulators))
    ]


def run_design_points_adaptive(
    simulators: "list[MuseMsedSimulator | RsMsedSimulator]",
    policy: AdaptivePolicy,
    seed: int,
    jobs: int = 1,
    chunk_size: int | None = None,
    progress: ProgressCallback | None = None,
    executor=None,
    group_ns: str | None = None,
    cache_dir: str | None = None,
) -> list[CampaignOutcome]:
    """Adaptive sibling of :func:`run_design_points`.

    Every simulator consumes the same counter-hashed stream, but the
    sweep is now scheduled as one *campaign*
    (:class:`~repro.reliability.sampling.scheduler.CampaignRunner`):
    each round grants every unfinished point the trials projected to
    reach the policy's CI target instead of finishing points one at a
    time, optionally backed by a ``cache_dir`` result cache.  Results
    are positionally aligned
    with ``simulators`` and, like the fixed-budget runner, independent
    of ``jobs``/``chunk_size``/backend/transport at a fixed seed
    (including each point's ``trials_used`` and ``trials_cached``) —
    allocation is a pure function of the folded tallies.
    """
    from repro.reliability.sampling.scheduler import CampaignRunner

    return CampaignRunner(policy, cache=_result_cache(cache_dir)).run(
        simulators, seed, jobs, chunk_size, progress, executor, group_ns
    )


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
    cache_dir: str | None = None,
) -> "tuple[list[MsedResult], list[CampaignOutcome | None]]":
    """The one fixed-vs-adaptive dispatch every experiment shares.

    Returns ``(results, outcomes)`` positionally aligned with
    ``simulators``; ``outcomes`` is all ``None`` for fixed-budget runs
    (``adaptive is None``), so callers render trial counts and
    convergence flags from one shape.  ``cache_dir`` serves and fills
    the result cache in both, on every transport.  ``progress`` is called
    once per computed chunk; the ``--progress`` printer
    (:class:`repro.distribute.progress.ChunkProgress`) also prints a
    campaign's allocation rounds.
    """
    if adaptive is not None:
        outcomes = run_design_points_adaptive(
            simulators, adaptive, seed, jobs, chunk_size, progress, executor,
            group_ns, cache_dir,
        )
        return [outcome.result for outcome in outcomes], list(outcomes)
    results = run_design_points(
        simulators, trials, seed, jobs, chunk_size, progress, executor,
        group_ns, cache_dir,
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
    as one campaign (each round grants every unfinished point the
    trials projected to reach its CI target), and every
    :class:`DesignPoint` carries its campaign outcome in ``.sampling``.  Fixed or adaptive, ``cache_dir`` folds the chunks
    an earlier run computed from the result cache and files the rest.

    ``scenario`` swaps the injected corruption stream for any fault
    scenario (:mod:`repro.scenarios`) — same grid,
    same determinism contract, per-scenario result-cache cells.
    """
    simulators: list[MuseMsedSimulator | RsMsedSimulator] = [
        MuseMsedSimulator(
            muse_design_point(extra_bits),
            k_symbols=k_symbols,
            backend=backend,
            code_ref=CodeRef(f"{_SELF}:muse_design_point", (extra_bits,)),
            scenario=scenario,
        )
        for extra_bits in range(0, 6)
    ] + [
        RsMsedSimulator(
            rs_design_point(extra_bits),
            k_symbols=k_symbols,
            device_bits=4 if rs_device_policy else None,
            backend=backend,
            code_ref=CodeRef(f"{_SELF}:rs_design_point", (extra_bits,)),
            scenario=scenario,
        )
        for extra_bits in (0, 2, 4, 6)
    ]

    results, outcomes = run_design_points_with_outcomes(
        simulators, trials, seed, jobs, chunk_size, progress, adaptive,
        executor, cache_dir=cache_dir,
    )

    table = TableIV()
    for simulator, result, outcome in zip(simulators, results, outcomes):
        code = simulator.code
        if simulator.family is MUSE:
            label, chipkill, note = f"{code.name} m={code.m}", True, ""
        else:
            verdict = assess(code.symbol_bits, 4, 144)
            label, chipkill = repr(code), verdict.chipkill
            note = "" if chipkill else verdict.explain()
        table.add(
            DesignPoint(
                family=simulator.family.name,
                extra_bits=simulator.code_ref.args[0],  # the point's bits
                label=label,
                chipkill=chipkill,
                result=result,
                note=note,
                sampling=outcome,
            )
        )
    return table
