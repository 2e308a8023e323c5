"""Importance splitting for the silent / miscorrection tails.

The problem: for the strong design points, "decoder did not flag" is so
rare that a plain Monte-Carlo run reports 0 silent events in 10^4 (or
10^6) trials — a point estimate of 0 with nothing but the rule-of-three
bound as an error bar.

The estimator here splits every sampled trial at the last corruption
step.  A trial of the plain stream is (data word, ``k`` chosen symbols,
``k`` replacement values); the *prefix* — everything except the final
replacement value — is sampled exactly as in the plain stream
(:func:`repro.orchestrate.corruption.split_chunk` reuses its DATA,
CHOICE and VALUE draws), and the final value is then **branched over
exhaustively**: all ``2^w - 1`` values the held-out ``w``-bit symbol
could take (never the original — the plain stream's final draw is
uniform over exactly that set).  Each branch is decoded by the ordinary
batch engine and classified; the prefix's contribution to the silent
(or miscorrection) rate is its branch count divided by ``2^w - 1``.

This is a conditional (Rao-Blackwellised) form of importance splitting:
the prefix plays the role of the trajectory reaching the intermediate
level, the branch set is the uniformly-weighted split into
continuations, and because every continuation's weight is its exact
sampling probability the estimator is **unbiased** for the plain-stream
rate (pinned against brute force in ``tests/reliability/
test_splitting.py``).  The variance win is the usual splitting one: a
prefix whose continuation set contains aliasing values contributes the
exact conditional probability instead of a noisy 0/1 indicator, so
near-100% detection cells accumulate fractional events long before a
plain run would see its first whole one.

The estimator is written once, over the code-family layer of
:mod:`repro.orchestrate.corruption`: :class:`MuseSplittingEstimator`
and :class:`RsSplittingEstimator` declare only their fields, family,
spec class and engine getter, and :func:`splitting_estimator` builds
the twin of a plain simulator from that simulator's own fields.

Counts are kept as exact integers per held-out-symbol *width stratum*
(prefix count, branch-event sums and sums of squares), so chunk tallies
fold associatively — the same byte-identical ``(chunk_size, jobs)``
invariance as the plain tallies — and the estimate and its normal-
approximation interval are derived from the folded integers with
:class:`fractions.Fraction` arithmetic, floats appearing only at the
edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from math import sqrt
from statistics import NormalDist

import numpy as np

from repro.engine import get_engine
from repro.engine.base import STATUS_CLEAN, STATUS_CORRECTED
from repro.orchestrate.corruption import MUSE, RS, split_chunk
from repro.orchestrate.plan import plan_chunks
from repro.orchestrate.pool import ProgressCallback, run_sharded
from repro.orchestrate.rng import derive_key
from repro.orchestrate.worker import ChunkTask, CodeRef, task_spec
from repro.reliability.sampling.intervals import (
    Interval,
    clopper_pearson_interval,
)

__all__ = [
    "DEFAULT_SPLIT_CHUNK_SIZE",
    "MuseSplitSpec",
    "MuseSplittingEstimator",
    "RsSplitSpec",
    "RsSplittingEstimator",
    "SplitResult",
    "SplitTally",
    "splitting_estimator",
]

#: Branching multiplies per-chunk memory by up to ``2^w`` (256 for
#: 8-bit RS symbols), so the splitting default chunk is much smaller
#: than the plain stream's 65536.
DEFAULT_SPLIT_CHUNK_SIZE = 2_048

#: The two tail metrics the splitting estimator measures.
SPLIT_METRICS = ("silent", "miscorrection")


@dataclass
class StratumTally:
    """Integer counters for one held-out-symbol width stratum."""

    prefixes: int = 0
    silent: int = 0
    silent_sq: int = 0
    miscorrected: int = 0
    miscorrected_sq: int = 0

    def merge(self, other: "StratumTally") -> "StratumTally":
        self.prefixes += other.prefixes
        self.silent += other.silent
        self.silent_sq += other.silent_sq
        self.miscorrected += other.miscorrected
        self.miscorrected_sq += other.miscorrected_sq
        return self


@dataclass
class SplitTally:
    """Mergeable fold term of a splitting run: counters per stratum.

    Strata are keyed by the held-out symbol's bit width ``w`` (branch
    factor ``2^w - 1``); all fields are plain integers, so ``merge`` is
    associative and commutative and a chunked run's tally is
    byte-identical for every ``(chunk_size, jobs)`` split.
    """

    strata: dict[int, StratumTally] = field(default_factory=dict)

    def record(
        self,
        width: int,
        prefixes: int,
        silent: int,
        silent_sq: int,
        miscorrected: int,
        miscorrected_sq: int,
    ) -> None:
        stratum = self.strata.setdefault(width, StratumTally())
        stratum.merge(
            StratumTally(prefixes, silent, silent_sq, miscorrected, miscorrected_sq)
        )

    def merge(self, other: "SplitTally") -> "SplitTally":
        for width, stratum in other.strata.items():
            self.strata.setdefault(width, StratumTally()).merge(stratum)
        return self

    def __iadd__(self, other: "SplitTally") -> "SplitTally":
        return self.merge(other)

    def freeze(self) -> "SplitResult":
        return SplitResult(
            strata=tuple(
                (
                    width,
                    s.prefixes,
                    s.silent,
                    s.silent_sq,
                    s.miscorrected,
                    s.miscorrected_sq,
                )
                for width, s in sorted(self.strata.items())
            )
        )


def _metric_columns(metric: str) -> tuple[int, int]:
    """(count, sum-of-squares) column indices of one stratum row."""
    if metric == "silent":
        return 2, 3
    if metric == "miscorrection":
        return 4, 5
    raise ValueError(
        f"unknown splitting metric {metric!r}; choose from {SPLIT_METRICS}"
    )


@dataclass(frozen=True)
class SplitResult:
    """Frozen summary of a splitting run.

    ``strata`` rows are ``(width, prefixes, silent, silent_sq,
    miscorrected, miscorrected_sq)``, sorted by width — integers only,
    so equality is exact across execution shapes.
    """

    strata: tuple[tuple[int, int, int, int, int, int], ...]

    @property
    def prefixes(self) -> int:
        return sum(row[1] for row in self.strata)

    @property
    def branches(self) -> int:
        """Total decoded continuations across all prefixes."""
        return sum(row[1] * ((1 << row[0]) - 1) for row in self.strata)

    def events(self, metric: str = "silent") -> int:
        column = _metric_columns(metric)[0]
        return sum(row[column] for row in self.strata)

    def _moments(self, metric: str) -> tuple[Fraction, Fraction]:
        """Exact (mean, second moment) of the per-prefix fractions."""
        count_col, sq_col = _metric_columns(metric)
        n = self.prefixes
        if n == 0:
            return Fraction(0), Fraction(0)
        mean = Fraction(0)
        second = Fraction(0)
        for row in self.strata:
            branch_count = (1 << row[0]) - 1
            mean += Fraction(row[count_col], branch_count)
            second += Fraction(row[sq_col], branch_count * branch_count)
        return mean / n, second / n

    def rate(self, metric: str = "silent") -> float:
        """The unbiased plain-stream rate estimate for ``metric``."""
        return float(self._moments(metric)[0])

    def interval(
        self, metric: str = "silent", confidence: float = 0.95
    ) -> Interval:
        """CI on the rate from the per-prefix fraction variance.

        Normal approximation over ``prefixes`` iid bounded summands
        (each in ``[0, 1]``).  With zero observed events the normal CI
        collapses to a point, so the upper bound falls back to the
        Clopper-Pearson bound on "prefix has any such continuation" —
        valid because the per-prefix fraction never exceeds that
        indicator, and strictly tighter than the plain-stream
        rule-of-three only through the splitting evidence itself.
        """
        n = self.prefixes
        if n == 0:
            return Interval(0.0, 1.0, "split-normal", confidence)
        if self.events(metric) == 0:
            hi = clopper_pearson_interval(0, n, confidence).hi
            return Interval(0.0, hi, "split-clopper-pearson", confidence)
        mean, second = self._moments(metric)
        variance = second - mean * mean
        if n > 1:  # unbiased sample variance
            variance = variance * Fraction(n, n - 1)
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        half = z * sqrt(max(0.0, float(variance)) / n)
        centre = float(mean)
        return Interval(
            max(0.0, centre - half),
            min(1.0, centre + half),
            "split-normal",
            confidence,
        )

    def describe(self, metric: str = "silent", confidence: float = 0.95) -> str:
        interval = self.interval(metric, confidence)
        return (
            f"{metric} rate {self.rate(metric):.3e} "
            f"{interval.format()} @{confidence:.0%} "
            f"({self.events(metric)} branch events over {self.prefixes} "
            f"prefixes, {self.branches} continuations)"
        )


class _SplittingEstimator:
    """The body both family estimators share.

    A subclass is a dataclass declaring only its fields, its
    :class:`~repro.orchestrate.corruption.CodeFamily` as ``family``,
    its worker recipe as ``spec_class`` and ``_engine(backend)``;
    ``run`` streams the plan exactly like the plain simulators, in
    process or across a pool.  The branch fan is inherently batched;
    ``backend`` still selects the decode engine, and because every
    engine classifies identically the tally is byte-identical across
    them.
    """

    def run(
        self,
        trials: int = 10_000,
        seed: int = 2022,
        *,
        jobs: int = 1,
        chunk_size: int | None = None,
        progress: ProgressCallback | None = None,
    ) -> SplitResult:
        if chunk_size is None:
            chunk_size = min(trials, DEFAULT_SPLIT_CHUNK_SIZE) or 1
        chunks = plan_chunks(trials, chunk_size)
        key = derive_key(seed)
        if jobs > 1:
            spec = self._task_spec()
            tasks = [ChunkTask(0, spec, chunk, key) for chunk in chunks]
            folded = run_sharded(tasks, jobs, progress)
            return folded.get(0, SplitTally()).freeze()
        tally = SplitTally()
        for done, chunk in enumerate(chunks, start=1):
            tally.merge(self.run_chunk(chunk, key))
            if progress is not None:
                progress(done, len(chunks))
        return tally.freeze()

    def run_chunk(self, chunk, key: int) -> SplitTally:
        """Generate one prefix chunk, branch it, decode and tally.

        For each held-out symbol index: gather its rows, expand every
        row into the full ``2^w`` value fan, decode, and count silent /
        miscorrected continuations per prefix — masking out each row's
        original-value branch, which belongs to the ``k-1``-error
        prefix, not the stream.
        """
        family, code = self.family, self.code
        words, last = split_chunk(family, code, chunk, key, self.k_symbols)
        engine = self._engine(self.backend)
        view = family.batch_view(code, words)
        tally = SplitTally()
        for index, width in enumerate(view.widths):
            rows = np.flatnonzero(last == index)
            if rows.size == 0:
                continue
            space = 1 << width
            originals = view.read(rows, index)
            branches = np.repeat(words[rows], space, axis=0)
            values = np.tile(np.arange(space, dtype=np.uint64), rows.size)
            family.batch_view(code, branches).write(slice(None), index, values)
            statuses = np.asarray(
                engine.decode_batch(branches).statuses
            ).reshape(rows.size, space)
            valid = values.reshape(rows.size, space) != originals[:, None]
            silent = ((statuses == STATUS_CLEAN) & valid).sum(axis=1)
            miscorrected = ((statuses == STATUS_CORRECTED) & valid).sum(axis=1)
            tally.record(
                width,
                prefixes=int(rows.size),
                silent=int(silent.sum()),
                silent_sq=int((silent.astype(np.int64) ** 2).sum()),
                miscorrected=int(miscorrected.sum()),
                miscorrected_sq=int((miscorrected.astype(np.int64) ** 2).sum()),
            )
        return tally

    def _task_spec(self):
        return task_spec(self, self.spec_class)


@dataclass(frozen=True)
class MuseSplitSpec:
    """Rebuild a :class:`MuseSplittingEstimator` inside a worker."""

    code: CodeRef
    k_symbols: int = 2
    ripple_check: bool = True
    backend: str = "auto"

    def build(self) -> "MuseSplittingEstimator":
        return MuseSplittingEstimator(
            self.code.build(), self.k_symbols, self.ripple_check, self.backend
        )


@dataclass(frozen=True)
class RsSplitSpec:
    """Rebuild an :class:`RsSplittingEstimator` inside a worker."""

    code: CodeRef
    k_symbols: int = 2
    device_bits: int | None = 4
    backend: str = "auto"

    def build(self) -> "RsSplittingEstimator":
        return RsSplittingEstimator(
            self.code.build(), self.k_symbols, self.device_bits, self.backend
        )


@dataclass
class MuseSplittingEstimator(_SplittingEstimator):
    """Importance-splitting rate estimator for a MUSE code."""

    code: object
    k_symbols: int = 2
    ripple_check: bool = True
    backend: str = "auto"
    code_ref: CodeRef | str | None = None

    family = MUSE
    spec_class = MuseSplitSpec

    def _engine(self, backend: str):
        return get_engine(self.code, backend, ripple_check=self.ripple_check)


@dataclass
class RsSplittingEstimator(_SplittingEstimator):
    """Importance-splitting rate estimator for an RS code."""

    code: object
    k_symbols: int = 2
    device_bits: int | None = 4
    backend: str = "auto"
    code_ref: CodeRef | str | None = None

    family = RS
    spec_class = RsSplitSpec

    def _engine(self, backend: str):
        from repro.rs.engine import get_rs_engine

        return get_rs_engine(self.code, backend, device_bits=self.device_bits)


def splitting_estimator(simulator) -> "_SplittingEstimator | None":
    """The splitting twin of a plain simulator, or None for a family
    without one: the estimator of the simulator's ``family``, built
    from the simulator's own same-named fields — code, ``k_symbols``,
    decode policy, backend and ``code_ref``."""
    family = getattr(simulator, "family", None)
    for estimator in (MuseSplittingEstimator, RsSplittingEstimator):
        if estimator.family is family:
            return estimator(
                **{f.name: getattr(simulator, f.name) for f in fields(estimator)}
            )
    return None
