"""Outcome accounting for the reliability Monte Carlo (Table IV).

Each injected multi-symbol error lands in exactly one bucket:

* ``detected`` — the decoder declared the word uncorrectable (the good
  outcome for an error beyond the correction guarantee); split by which
  detector fired.
* ``miscorrected`` — the decoder "corrected" to the wrong word (the bad
  outcome Table IV's MSED rate penalizes).
* ``silent`` — the corrupted word aliased to a valid codeword
  (remainder / syndrome of zero) and read back as clean.  The paper's
  syndrome-comparison method folds these into "detectable"; we count
  them separately and honestly, and report both rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.reliability.sampling.intervals import Interval
    from repro.reliability.sampling.scheduler import CampaignOutcome


@dataclass
class MsedTally:
    """Mutable counters filled by a Monte-Carlo run."""

    trials: int = 0
    detected_no_match: int = 0
    detected_confinement: int = 0
    miscorrected: int = 0
    silent: int = 0

    def record_detected_no_match(self) -> None:
        self.trials += 1
        self.detected_no_match += 1

    def record_detected_confinement(self) -> None:
        self.trials += 1
        self.detected_confinement += 1

    def record_miscorrected(self) -> None:
        self.trials += 1
        self.miscorrected += 1

    def record_silent(self) -> None:
        self.trials += 1
        self.silent += 1

    def record_counts(
        self,
        *,
        detected_no_match: int = 0,
        detected_confinement: int = 0,
        miscorrected: int = 0,
        silent: int = 0,
    ) -> None:
        """Fold a whole batch of classified outcomes in at once (the
        batch decode engines tally per-status counts, not per-trial)."""
        self.trials += detected_no_match + detected_confinement + miscorrected + silent
        self.detected_no_match += detected_no_match
        self.detected_confinement += detected_confinement
        self.miscorrected += miscorrected
        self.silent += silent

    def merge(self, other: "MsedTally | MsedResult") -> "MsedTally":
        """Fold another tally (or frozen result) into this one.

        Associative and commutative — plain integer addition — so a
        chunked run's tally is a pure fold of its chunk tallies, in any
        order, without ever materialising per-trial arrays.  Returns
        ``self`` for chaining.
        """
        self.trials += other.trials
        self.detected_no_match += other.detected_no_match
        self.detected_confinement += other.detected_confinement
        self.miscorrected += other.miscorrected
        self.silent += other.silent
        return self

    def __iadd__(self, other: "MsedTally | MsedResult") -> "MsedTally":
        return self.merge(other)

    def freeze(self) -> "MsedResult":
        return MsedResult(
            trials=self.trials,
            detected_no_match=self.detected_no_match,
            detected_confinement=self.detected_confinement,
            miscorrected=self.miscorrected,
            silent=self.silent,
        )


@dataclass(frozen=True)
class MsedResult:
    """Immutable summary of one design point's Monte-Carlo run."""

    trials: int
    detected_no_match: int
    detected_confinement: int
    miscorrected: int
    silent: int

    @property
    def detected(self) -> int:
        return self.detected_no_match + self.detected_confinement

    # The named-rate properties all delegate to rate()/:data:`METRICS`
    # so each rate is defined exactly once — the stopping rule
    # (which looks rates up by name) and the reports (which use the
    # properties) can never disagree about what a rate counts.

    @property
    def msed_rate(self) -> float:
        """Fraction of sampled multi-symbol errors that were detected."""
        return self.rate("msed")

    @property
    def miscorrection_rate(self) -> float:
        return self.rate("miscorrection")

    @property
    def silent_rate(self) -> float:
        return self.rate("silent")

    @property
    def failure_rate(self) -> float:
        """Fraction the decoder failed to flag: miscorrected + silent.

        The complement of :attr:`msed_rate` — the rare-event tail the
        adaptive sampler drives its stopping rule on.
        """
        return self.rate("failure")

    @property
    def msed_percent(self) -> float:
        return 100.0 * self.msed_rate

    def count(self, metric: str = "msed") -> int:
        """Event count behind one named rate (see :data:`METRICS`)."""
        try:
            return METRICS[metric](self)
        except KeyError:
            raise ValueError(
                f"unknown metric {metric!r}; choose from {sorted(METRICS)}"
            ) from None

    def rate(self, metric: str = "msed") -> float:
        """One named rate as a bare float (prefer :meth:`interval` for
        anything user-facing — a rate without an error bar hides how
        little a rare-event run actually learned)."""
        if self.trials == 0:
            return 0.0
        return self.count(metric) / self.trials

    def interval(
        self, confidence: float = 0.95, metric: str = "msed"
    ) -> "Interval":
        """Wilson confidence interval on one named rate over this run's
        trials (:mod:`repro.reliability.sampling.intervals`)."""
        # Runtime import: the sampling package imports this module, so
        # a module-level import here would be circular.
        from repro.reliability.sampling.intervals import wilson_interval

        return wilson_interval(self.count(metric), self.trials, confidence)

    def describe(self, confidence: float = 0.95) -> str:
        interval = self.interval(confidence=confidence)
        return (
            f"MSED {self.msed_percent:.2f}% "
            f"{interval.format(scale=100.0)}% @{confidence:.0%} "
            f"over {self.trials} trials "
            f"(miscorrected {self.miscorrected}, silent {self.silent}, "
            f"no-match {self.detected_no_match}, "
            f"confinement {self.detected_confinement})"
        )


#: The named rates a Monte-Carlo run reports: metric -> event count.
METRICS = {
    "msed": lambda r: r.detected,
    "failure": lambda r: r.miscorrected + r.silent,
    "miscorrection": lambda r: r.miscorrected,
    "silent": lambda r: r.silent,
}


@dataclass(frozen=True)
class DesignPoint:
    """One column of Table IV for one code family."""

    family: str  # "MUSE" or "RS"
    extra_bits: int
    label: str
    chipkill: bool
    result: MsedResult | None
    note: str = ""
    #: Set when the point was run adaptively: the campaign's outcome
    #: (convergence flag, rounds, cached trials and the policy the
    #: stopping decision used).
    sampling: "CampaignOutcome | None" = None


@dataclass
class TableIV:
    """The assembled table: family -> extra bits -> design point."""

    points: list[DesignPoint] = field(default_factory=list)

    def add(self, point: DesignPoint) -> None:
        self.points.append(point)

    def row(self, family: str) -> dict[int, DesignPoint]:
        return {p.extra_bits: p for p in self.points if p.family == family}

    def render(self) -> str:
        """Text rendering shaped like the paper's Table IV."""
        columns = sorted({p.extra_bits for p in self.points})
        lines = ["Code  " + "".join(f"{c:>10}" for c in columns)]
        for family in ("RS", "MUSE"):
            row = self.row(family)
            cells = []
            for column in columns:
                point = row.get(column)
                if point is None or point.result is None:
                    cells.append(f"{'-':>10}")
                else:
                    flag = "" if point.chipkill else "*"
                    cells.append(f"{point.result.msed_percent:>9.2f}{flag or ' '}")
            lines.append(f"{family:<6}" + "".join(cells))
        lines.append("(*) code exists but does not guarantee ChipKill")
        return "\n".join(lines)
