"""Tests for MSED outcome accounting."""

import pytest

from repro.reliability.metrics import DesignPoint, MsedResult, MsedTally, TableIV


class TestTally:
    def test_counters_accumulate(self):
        tally = MsedTally()
        tally.record_detected_no_match()
        tally.record_detected_no_match()
        tally.record_detected_confinement()
        tally.record_miscorrected()
        tally.record_silent()
        result = tally.freeze()
        assert result.trials == 5
        assert result.detected == 3
        assert result.miscorrected == 1
        assert result.silent == 1

    def test_rates(self):
        result = MsedResult(
            trials=200,
            detected_no_match=150,
            detected_confinement=30,
            miscorrected=15,
            silent=5,
        )
        assert result.msed_rate == 0.9
        assert result.msed_percent == 90.0
        assert result.miscorrection_rate == 0.075
        assert result.silent_rate == 0.025

    def test_merge_folds_all_buckets(self):
        left = MsedTally()
        left.record_counts(detected_no_match=5, miscorrected=2, silent=1)
        right = MsedTally()
        right.record_counts(detected_confinement=3, silent=4)
        returned = left.merge(right)
        assert returned is left  # chains
        assert left.freeze() == MsedResult(
            trials=15,
            detected_no_match=5,
            detected_confinement=3,
            miscorrected=2,
            silent=5,
        )
        assert right.trials == 7  # the folded-in tally is untouched

    def test_merge_is_associative_and_commutative(self):
        def tally(no_match, confinement, mis, silent):
            t = MsedTally()
            t.record_counts(
                detected_no_match=no_match,
                detected_confinement=confinement,
                miscorrected=mis,
                silent=silent,
            )
            return t

        parts = [(1, 2, 3, 4), (5, 0, 1, 0), (0, 7, 0, 2)]
        forward = MsedTally()
        for part in parts:
            forward += tally(*part)
        backward = MsedTally()
        for part in reversed(parts):
            backward.merge(tally(*part))
        assert forward.freeze() == backward.freeze()

    def test_merge_accepts_frozen_results(self):
        tally = MsedTally()
        tally.merge(MsedResult(10, 5, 2, 2, 1))
        assert tally.trials == 10
        assert tally.detected_no_match == 5

    def test_empty_result_has_zero_rates(self):
        result = MsedTally().freeze()
        assert result.msed_rate == 0.0
        assert result.miscorrection_rate == 0.0

    def test_describe_mentions_all_buckets(self):
        result = MsedResult(10, 5, 2, 2, 1)
        text = result.describe()
        assert "70.00%" in text
        assert "miscorrected 2" in text

    def test_describe_deprecates_bare_rates(self):
        """Regression: every described rate carries its interval — the
        'rate [lo, hi] @ 95%' format, never a bare point estimate."""
        text = MsedResult(200, 150, 30, 15, 5).describe()
        assert "[" in text and "]" in text
        assert "@95%" in text

    def test_named_metrics_and_failure_rate(self):
        result = MsedResult(200, 150, 30, 15, 5)
        assert result.failure_rate == 0.1
        assert result.rate("failure") == 0.1
        assert result.count("silent") == 5
        assert result.count("miscorrection") == 15
        assert result.rate("msed") == result.msed_rate
        with pytest.raises(ValueError, match="metric"):
            result.rate("typo")

    def test_interval_shrinks_with_trials_and_brackets_rate(self):
        small = MsedResult(100, 90, 0, 8, 2)
        large = MsedResult(10_000, 9_000, 0, 800, 200)
        for metric in ("msed", "failure", "silent"):
            s = small.interval(metric=metric)
            l = large.interval(metric=metric)
            assert s.contains(small.rate(metric))
            assert l.contains(large.rate(metric))
            assert l.width < s.width

    def test_zero_trials_interval_is_vacuous(self):
        interval = MsedTally().freeze().interval()
        assert (interval.lo, interval.hi) == (0.0, 1.0)


class TestTableIV:
    def _point(self, family, extra, msed_trials=(100, 90)):
        trials, detected = msed_trials
        result = MsedResult(trials, detected, 0, trials - detected, 0)
        return DesignPoint(
            family=family,
            extra_bits=extra,
            label=f"{family}-{extra}",
            chipkill=family == "MUSE",
            result=result,
        )

    def test_row_selection(self):
        table = TableIV()
        table.add(self._point("MUSE", 0))
        table.add(self._point("RS", 0))
        table.add(self._point("MUSE", 1))
        assert set(table.row("MUSE")) == {0, 1}
        assert set(table.row("RS")) == {0}

    def test_render_marks_non_chipkill(self):
        table = TableIV()
        table.add(self._point("RS", 4))
        text = table.render()
        assert "*" in text
        assert "ChipKill" in text

    def test_render_shows_missing_cells(self):
        table = TableIV()
        table.add(self._point("MUSE", 0))
        text = table.render()
        assert "-" in text  # RS row has no entry at column 0
