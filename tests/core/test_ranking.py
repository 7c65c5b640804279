"""Tests for the three Table 1 ranking strategies."""

import numpy as np
import pytest

from repro.core.ranking import (
    RankingStrategy,
    rank_by_measure,
    rank_from_scores,
    rank_predicates,
)
from repro.core.scores import compute_scores

from tests.helpers import make_reports


def _table1_population():
    """Reconstruct the Table 1 situation:

    * P0: super-bug-style -- true in MANY failing runs but also many
      successful runs (small Increase, huge F);
    * P1: sub-bug-style -- deterministic (Increase ~ 1) but tiny F;
    * P2: the balanced predictor -- large F and high Increase.
    """
    runs = []
    for _ in range(80):
        runs.append((True, {0, 2}, None))
    for _ in range(5):
        runs.append((True, {0, 1}, None))
    for _ in range(120):
        runs.append((False, {0}, None))
    for _ in range(100):
        runs.append((False, set(), None))
    return make_reports(3, runs)


class TestStrategies:
    def test_sort_by_f_prefers_super_bug_predictor(self):
        reports = _table1_population()
        result = rank_predicates(reports, RankingStrategy.BY_FAILURE_COUNT)
        assert result.entries[0].predicate.name == "P0"
        assert result.entries[0].row.S > 100  # huge white band

    def test_sort_by_increase_prefers_deterministic_sub_bug(self):
        reports = _table1_population()
        result = rank_predicates(reports, RankingStrategy.BY_INCREASE)
        assert result.entries[0].predicate.name == "P1"
        assert result.entries[0].row.F <= 5  # tiny failure coverage

    def test_harmonic_mean_balances_both(self):
        reports = _table1_population()
        result = rank_predicates(reports, RankingStrategy.BY_IMPORTANCE)
        assert result.entries[0].predicate.name == "P2"

    def test_default_candidates_require_positive_increase(self):
        # A pure invariant predicate (true everywhere) never appears.
        runs = [(True, {0}, None)] * 10 + [(False, {0}, None)] * 10
        reports = make_reports(1, runs)
        result = rank_predicates(reports, RankingStrategy.BY_FAILURE_COUNT)
        assert len(result.entries) == 0

    def test_explicit_candidates_and_top(self):
        reports = _table1_population()
        mask = np.array([True, True, False])
        result = rank_predicates(
            reports, RankingStrategy.BY_IMPORTANCE, candidates=mask, top=1
        )
        assert len(result.entries) == 1
        assert result.entries[0].predicate.name != "P2"

    def test_ranks_are_sequential(self):
        reports = _table1_population()
        result = rank_predicates(reports, RankingStrategy.BY_IMPORTANCE)
        assert [e.rank for e in result.entries] == list(
            range(1, len(result.entries) + 1)
        )


class TestTop:
    """``top`` truncates every ranking function the same way."""

    @staticmethod
    def _rankers():
        reports = _table1_population()
        scores = compute_scores(reports)
        strategy = RankingStrategy.BY_IMPORTANCE
        return [
            lambda top: rank_predicates(reports, strategy, top=top),
            lambda top: rank_from_scores(reports.table, scores, strategy, top=top),
            lambda top: rank_by_measure(reports.table, scores, top=top),
        ]

    def test_top_truncates(self):
        for rank in self._rankers():
            full = rank(None).entries
            assert len(full) >= 2
            assert rank(1).entries == full[:1]
            assert rank(len(full) + 5).entries == full

    def test_top_zero_returns_no_entries(self):
        for rank in self._rankers():
            assert rank(0).entries == []

    def test_negative_top_rejected(self):
        for rank in self._rankers():
            with pytest.raises(ValueError, match="top"):
                rank(-1)
