"""Tests for ``rank``, driven by the three Table 1 sort keys."""

import numpy as np
import pytest

from repro.core.importance import importance_scores
from repro.core.ranking import rank
from repro.core.scores import compute_scores

from tests.helpers import make_reports

#: Table 1's three sort keys: (a) F(P), (b) Increase(P), (c) Importance.
TABLE1_KEYS = {
    "F": lambda scores: scores.F.astype(np.float64),
    "Increase": lambda scores: scores.increase,
    "Importance": lambda scores: importance_scores(scores).importance,
}


def table1_rank(reports, key, candidates=None, top=None):
    """Rank ``reports`` by one Table 1 key.  Candidates default to
    Table 1's: predicates whose Increase is defined and positive."""
    scores = compute_scores(reports)
    if candidates is None:
        candidates = scores.defined & (scores.increase > 0.0)
    return rank(
        reports.table, scores, TABLE1_KEYS[key](scores), candidates, top=top
    )


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
        ranking = table1_rank(_table1_population(), "F")
        assert ranking[0].predicate.name == "P0"
        assert ranking[0].row.S > 100  # huge white band

    def test_sort_by_increase_prefers_deterministic_sub_bug(self):
        ranking = table1_rank(_table1_population(), "Increase")
        assert ranking[0].predicate.name == "P1"
        assert ranking[0].row.F <= 5  # tiny failure coverage

    def test_harmonic_mean_balances_both(self):
        ranking = table1_rank(_table1_population(), "Importance")
        assert ranking[0].predicate.name == "P2"

    def test_default_candidates_require_positive_increase(self):
        # A pure invariant predicate (true everywhere) never appears.
        runs = [(True, {0}, None)] * 10 + [(False, {0}, None)] * 10
        assert table1_rank(make_reports(1, runs), "F") == []

    def test_explicit_candidates_and_top(self):
        mask = np.array([True, True, False])
        ranking = table1_rank(
            _table1_population(), "Importance", candidates=mask, top=1
        )
        assert len(ranking) == 1
        assert ranking[0].predicate.name != "P2"

    def test_ranks_are_sequential(self):
        ranking = table1_rank(_table1_population(), "Importance")
        assert [e.rank for e in ranking] == list(range(1, len(ranking) + 1))


class TestTop:
    """``top`` truncates the ranking."""

    @staticmethod
    def _rank(top):
        return table1_rank(_table1_population(), "Importance", top=top)

    def test_top_truncates(self):
        full = self._rank(None)
        assert len(full) >= 2
        assert self._rank(1) == full[:1]
        assert self._rank(len(full) + 5) == full

    def test_top_zero_returns_no_entries(self):
        assert self._rank(0) == []

    def test_negative_top_rejected(self):
        with pytest.raises(ValueError, match="top"):
            self._rank(-1)
