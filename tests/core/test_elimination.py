"""Tests for iterative redundancy elimination, including Lemma 3.1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.elimination import DiscardStrategy, eliminate
from repro.core.reports import ReportSet
from repro.core.scores import compute_scores

from tests.helpers import make_reports


def _two_bug_population(n=30):
    """Two disjoint bugs with dedicated predictors plus one redundant
    shadow of predictor 0."""
    runs = []
    for i in range(n):
        runs.append((True, {0, 2}, None))  # bug A: P0 and its shadow P2
    for i in range(n // 3):
        runs.append((True, {1}, None))  # bug B (rarer): P1
    for i in range(2 * n):
        runs.append((False, set(), None))
    return make_reports(3, runs)


class TestBasicElimination:
    def test_selects_one_predictor_per_bug(self):
        reports = _two_bug_population()
        result = eliminate(reports)
        names = [p.name for p in result.predicates]
        # P0 (or its shadow) first, P1 eventually; the shadow must not
        # be selected as an additional "bug".
        assert names[0] in ("P0", "P2")
        assert "P1" in names
        assert len(result) == 2

    def test_redundant_predicate_deflated_after_selection(self):
        reports = _two_bug_population()
        result = eliminate(reports)
        first = result.selected[0]
        # The shadow's failing runs vanish with P0's, so it is never
        # selected; the second selection covers bug B.
        second = result.selected[1]
        assert second.predicate.name == "P1"
        assert second.effective.num_failing < first.effective.num_failing

    def test_initial_vs_effective_stats(self):
        reports = _two_bug_population()
        result = eliminate(reports)
        second = result.selected[1]
        # Initial stats were computed over the full population.
        assert second.initial.num_failing > second.effective.num_failing

    def test_max_predictors_caps_output(self):
        reports = _two_bug_population()
        result = eliminate(reports, max_predictors=1)
        assert len(result) == 1

    def test_candidate_mask_restricts_selection(self):
        reports = _two_bug_population()
        mask = np.array([False, True, True])
        result = eliminate(reports, candidates=mask)
        assert all(p.name != "P0" for p in result.predicates)

    def test_mismatched_candidate_mask_rejected(self):
        reports = _two_bug_population()
        with pytest.raises(ValueError):
            eliminate(reports, candidates=np.array([True]))

    def test_partial_set_needs_every_candidate_loaded(self):
        """On a partial set (only some predicate columns loaded) every
        candidate must be loaded; over the loaded ones the selections
        equal the whole population's."""
        whole = _two_bug_population()
        loaded = np.array([True, True, False])
        partial = ReportSet(
            whole.table, whole.failed, whole.site_counts, whole.true_counts,
            whole.stacks, whole.seeds, columns=loaded,
        )
        with pytest.raises(ValueError, match="predicate 2 is not loaded"):
            eliminate(partial)
        assert eliminate(partial, candidates=loaded) == eliminate(
            whole, candidates=loaded
        )

    def test_all_failures_covered_leaves_none_remaining(self):
        reports = _two_bug_population()
        result = eliminate(reports)
        assert result.remaining_failing == 0


class TestDiscardStrategies:
    def _population(self):
        # One bug; P0 true in all its failures and some successes.
        runs = [(True, {0}, None)] * 12 + [(False, {0}, None)] * 4
        runs += [(False, set(), None)] * 20
        return make_reports(1, runs)

    def test_strategy1_discards_all_true_runs(self):
        result = eliminate(self._population(), strategy=DiscardStrategy.DISCARD_ALL)
        assert result.selected[0].runs_discarded == 16

    def test_strategy2_discards_only_failing_runs(self):
        result = eliminate(
            self._population(), strategy=DiscardStrategy.DISCARD_FAILING
        )
        assert result.selected[0].runs_discarded == 12

    def test_strategy3_relabels_instead_of_discarding(self):
        result = eliminate(self._population(), strategy=DiscardStrategy.RELABEL)
        assert result.selected[0].runs_discarded == 0
        assert result.selected[0].failing_runs_covered == 12

    def test_strategy3_leaves_the_population_untouched(self):
        """RELABEL works on the loop's own label mask: the caller's
        report set keeps its labels and counts."""
        reports = self._population()
        failed = reports.failed.copy()
        eliminate(reports, strategy=DiscardStrategy.RELABEL)
        assert reports.num_failing == 12
        np.testing.assert_array_equal(reports.failed, failed)

    @pytest.mark.parametrize(
        "strategy",
        [DiscardStrategy.DISCARD_ALL, DiscardStrategy.DISCARD_FAILING, DiscardStrategy.RELABEL],
    )
    def test_all_strategies_terminate_and_cover(self, strategy):
        reports = _two_bug_population()
        result = eliminate(reports, strategy=strategy)
        names = [p.name for p in result.predicates]
        assert names and names[0] in ("P0", "P2")
        assert "P1" in names


class TestComplementTheorem:
    def test_complement_increase_nonnegative_after_selection(self):
        """Section 5: once P is selected (strategy 1), Increase(~P) is
        non-negative if defined.  Build P and ~P explicitly."""
        # P true in bug-A failures; ~P true in every other observed run.
        runs = []
        for _ in range(20):
            runs.append((True, {0}, {0, 1}))
        for _ in range(10):
            runs.append((True, {1}, {0, 1}))  # bug B runs: ~P true
        for _ in range(40):
            runs.append((False, {1}, {0, 1}))
        reports = make_reports(2, runs)
        before = compute_scores(reports)
        # ~P (P1) is anti-correlated with failure before selection.
        assert before.increase[1] < 0
        result = eliminate(reports, max_predictors=1)
        assert result.predicates[0].name == "P0"
        remaining = ~reports.true_mask(0)
        after = compute_scores(reports, run_mask=remaining)
        if after.defined[1]:
            assert after.increase[1] >= -1e-12


class TestLemma31:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_intersecting_bug_gets_a_predictor(self, data):
        """Lemma 3.1: if a bug's profile intersects the predicated runs,
        some selected predicate predicts at least one of its failures."""
        n_preds = data.draw(st.integers(1, 4))
        n_bugs = data.draw(st.integers(1, 3))
        n_fail = data.draw(st.integers(1, 12))
        n_succ = data.draw(st.integers(0, 12))

        bug_of_run = [
            data.draw(st.integers(0, n_bugs - 1)) for _ in range(n_fail)
        ]
        true_sets = []
        for _ in range(n_fail):
            true_sets.append(
                data.draw(st.sets(st.integers(0, n_preds - 1), max_size=n_preds))
            )
        runs = [(True, ts, None) for ts in true_sets]
        runs += [
            (
                False,
                data.draw(st.sets(st.integers(0, n_preds - 1), max_size=1)),
                None,
            )
            for _ in range(n_succ)
        ]
        reports = make_reports(n_preds, runs)
        result = eliminate(reports, min_importance=-1.0)

        selected = [p.index for p in result.predicates]
        covered_runs = set()
        for p in selected:
            covered_runs.update(reports.runs_where_true(p).tolist())

        # Z = union of predicated runs over ALL predicates.
        all_predicated = set()
        for p in range(n_preds):
            all_predicated.update(reports.runs_where_true(p).tolist())

        for bug in range(n_bugs):
            profile = {i for i, b in enumerate(bug_of_run) if b == bug}
            if profile & all_predicated:
                assert profile & covered_runs, (
                    f"bug {bug} intersects predicated runs but got no predictor"
                )


class TestTieDeterminism:
    """Regression: equal-Importance candidates select in predicate-index
    order.  ``np.argmax`` takes the first maximum, so the choice is a
    pure function of the scores -- never of dict ordering, working-copy
    layout, or worker count (the parallel side is pinned by
    ``tests/core/test_engine_differential.py``)."""

    def _tied_population(self):
        # P1 and P3 are perfectly correlated (identical run patterns),
        # hence exactly tied on Importance; P0/P2 are noise.
        runs = [
            (True, {1, 3}, None),
            (True, {1, 3}, None),
            (True, {1, 3, 0}, None),
            (True, {2}, None),
            (False, {0}, None),
            (False, {2}, None),
            (False, set(), None),
            (False, set(), None),
        ] * 5
        return make_reports(4, runs)

    def test_lowest_index_wins_the_tie(self):
        reports = self._tied_population()
        scores = compute_scores(reports)
        from repro.core.importance import importance_scores

        imp = importance_scores(scores).importance
        assert imp[1] == imp[3]  # the tie is real
        result = eliminate(reports, max_predictors=2)
        assert result.selected[0].predicate.index == 1

    def test_tie_break_stable_across_strategies(self):
        reports = self._tied_population()
        for strategy in DiscardStrategy:
            result = eliminate(reports, strategy=strategy, max_predictors=2)
            assert result.selected[0].predicate.index == 1

    def test_repeated_runs_identical(self):
        reports = self._tied_population()
        first = eliminate(reports, max_predictors=4)
        second = eliminate(reports, max_predictors=4)
        assert [s.predicate.index for s in first.selected] == [
            s.predicate.index for s in second.selected
        ]
