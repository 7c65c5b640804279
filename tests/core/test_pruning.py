"""Tests for the Increase > 0 confidence-interval pruning."""

import pytest

from repro.core.pruning import prune_predicates
from repro.core.scores import compute_scores

from tests.helpers import make_reports


def _balanced_population(n_each=40):
    """P0 = strong predictor; P1 = invariant (always true); P2 = never
    observed; P3 = weak/noisy; half the runs fail."""
    runs = []
    for i in range(n_each):
        # failing runs: P0 true, P1 true, P3 true on every 4th
        runs.append((True, {0, 1} | ({3} if i % 4 == 0 else set()), {0, 1, 3}))
        # successful runs: P1 true, P3 true on every 4th
        runs.append((False, {1} | ({3} if i % 4 == 1 else set()), {0, 1, 3}))
    return make_reports(4, runs)


class TestPruning:
    def test_keeps_true_predictor_drops_invariant(self):
        reports = _balanced_population()
        result = prune_predicates(compute_scores(reports))
        assert result.kept[0]  # the real predictor
        assert not result.kept[1]  # program invariant: Increase = 0
        assert not result.kept[2]  # never observed: undefined
        assert 0 in result.kept_indices

    def test_low_confidence_predicates_are_pruned(self):
        """A predicate true in one failing run has a high Increase but a
        wide interval; the CI filter must reject it."""
        runs = [(True, {0}, {0, 1})]
        runs += [(False, set(), {0, 1}) for _ in range(4)]
        runs += [(True, set(), {0, 1}) for _ in range(2)]
        reports = make_reports(2, runs)
        result = prune_predicates(compute_scores(reports))
        scores = result.scores
        assert scores.increase[0] > 0.5  # looks impressive...
        assert not result.kept[0]  # ...but is statistically unsupported

    def test_reduction_statistics(self):
        reports = _balanced_population()
        result = prune_predicates(compute_scores(reports))
        assert result.n_initial == 4
        assert result.n_kept == int(result.kept.sum())
        assert result.reduction == pytest.approx(1 - result.n_kept / 4)

    def test_accepts_precomputed_scores(self):
        reports = _balanced_population()
        scores = compute_scores(reports)
        result = prune_predicates(scores)
        assert result.scores is scores

    def test_empty_population(self):
        reports = make_reports(3, [])
        result = prune_predicates(compute_scores(reports))
        assert result.n_kept == 0
        assert result.reduction >= 0.0


class TestZTestMethod:
    def test_ztest_agrees_on_strong_predictors(self):
        reports = _balanced_population()
        interval = prune_predicates(compute_scores(reports), method="interval")
        ztest = prune_predicates(compute_scores(reports), method="ztest")
        assert ztest.kept[0] and interval.kept[0]
        assert not ztest.kept[1] and not interval.kept[1]

    def test_ztest_rejects_single_observation(self):
        runs = [(True, {0}, {0, 1})]
        runs += [(False, set(), {0, 1}) for _ in range(4)]
        runs += [(True, set(), {0, 1}) for _ in range(2)]
        reports = make_reports(2, runs)
        result = prune_predicates(compute_scores(reports), method="ztest")
        assert not result.kept[0]

    def test_ztest_never_keeps_negative_increase(self):
        # A predicate anti-correlated with failure.
        runs = [(False, {0}, None)] * 20 + [(True, set(), None)] * 10
        reports = make_reports(1, runs)
        result = prune_predicates(compute_scores(reports), method="ztest")
        assert not result.kept[0]

    def test_unknown_method_rejected(self):
        reports = _balanced_population()
        import pytest as _pytest

        with _pytest.raises(ValueError):
            prune_predicates(compute_scores(reports), method="bogus")
