"""Tests for the L1 logistic-regression baseline."""

import numpy as np

from repro.baselines.logistic import l1_logistic_regression

from tests.helpers import make_reports


def _separable_population(n=60):
    """P0 perfectly predicts failure; P1 is pure noise."""
    runs = []
    for i in range(n):
        runs.append((True, {0} | ({1} if i % 2 else set()), None))
        runs.append((False, ({1} if i % 2 else set()), None))
    return make_reports(2, runs)


class TestFitting:
    def test_learns_positive_weight_for_predictor(self):
        reports = _separable_population()
        result = l1_logistic_regression(reports, lam=0.01)
        assert result.weights[0] > 0.5
        assert abs(result.weights[1]) < abs(result.weights[0]) / 4

    def test_l1_penalty_induces_sparsity(self):
        reports = _separable_population()
        light = l1_logistic_regression(reports, lam=0.001)
        heavy = l1_logistic_regression(reports, lam=0.5)
        nnz_light = int((np.abs(light.weights) > 1e-9).sum())
        nnz_heavy = int((np.abs(heavy.weights) > 1e-9).sum())
        assert nnz_heavy <= nnz_light

    def test_candidate_mask_pins_weights(self):
        reports = _separable_population()
        result = l1_logistic_regression(
            reports, lam=0.01, candidates=np.array([False, True])
        )
        assert result.weights[0] == 0.0

    def test_converges_on_easy_problem(self):
        reports = _separable_population()
        result = l1_logistic_regression(reports, lam=0.01, max_iter=2000)
        assert result.converged

    def test_momentum_and_plain_agree_on_sign(self):
        reports = _separable_population()
        fista = l1_logistic_regression(reports, lam=0.01)
        ista = l1_logistic_regression(reports, lam=0.01, use_momentum=False)
        assert np.sign(fista.weights[0]) == np.sign(ista.weights[0]) == 1.0


class TestTable9Behaviour:
    def _multi_bug_population(self):
        """The Table 9 pathology, as it arises under sparse sampling:

        * P0: super-bug predictor -- observed true in EVERY failure of
          both bugs plus a slice of successes ("long command line");
        * P1/P2: the real per-bug predictors, but sampling means each is
          observed true in only ~40% of its bug's failing runs;
        * P3: deterministic sub-bug predictor covering few failures.
        """
        runs = []
        for i in range(40):  # bug A
            true = {0}
            if i % 5 < 2:
                true.add(1)  # sampled in 40% of bug-A failures
            if i < 6:
                true.add(3)
            runs.append((True, true, None))
        for i in range(40):  # bug B
            true = {0}
            if i % 5 < 2:
                true.add(2)
            runs.append((True, true, None))
        for _ in range(30):
            runs.append((False, {0}, None))
        for _ in range(130):
            runs.append((False, set(), None))
        return make_reports(4, runs)

    def test_super_bug_predictor_outranks_bug_predictors(self):
        """The single predicate covering all failures beats the (sampled,
        hence partially observed) per-bug predictors -- the paper's
        critique of penalised logistic regression."""
        reports = self._multi_bug_population()
        result = l1_logistic_regression(reports, lam=0.05, max_iter=4000)
        ranked = result.top_predicates(reports, k=4)
        assert ranked, "model should select something"
        assert ranked[0][0].name == "P0"

    def test_top_predicates_excludes_nonpositive_weights(self):
        reports = self._multi_bug_population()
        result = l1_logistic_regression(reports, lam=0.8, max_iter=500)
        for pred, coef in result.top_predicates(reports, k=10):
            assert coef > 0
