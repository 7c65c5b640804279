"""Tests for Failure/Context/Increase, including the paper's examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scores import compute_scores, z_test_pvalues

from tests.helpers import make_reports


class TestBasicScores:
    def test_failure_counts_only_runs_where_true(self):
        # P0 true in 2 failing + 1 successful run; observed everywhere.
        reports = make_reports(
            1,
            [
                (True, {0}, None),
                (True, {0}, None),
                (False, {0}, None),
                (False, set(), None),
                (True, set(), None),
            ],
        )
        s = compute_scores(reports)
        assert s.F[0] == 2 and s.S[0] == 1
        assert s.failure[0] == pytest.approx(2 / 3)
        assert s.F_obs[0] == 3 and s.S_obs[0] == 2
        assert s.context[0] == pytest.approx(3 / 5)
        assert s.increase[0] == pytest.approx(2 / 3 - 3 / 5)

    def test_unobserved_runs_do_not_affect_failure(self):
        # Same true-pattern, but many unrelated failing runs never
        # observe P0's site: Failure(P) must be unchanged (Section 3.1:
        # "the causes of other independent bugs do not affect
        # Failure(P)").
        base = make_reports(1, [(True, {0}, None), (False, {0}, None)])
        noisy = make_reports(
            1,
            [
                (True, {0}, None),
                (False, {0}, None),
                (True, set(), set()),
                (True, set(), set()),
            ],
        )
        assert compute_scores(base).failure[0] == compute_scores(noisy).failure[0]

    def test_doomed_path_predicate_has_zero_increase(self):
        """The paper's x==0 example: a predicate only checked on a path
        where the program is already doomed has Increase == 0."""
        # Site 0: f == NULL (the real cause), observed in every run.
        # Site 1: x == 0, only observed (and always true) in failing runs.
        reports = make_reports(
            2,
            [
                (True, {0, 1}, {0, 1}),
                (True, {0, 1}, {0, 1}),
                (False, set(), {0}),
                (False, set(), {0}),
                (False, set(), {0}),
            ],
        )
        s = compute_scores(reports)
        # Both have Failure == 1.0 ...
        assert s.failure[0] == 1.0
        assert s.failure[1] == 1.0
        # ... but only the cause has positive Increase.
        assert s.increase[0] > 0.5
        assert s.increase[1] == pytest.approx(0.0)

    def test_deterministic_bug_definition(self):
        reports = make_reports(
            1, [(True, {0}, None), (False, set(), None), (True, set(), None)]
        )
        row = compute_scores(reports).row(0)
        assert row.deterministic  # S(P)=0, F(P)>0
        assert row.failure == 1.0

    def test_undefined_scores_are_flagged_not_nan(self):
        # P0 never observed at all.
        reports = make_reports(1, [(True, set(), set()), (False, set(), set())])
        s = compute_scores(reports)
        assert not s.defined[0]
        assert s.increase[0] == 0.0
        assert np.isfinite(s.increase).all()

    def test_run_mask_restricts_population(self):
        reports = make_reports(
            1,
            [(True, {0}, None), (False, {0}, None), (True, {0}, None)],
        )
        mask = np.array([True, True, False])
        s = compute_scores(reports, run_mask=mask)
        assert s.F[0] == 1 and s.S[0] == 1
        assert s.num_failing == 1


class TestStatistics:
    def test_confidence_interval_narrows_with_more_data(self):
        few = make_reports(
            1, [(True, {0}, None), (False, set(), None)] * 3
        )
        many = make_reports(
            1, [(True, {0}, None), (False, set(), None)] * 60
        )
        se_few = compute_scores(few).increase_se[0]
        se_many = compute_scores(many).increase_se[0]
        assert se_many < se_few

    def test_higher_confidence_widens_interval(self):
        reports = make_reports(1, [(True, {0}, None), (False, set(), None)] * 10)
        lo_90 = compute_scores(reports, confidence=0.90).increase_lo[0]
        lo_99 = compute_scores(reports, confidence=0.99).increase_lo[0]
        assert lo_99 < lo_90

    def test_invalid_confidence_rejected(self):
        reports = make_reports(1, [(True, {0}, None)])
        with pytest.raises(ValueError):
            compute_scores(reports, confidence=1.5)

    def test_z_pvalues_small_for_strong_predictors(self):
        reports = make_reports(
            1,
            [(True, {0}, None)] * 30 + [(False, set(), None)] * 30,
        )
        s = compute_scores(reports)
        p = z_test_pvalues(s)
        assert p[0] < 0.001

    def test_z_pvalue_undefined_rows_never_significant(self):
        """Regression: rows where the z statistic is undefined (a site
        never observed in failing runs, never observed in successful
        runs, or with zero pooled variance) used to get p = 0.5 from the
        placeholder z = 0 -- significant at any alpha > 0.5.  They must
        report p = 1.0 so no filter can keep them."""
        reports = make_reports(
            3,
            [
                # P0: observed only in failing runs -> S_obs == 0.
                (True, {0}, {0}),
                (True, {0}, {0}),
                # P1: observed only in successful runs -> F_obs == 0.
                (False, {1}, {1}),
                # P2: observed in both outcomes, always true -> pooled
                # variance is zero.
                (True, {2}, {2}),
                (False, {2}, {2}),
            ],
        )
        s = compute_scores(reports)
        assert not s.z_defined[:3].any()
        np.testing.assert_array_equal(z_test_pvalues(s)[:3], 1.0)

    def test_ztest_pruning_drops_undefined_rows(self):
        from repro.core.pruning import prune_predicates

        reports = make_reports(
            2,
            # P0 a genuine predictor; P1 seen only in failing runs
            # (undefined z) -- it must not survive the z-test filter.
            [(True, {0, 1}, {0, 1})] * 25 + [(False, set(), {0})] * 25,
        )
        result = prune_predicates(compute_scores(reports), method="ztest")
        assert result.kept[0]
        assert not result.kept[1]

    @settings(max_examples=60, deadline=None)
    @given(
        f_true=st.integers(0, 20),
        f_obs_extra=st.integers(0, 20),
        s_true=st.integers(0, 20),
        s_obs_extra=st.integers(0, 20),
    )
    def test_increase_positive_iff_pf_greater_ps(
        self, f_true, f_obs_extra, s_true, s_obs_extra
    ):
        """Section 3.2's equivalence: Increase(P) > 0 <=> pf(P) > ps(P)."""
        runs = (
            [(True, {0}, None)] * f_true
            + [(True, set(), None)] * f_obs_extra
            + [(False, {0}, None)] * s_true
            + [(False, set(), None)] * s_obs_extra
        )
        if not runs:
            return
        reports = make_reports(1, runs)
        s = compute_scores(reports)
        if not s.defined[0]:
            return
        if s.F_obs[0] == 0 or s.S_obs[0] == 0:
            return
        assert (s.increase[0] > 1e-12) == (s.pf[0] > s.ps[0] + 1e-12)
