"""Tests for feedback-report storage."""

import numpy as np
import pytest

from repro.core.reports import ReportSet, RunReport

from tests.helpers import make_reports, make_table, run_pattern


class TestFromRuns:
    def test_counts_roundtrip(self):
        table = make_table(3)
        reports = ReportSet.from_runs(
            table,
            [
                RunReport(7, True, {0: 5, 2: 1}, {0: 2}, stack=("f", "g")),
                RunReport(8, False, {1: 1}, {1: 1}),
            ],
        )
        assert reports.n_runs == 2
        assert reports.seeds.tolist() == [7, 8]
        assert reports.num_failing == 1
        assert reports.site_counts[0, 0] == 5
        assert reports.true_counts[0, 0] == 2
        assert reports.stacks[0] == ("f", "g")
        assert reports.stacks[1] is None

    def test_zero_counts_are_not_stored(self):
        table = make_table(2)
        reports = ReportSet.from_runs(table, [RunReport(0, False, {0: 0}, {1: 0})])
        assert reports.site_counts.nnz == 0
        assert reports.true_counts.nnz == 0

    def test_from_trial_copies_the_trial_tuple(self):
        site_obs, pred_true = {0: 1}, {0: 1}
        trial = (True, site_obs, pred_true, ["f", "g"], ["bugA"])
        run = RunReport.from_trial(4, trial, steering="v1")
        assert run == RunReport(4, True, {0: 1}, {0: 1}, ("f", "g"), ("bugA",), "v1")
        assert run.site_obs is not site_obs and run.pred_true is not pred_true
        assert RunReport.from_trial(4, (False, {}, {}, None, [])).stack is None


class TestPerRunColumns:
    """``stacks`` and ``seeds`` hold exactly one entry per run."""

    def _matrices(self, n_runs):
        from scipy import sparse

        table = make_table(1)
        return (
            table,
            np.zeros(n_runs, dtype=bool),
            sparse.csr_matrix((n_runs, 1), dtype=np.int64),
            sparse.csr_matrix((n_runs, 1), dtype=np.int64),
        )

    def test_misaligned_stacks_are_refused(self):
        with pytest.raises(ValueError, match="1 stacks for a report set of 3 runs"):
            ReportSet(*self._matrices(3), stacks=[("f",)], seeds=[0, 1, 2])

    def test_misaligned_seeds_are_refused(self):
        with pytest.raises(ValueError, match="2 seeds for a report set of 3 runs"):
            ReportSet(*self._matrices(3), stacks=None, seeds=[0, 1])

    def test_subset_and_merge_carry_seeds(self):
        table = make_table(1)
        runs = [RunReport(s, s % 2 == 0, {0: 1}, {}) for s in (10, 11, 12)]
        reports = ReportSet.from_runs(table, runs)
        assert reports.subset(np.array([True, False, True])).seeds.tolist() == [10, 12]
        merged = ReportSet.merge([reports, reports.subset(np.array([False, True, False]))])
        assert merged.seeds.tolist() == [10, 11, 12, 11]
        assert merged.seeds.dtype == np.int64


class TestMasks:
    def test_true_mask_and_runs_where_true_agree(self):
        reports = make_reports(
            2,
            [
                (True, {0}, None),
                (False, {1}, None),
                (True, {0, 1}, None),
            ],
        )
        assert run_pattern(reports, 0) == [0, 2]
        mask = reports.true_mask(0)
        assert mask.tolist() == [True, False, True]

    def test_subset_preserves_alignment(self):
        reports = make_reports(
            2,
            [(True, {0}, None), (False, {1}, None), (True, {1}, None)],
        )
        sub = reports.subset(np.array([True, False, True]))
        assert sub.n_runs == 2
        assert sub.failed.tolist() == [True, True]
        assert run_pattern(sub, 1) == [1]


class TestCoverage:
    def test_site_coverage_sums_observation_counts(self):
        table = make_table(2)
        reports = ReportSet.from_runs(
            table, [RunReport(0, False, {0: 3}), RunReport(1, False, {0: 2, 1: 7})]
        )
        assert reports.site_coverage().tolist() == [5, 7]

    def test_repr_mentions_shape(self):
        reports = make_reports(4, [(False, set(), None)])
        text = repr(reports)
        assert "runs=1" in text
        assert "predicates=4" in text
