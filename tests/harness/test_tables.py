"""Tests for the paper-style table renderers."""

from repro.baselines.stacktrace import stack_study
from repro.core.elimination import eliminate
from repro.core.importance import importance_scores
from repro.core.ranking import rank
from repro.core.runs_needed import RunsNeededResult
from repro.core.scores import compute_scores
from repro.core.truth import GroundTruth, cooccurrence_table
from repro.harness.tables import (
    format_logistic_table,
    format_predictor_table,
    format_ranking_table,
    format_runs_needed_table,
    format_stack_table,
    format_summary_table,
)

from tests.helpers import make_reports


def _population():
    runs = [(True, {0}, None)] * 12 + [(False, {1}, None)] * 12
    runs += [(True, {1}, None)] * 2 + [(False, set(), None)] * 10
    return make_reports(2, runs)


def _importance_ranking(reports):
    scores = compute_scores(reports)
    return rank(reports.table, scores, importance_scores(scores).importance)


class TestRankingTable:
    def test_contains_predicates_and_counts(self):
        reports = _population()
        ranking = _importance_ranking(reports)
        text = format_ranking_table(ranking, "test", "harmonic mean", top=5)
        assert "P0" in text
        assert "Context" in text
        assert "[" in text  # thermometer bars

    def test_one_line_per_entry_in_rank_order(self):
        reports = _population()
        ranking = _importance_ranking(reports)
        lines = format_ranking_table(ranking, "test", "harmonic mean", top=5).splitlines()
        rows = lines[2 : 2 + len(ranking)]
        assert [row.split()[-1] for row in rows] == [e.predicate.name for e in ranking]

    def test_truncation_note(self):
        reports = _population()
        ranking = _importance_ranking(reports)
        text = format_ranking_table(ranking, "test", "harmonic mean", top=1)
        if len(ranking) > 1:
            assert "additional predicates follow" in text


class TestSummaryTable:
    def test_one_row_per_subject(self):
        rows = [
            {
                "subject": "moss",
                "lines_of_code": 343,
                "successful_runs": 400,
                "failing_runs": 100,
                "sites": 1400,
                "initial_predicates": 8000,
                "after_increase_pruning": 90,
                "after_elimination": 9,
            }
        ]
        text = format_summary_table(rows)
        assert "moss" in text
        assert "8000" in text


class TestPredictorTable:
    def test_cooccurrence_columns(self):
        reports = _population()
        truth = GroundTruth(bug_ids=["bugA", "bugB"])
        for i in range(reports.n_runs):
            if reports.failed[i]:
                truth.add_run(["bugA"] if reports.true_mask(0)[i] else ["bugB"])
            else:
                truth.add_run([])
        result = eliminate(reports)
        co = cooccurrence_table(
            reports, truth, [s.predicate.index for s in result.selected]
        )
        text = format_predictor_table(result, co, bug_ids=["bugA", "bugB"])
        assert "P0" in text
        assert "12" in text  # bugA count under P0

    def test_renders_without_truth(self):
        reports = _population()
        result = eliminate(reports)
        text = format_predictor_table(result)
        assert "predicate" in text


class TestOtherTables:
    def test_runs_needed_table(self):
        res = RunsNeededResult(
            predicate_index=0,
            runs_needed=500,
            failing_true_at_n=18,
            importance_full=0.7,
            threshold=0.2,
            curve=[(500, 0.6, 18)],
        )
        text = format_runs_needed_table({"moss": {"moss1": res}})
        assert "moss1" in text and "500" in text and "18" in text

    def test_logistic_table(self):
        reports = _population()
        pred = reports.table.predicates[0]
        text = format_logistic_table([(pred, 0.77)])
        assert "0.77" in text and "P0" in text

    def test_stack_table(self):
        reports = make_reports(
            1,
            [(True, set(), None), (False, set(), None)],
            stacks=[("main", "f", "Boom"), None],
        )
        truth = GroundTruth(bug_ids=["a"])
        truth.add_run(["a"])
        truth.add_run([])
        text = format_stack_table(stack_study(reports, truth))
        assert "a" in text
        assert "100%" in text
