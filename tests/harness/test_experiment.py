"""Tests for the end-to-end experiment pipeline configuration."""

import pytest

from repro.core.elimination import DiscardStrategy
from repro.harness.experiment import Experiment, build_plan, run_experiment
from repro.instrument.tracer import instrument_source

from tests.harness.test_runner import TinySubject


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            Experiment(
                subject=TinySubject(),
                n_runs=300,
                sampling="full",
                training_runs=0,
                seed=0,
            )
        )

    def test_summary_fields(self, result):
        summary = result.summary()
        assert summary["subject"] == "tiny"
        assert summary["successful_runs"] + summary["failing_runs"] == 300
        assert summary["sites"] == result.program.table.n_sites
        assert summary["after_elimination"] == len(result.elimination)

    def test_predictor_points_at_negative_input(self, result):
        assert result.elimination.selected
        top = result.elimination.selected[0]
        assert "value < 0" in top.predicate.name
        assert top.effective.row.increase > 0.5

    def test_loc_counts_nonblank_lines(self, result):
        assert 0 < result.lines_of_code < 30

    def test_wall_clock_recorded(self, result):
        assert result.wall_seconds > 0


class TestConfiguration:
    def test_unknown_sampling_rejected(self):
        subject = TinySubject()
        program = instrument_source(subject.source(), "tiny")
        with pytest.raises(ValueError):
            build_plan(subject, program, "bogus")

    def test_closed_loop_is_not_a_sampling_mode(self):
        # The closed loop runs only through the daemon and its clients.
        subject = TinySubject()
        program = instrument_source(subject.source(), "tiny")
        with pytest.raises(ValueError, match="unknown sampling mode 'steered'"):
            build_plan(subject, program, "steered")

    def test_uniform_plan_uses_rate(self):
        subject = TinySubject()
        program = instrument_source(subject.source(), "tiny")
        plan = build_plan(subject, program, "uniform", rate=0.25)
        assert plan.mode == "uniform" and plan.rate == 0.25

    def test_adaptive_plan_trains(self):
        subject = TinySubject()
        program = instrument_source(subject.source(), "tiny")
        plan = build_plan(subject, program, "adaptive", training_runs=20)
        assert plan.mode == "per-site"

    def test_custom_instrumentation_config(self):
        result = run_experiment(
            Experiment(
                subject=TinySubject(), n_runs=50, sampling="full", training_runs=0
            )
        )
        from repro.core.predicates import Scheme

        schemes = {s.scheme for s in result.program.table.sites}
        assert schemes <= {Scheme.BRANCHES, Scheme.RETURNS, Scheme.SCALAR_PAIRS}
        branch_sites = [
            s for s in result.program.table.sites if s.scheme is Scheme.BRANCHES
        ]
        assert branch_sites

    def test_parallel_jobs_match_serial(self):
        serial = run_experiment(
            Experiment(
                subject=TinySubject(), n_runs=200, sampling="full",
                training_runs=0, seed=3,
            )
        )
        parallel = run_experiment(
            Experiment(
                subject=TinySubject(), n_runs=200, sampling="full",
                training_runs=0, seed=3, jobs=2,
            )
        )
        assert parallel.reports.failed.tolist() == serial.reports.failed.tolist()
        assert [p.name for p in parallel.elimination.predicates] == [
            p.name for p in serial.elimination.predicates
        ]

    def test_relabel_strategy_runs(self):
        result = run_experiment(
            Experiment(
                subject=TinySubject(),
                n_runs=150,
                sampling="full",
                training_runs=0,
                strategy=DiscardStrategy.RELABEL,
            )
        )
        assert result.elimination.strategy is DiscardStrategy.RELABEL
        assert result.elimination.selected
