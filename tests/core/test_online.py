"""Tests for the on-line failure-prediction monitor (Section 5 extension)."""

import pytest

from repro.core.online import OnlineMonitor, monitor_from_elimination
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source

SOURCE = '''
def main(job):
    size, key, fast = job
    table = list(range(size))
    if fast:
        index = key % 10
    else:
        index = key % size
    return table[index]
'''


@pytest.fixture()
def program():
    return instrument_source(SOURCE, "online-test")


def _fast_true_predicate(program):
    cands = [p for p in program.table.predicates if p.name == "fast is TRUE"]
    assert cands
    return cands[0].index


class TestMonitor:
    def test_alert_fires_when_predictor_turns_true(self, program):
        pred = _fast_true_predicate(program)
        monitor = OnlineMonitor(program.runtime, {pred: 0.9})
        monitor.install()
        try:
            program.begin_run(SamplingPlan.full(), seed=0)
            with pytest.raises(IndexError):
                program.func("main")((5, 7, True))
        finally:
            monitor.uninstall()
        assert monitor.fired
        assert monitor.alerts[0].predicate.index == pred
        assert monitor.alerts[0].importance == 0.9

    def test_alert_precedes_the_crash(self, program):
        """The predictor captures the cause condition, which is observed
        before the failure -- enabling preemptive action."""
        pred = _fast_true_predicate(program)
        events = []
        monitor = OnlineMonitor(
            program.runtime, {pred: 0.9}, on_alert=lambda a: events.append("alert")
        )
        monitor.install()
        try:
            program.begin_run(SamplingPlan.full(), seed=0)
            try:
                program.func("main")((5, 7, True))
            except IndexError:
                events.append("crash")
        finally:
            monitor.uninstall()
        assert events == ["alert", "crash"]

    def test_no_alert_on_healthy_run(self, program):
        pred = _fast_true_predicate(program)
        monitor = OnlineMonitor(program.runtime, {pred: 0.9})
        monitor.install()
        try:
            program.begin_run(SamplingPlan.full(), seed=0)
            assert program.func("main")((5, 7, False)) == 2
        finally:
            monitor.uninstall()
        assert not monitor.fired

    def test_alerts_fire_once_per_predictor(self, program):
        pred = _fast_true_predicate(program)
        monitor = OnlineMonitor(program.runtime, {pred: 0.5})
        monitor.install()
        try:
            program.begin_run(SamplingPlan.full(), seed=0)
            for _ in range(3):
                try:
                    program.func("main")((5, 7, True))
                except IndexError:
                    pass
        finally:
            monitor.uninstall()
        assert len(monitor.alerts) == 1

    def test_reset_clears_state(self, program):
        pred = _fast_true_predicate(program)
        monitor = OnlineMonitor(program.runtime, {pred: 0.5})
        monitor.install()
        try:
            program.begin_run(SamplingPlan.full(), seed=0)
            try:
                program.func("main")((5, 7, True))
            except IndexError:
                pass
            assert monitor.fired
            monitor.reset()
            assert not monitor.fired
        finally:
            monitor.uninstall()

    def test_uninstall_restores_runtime(self, program):
        from repro.instrument.runtime import Runtime

        pred = _fast_true_predicate(program)
        monitor = OnlineMonitor(program.runtime, {pred: 0.5})
        monitor.install()
        assert "branch" in program.runtime.__dict__  # wrapper installed
        monitor.uninstall()
        assert "branch" not in program.runtime.__dict__
        assert program.runtime.branch.__func__ is Runtime.branch

    def test_semantics_unchanged_under_monitoring(self, program):
        pred = _fast_true_predicate(program)
        monitor = OnlineMonitor(program.runtime, {pred: 0.5})
        monitor.install()
        try:
            program.begin_run(SamplingPlan.full(), seed=0)
            assert program.func("main")((12, 25, True)) == 5
        finally:
            monitor.uninstall()


class TestFromElimination:
    def test_builds_watchlist_from_selected(self, program):
        from repro.core.elimination import eliminate
        from repro.core.pruning import prune_predicates
        from repro.core.scores import compute_scores
        from repro.harness.runner import run_trials
        from repro.subjects.base import Subject

        class S(Subject):
            name = "s"
            entry = "main"

            def source(self):
                return SOURCE

            def generate_input(self, rng):
                return (rng.randint(4, 12), rng.randint(0, 100), rng.random() < 0.4)

        reports, _ = run_trials(S(), program, 800, SamplingPlan.full(), seed=0)
        pruning = prune_predicates(compute_scores(reports))
        result = eliminate(reports, candidates=pruning.kept, max_predictors=3)
        monitor = monitor_from_elimination(program.runtime, result, top=2)
        assert len(monitor.watched) == min(2, len(result.selected))
