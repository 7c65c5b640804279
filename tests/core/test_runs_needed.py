"""Tests for the Table 8 runs-needed methodology."""

from repro.core.runs_needed import (
    default_schedule,
    importance_at_n,
    runs_needed,
    runs_to_isolate,
)

from tests.helpers import make_reports


def _interleaved_population(n=2000, bug_period=10):
    """A steady-state population: every ``bug_period``-th run fails with
    P0 true; everything else succeeds.  Importance_N converges quickly."""
    runs = []
    for i in range(n):
        if i % bug_period == 0:
            runs.append((True, {0}, None))
        else:
            runs.append((False, set(), None))
    return make_reports(1, runs)


class TestSchedule:
    def test_paper_schedule_shape(self):
        sched = default_schedule(25000)
        assert sched[0] == 100
        assert 900 in sched and 1000 in sched
        assert sched[-1] == 25000
        assert all(a < b for a, b in zip(sched, sched[1:]))

    def test_schedule_clamps_to_population(self):
        sched = default_schedule(450)
        assert sched[-1] == 450
        assert all(n <= 450 for n in sched)


class TestRunsNeeded:
    def test_converges_on_steady_population(self):
        reports = _interleaved_population()
        result = runs_needed(reports, 0)
        assert result.runs_needed is not None
        assert result.runs_needed < reports.n_runs
        assert result.failing_true_at_n >= 1
        # The curve records every schedule point.
        assert len(result.curve) == len(default_schedule(reports.n_runs))

    def test_importance_at_n_uses_prefix(self):
        reports = _interleaved_population(n=500)
        imp_100, f_100 = importance_at_n(reports, 0, 100)
        imp_full, f_full = importance_at_n(reports, 0, 500)
        assert f_100 == 10
        assert f_full == 50

    def test_rarer_bug_needs_more_runs(self):
        common = runs_needed(_interleaved_population(bug_period=5), 0)
        rare = runs_needed(_interleaved_population(bug_period=100), 0)
        assert common.runs_needed <= rare.runs_needed

    def test_custom_schedule_and_threshold(self):
        reports = _interleaved_population(n=400)
        result = runs_needed(reports, 0, threshold=0.5, schedule=[50, 400])
        assert result.runs_needed in (50, 400)
        assert result.threshold == 0.5


class TestEdgeCases:
    """Regression pins for the runs-needed corner cases.

    These populations are hand-built so each schedule point's Importance
    gap is known; the assertions pin both the numeric answers and the
    tie rule (FIRST strict crossing, never reset by later oscillation).
    """

    def test_predictor_unobserved_in_first_step(self):
        # The first 100 runs never even observe predicate 0's site, so
        # Importance_100 is 0 with zero failing-true runs -- not an
        # error.  Convergence happens at a later schedule point.
        runs = [(False, set(), {1}) for _ in range(100)]
        runs += [
            (True, {0}, None) if i % 5 == 0 else (False, set(), None)
            for i in range(400)
        ]
        reports = make_reports(2, runs)
        assert importance_at_n(reports, 0, 100) == (0.0, 0)
        result = runs_needed(reports, 0)
        assert result.curve[0] == (100, 0.0, 0)
        assert result.runs_needed == 200

    def test_max_runs_below_first_paper_point(self):
        # Populations smaller than the paper's first schedule point (100)
        # get a single-point schedule: the full population.
        assert default_schedule(50) == [50]
        runs = [
            (True, {0}, None) if i % 5 == 0 else (False, set(), None)
            for i in range(50)
        ]
        result = runs_needed(make_reports(1, runs), 0)
        assert [n for n, _, _ in result.curve] == [50]
        # Importance_50 over the full population IS the full Importance:
        # the gap is exactly 0 < threshold, so it converges trivially.
        assert result.runs_needed == 50

    def _oscillating_population(self):
        """Importance_N oscillates around the 0.2-gap threshold.

        Phases (predicate 0 is the bug predictor, 1 is a foreign bug):
          runs   0..9    1 failing-true + 9 successes  -> imp ~ 0
          runs  10..29   20 failing-true               -> imp high
          runs  30..69   40 foreign failures           -> imp dips
          runs  70..119  50 failing-true               -> recovers
          runs 120..169  50 successes                  -> full imp
        """
        runs = [(True, {0}, None)] + [(False, set(), None)] * 9
        runs += [(True, {0}, None)] * 20
        runs += [(True, {1}, None)] * 40
        runs += [(True, {0}, None)] * 50
        runs += [(False, set(), None)] * 50
        return make_reports(2, runs)

    def test_oscillation_does_not_reset_convergence(self):
        # The gap sequence over the schedule is ~[0.50, 0.04, 0.28, 0.0]:
        # below threshold at N=30, back ABOVE at N=70, below again at the
        # end.  The tie rule says the answer is the FIRST strict
        # crossing -- 30 -- and the later excursion never resets it.
        reports = self._oscillating_population()
        result = runs_needed(reports, 0, threshold=0.2, schedule=[10, 30, 70, 170])
        gaps = [result.importance_full - imp for _, imp, _ in result.curve]
        assert gaps[0] >= 0.2          # not converged at N=10
        assert gaps[1] < 0.2           # first crossing at N=30
        assert gaps[2] >= 0.2          # oscillates back above threshold
        assert result.runs_needed == 30

    def test_gap_equal_to_threshold_does_not_converge(self):
        # The crossing is STRICT: a gap exactly equal to the threshold
        # keeps looking.  Pin it by setting the threshold to a measured
        # gap value.
        reports = self._oscillating_population()
        schedule = [10, 30, 70, 170]
        probe = runs_needed(reports, 0, threshold=0.2, schedule=schedule)
        gap_at_30 = probe.importance_full - probe.curve[1][1]
        exact = runs_needed(reports, 0, threshold=gap_at_30, schedule=schedule)
        assert exact.runs_needed != 30
        above = runs_needed(
            reports, 0, threshold=gap_at_30 * 1.001, schedule=schedule
        )
        assert above.runs_needed == 30


class TestRunsToIsolate:
    def test_max_over_predictors(self):
        # Two interleaved bugs with different rarity: the isolation cost
        # is the rarer predictor's runs_needed.
        runs = []
        for i in range(2000):
            true = set()
            if i % 10 == 0:
                true.add(0)
            if i % 100 == 0:
                true.add(1)
            runs.append((bool(true), true, None))
        reports = make_reports(2, runs)
        per_pred = [runs_needed(reports, i).runs_needed for i in (0, 1)]
        assert runs_to_isolate(reports, [0, 1]) == max(per_pred)

    def test_none_when_any_predictor_unconverged(self):
        # Predicate 1's bug only starts firing after run 150: within a
        # schedule stopping at N=100 its Importance_N is 0 while its
        # full-population importance is not, so isolation as a whole is
        # unconverged even though predicate 0 stabilised long before.
        runs = [
            (True, {0}, None) if i % 10 == 0 else (False, set(), None)
            for i in range(150)
        ]
        runs += [(True, {1}, None)] * 50
        reports = make_reports(2, runs)
        assert (
            runs_needed(reports, 0, threshold=0.2, schedule=[100]).runs_needed
            == 100
        )
        assert (
            runs_to_isolate(reports, [0, 1], threshold=1e-9, schedule=[100])
            is None
        )

    def test_empty_predictor_list(self):
        reports = _interleaved_population(n=200)
        assert runs_to_isolate(reports, []) is None
