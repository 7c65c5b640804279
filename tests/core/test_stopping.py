"""CI-based early stopping (`repro.core.stopping`).

The daemon's ``converged`` flag must be a pure, monotone function of the
committed counts: equal counts give equal verdicts, and collecting more
of the same evidence can never un-converge a subject.  These tests pin
the thresholds, the candidate ranking, and the scale-monotonicity the
Hypothesis suite (tests/serve/test_steering_properties.py) then explores
at random.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stopping import (
    StoppingPolicy,
    assess_stats,
)
from repro.core.scores import SufficientStats

from tests.helpers import make_reports


def stats_from(n_predicates, runs):
    return SufficientStats.from_reports(make_reports(n_predicates, runs))


def scale(stats: SufficientStats, m: int) -> SufficientStats:
    """The 'm identical copies of every run' population."""
    return SufficientStats(
        F=stats.F * m,
        S=stats.S * m,
        F_obs=stats.F_obs * m,
        S_obs=stats.S_obs * m,
        num_failing=stats.num_failing * m,
        num_successful=stats.num_successful * m,
    )


def strong_population(fails=40, succ=60):
    """Predicate 0 perfectly predicts failure; 1 is background noise."""
    runs = [(True, {0, 1} if i % 2 else {0}, None) for i in range(fails)]
    runs += [(False, {1} if i % 2 else set(), None) for i in range(succ)]
    return stats_from(3, runs)


class TestThresholds:
    def test_below_min_runs_never_converges(self):
        stats = strong_population(fails=40, succ=60)
        policy = StoppingPolicy(min_runs=101, min_failing=1, epsilon=10.0)
        verdict = assess_stats(stats, policy)
        assert not verdict.converged
        assert "min_runs" in verdict.reason

    def test_below_min_failing_never_converges(self):
        stats = strong_population(fails=5, succ=95)
        policy = StoppingPolicy(min_runs=10, min_failing=10, epsilon=10.0)
        verdict = assess_stats(stats, policy)
        assert not verdict.converged
        assert "min_failing" in verdict.reason

    def test_no_candidates_never_converges(self):
        # All failures, no successes -> Increase undefined/zero everywhere.
        runs = [(True, {0}, None) for _ in range(120)]
        verdict = assess_stats(
            stats_from(2, runs), StoppingPolicy(min_runs=10, min_failing=10)
        )
        assert not verdict.converged
        assert verdict.reason == "no candidate predictors"

    def test_converges_when_intervals_tighten(self):
        small = strong_population(fails=40, succ=60)
        policy = StoppingPolicy(min_runs=50, min_failing=10, epsilon=0.05)
        assert not assess_stats(small, policy).converged
        big = scale(small, 50)
        verdict = assess_stats(big, policy)
        assert verdict.converged
        assert verdict.n_runs == 5000
        assert all(c.half_width <= policy.epsilon for c in verdict.candidates)

    def test_epsilon_is_inclusive(self):
        stats = scale(strong_population(), 50)
        verdict = assess_stats(stats, StoppingPolicy(min_runs=1, min_failing=1))
        widest = max(c.half_width for c in verdict.candidates)
        at = assess_stats(
            stats, StoppingPolicy(min_runs=1, min_failing=1, epsilon=widest)
        )
        below = assess_stats(
            stats,
            StoppingPolicy(min_runs=1, min_failing=1, epsilon=widest * 0.999),
        )
        assert at.converged
        assert not below.converged


class TestRanking:
    def test_candidates_ranked_by_increase_then_index(self):
        # Predicates 0 and 2 are identical perfect predictors (tied
        # Increase); 1 is weaker.  Ranking: 0, 2 (index tie-break), 1.
        runs = [(True, {0, 2} if i % 3 else {0, 1, 2}, None) for i in range(30)]
        runs += [(False, {1} if i < 5 else set(), None) for i in range(70)]
        stats = stats_from(3, runs)
        verdict = assess_stats(
            stats, StoppingPolicy(min_runs=10, min_failing=10, top_k=3)
        )
        assert [c.index for c in verdict.candidates] == [0, 2, 1]
        assert verdict.candidates[0].increase == verdict.candidates[1].increase

    def test_top_k_limits_examined_candidates(self):
        runs = [(True, {0, 1, 2, 3}, None) for _ in range(30)]
        runs += [(False, set(), None) for _ in range(70)]
        stats = stats_from(5, runs)
        verdict = assess_stats(
            stats, StoppingPolicy(min_runs=10, min_failing=10, top_k=2)
        )
        assert len(verdict.candidates) == 2

    def test_negative_increase_excluded(self):
        # Predicate 1 fires only in successes: Increase < 0, not a candidate.
        runs = [(True, {0}, None) for _ in range(30)]
        runs += [(False, {1}, None) for _ in range(70)]
        stats = stats_from(2, runs)
        verdict = assess_stats(stats, StoppingPolicy(min_runs=10, min_failing=10))
        assert [c.index for c in verdict.candidates] == [0]


class TestMonotonicity:
    @pytest.mark.parametrize("m", [2, 3, 10])
    def test_converged_stays_converged_under_scaling(self, m):
        base = scale(strong_population(), 20)
        policy = StoppingPolicy(min_runs=50, min_failing=10, epsilon=0.1)
        assert assess_stats(base, policy).converged
        assert assess_stats(scale(base, m), policy).converged

    def test_half_widths_shrink_under_scaling(self):
        base = strong_population()
        policy = StoppingPolicy(min_runs=10, min_failing=10)
        before = assess_stats(base, policy)
        after = assess_stats(scale(base, 4), policy)
        assert [c.index for c in before.candidates] == [
            c.index for c in after.candidates
        ]
        for b, a in zip(before.candidates, after.candidates):
            assert a.half_width < b.half_width
            assert a.increase == pytest.approx(b.increase)


class TestPurity:
    def test_equal_counts_equal_verdicts(self):
        a = strong_population()
        b = strong_population()
        va, vb = assess_stats(a), assess_stats(b)
        assert va.to_json() == vb.to_json()

    def test_policy_round_trip(self):
        policy = StoppingPolicy(top_k=3, epsilon=0.07, min_runs=42, min_failing=7)
        assert StoppingPolicy.from_json(policy.to_json()) == policy

    def test_assessment_json_is_plain(self):
        verdict = assess_stats(strong_population())
        doc = verdict.to_json()
        assert isinstance(doc["converged"], bool)
        assert isinstance(doc["candidates"], list)
        for entry in doc["candidates"]:
            assert set(entry) == {"index", "increase", "half_width", "importance"}
            assert np.isfinite(entry["half_width"])
