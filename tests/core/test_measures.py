"""Unit and property tests for the suspiciousness-measure registry.

Registry invariants (the contract in ``repro/core/measures/registry.py``):

* unknown names raise :class:`UnknownMeasureError` everywhere a name can
  enter (registry, engine);
* every measure is deterministic -- same statistics, same bits;
* every measure is finite, correctly shaped, and elementwise (checked by
  comparing partitioned evaluation against whole-table evaluation);
* the default ``importance`` entry is bit-identical to the historical
  :func:`repro.core.importance.importance_scores` pipeline;
* measures that guarantee monotonicity in ``F`` (holding everything
  else fixed) actually honour it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import measures
from repro.core.importance import importance_scores
from repro.core.measures import UnknownMeasureError
from repro.core.ranking import rank
from repro.core.scores import SufficientStats

#: Measures whose value is non-decreasing in ``F`` with ``S``,
#: ``F_obs``, ``S_obs`` and the totals held fixed.
MONOTONE_IN_F = ("tarantula", "ochiai", "jaccard", "dstar2", "f1", "increase")


def _scores(F, S, F_obs, S_obs, num_f, num_s):
    return SufficientStats(
        np.asarray(F, dtype=np.int64),
        np.asarray(S, dtype=np.int64),
        np.asarray(F_obs, dtype=np.int64),
        np.asarray(S_obs, dtype=np.int64),
        num_f,
        num_s,
    ).to_scores()


@st.composite
def count_populations(draw):
    """Consistent sufficient statistics: F <= F_obs <= NumF, same for S."""
    num_f = draw(st.integers(min_value=1, max_value=40))
    num_s = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=8))
    F_obs = draw(
        st.lists(st.integers(0, num_f), min_size=n, max_size=n)
    )
    S_obs = draw(
        st.lists(st.integers(0, num_s), min_size=n, max_size=n)
    )
    F = [draw(st.integers(0, fo)) for fo in F_obs]
    S = [draw(st.integers(0, so)) for so in S_obs]
    return F, S, F_obs, S_obs, num_f, num_s


class TestRegistry:
    def test_catalogue_is_large_enough(self):
        names = measures.available()
        assert len(names) >= 6
        assert measures.DEFAULT_MEASURE in names
        for required in (
            "importance",
            "increase",
            "tarantula",
            "ochiai",
            "jaccard",
            "dstar2",
            "f1",
            "causal-hybrid",
        ):
            assert required in names

    def test_measures_are_versioned_with_formulas(self):
        for name in measures.available():
            m = measures.get(name)
            assert m.name == name
            assert m.version >= 1
            assert m.formula

    def test_unknown_name_raises_listing_choices(self):
        with pytest.raises(UnknownMeasureError, match="tarantula"):
            measures.get("no-such-measure")
        with pytest.raises(UnknownMeasureError):
            measures.measure_values(
                _scores([1], [0], [1], [1], 2, 2), "no-such-measure"
            )

    def test_unknown_name_rejected_by_engine_before_forking(self):
        from repro.core.engine import AnalysisEngine

        stats = SufficientStats.zeros(3)
        stats.num_failing = 1
        stats.num_successful = 1
        with pytest.raises(UnknownMeasureError):
            AnalysisEngine().score_stats(stats, measure="bogus")

    def test_lookup_is_case_and_whitespace_insensitive(self):
        assert measures.get(" Importance ").name == "importance"

    def test_reregistration_is_an_error(self):
        with pytest.raises(ValueError, match="already registered"):
            measures.register("importance")(lambda s: s.increase)

    def test_values_validates_shape_and_finiteness(self):
        from repro.core.measures.registry import Measure

        sc = _scores([1, 2], [0, 1], [1, 2], [1, 2], 3, 3)
        bad_shape = Measure("bad-shape", 1, "x", lambda s: np.zeros(5))
        with pytest.raises(ValueError, match="shape"):
            bad_shape.values(sc)
        bad_nan = Measure("bad-nan", 1, "x", lambda s: np.full(2, np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            bad_nan.values(sc)


class TestDefaultMeasureIdentity:
    def test_importance_measure_is_bitwise_importance_scores(self):
        sc = _scores(
            [5, 0, 3, 1, 7], [1, 2, 0, 1, 7], [6, 4, 3, 2, 9], [5, 6, 2, 3, 9], 12, 15
        )
        want = importance_scores(sc).importance
        got = measures.measure_values(sc, "importance")
        assert got.tobytes() == want.tobytes()

    def test_increase_measure_is_bitwise_scores_increase(self):
        sc = _scores([5, 0, 3], [1, 2, 0], [6, 4, 3], [5, 6, 2], 8, 10)
        got = measures.measure_values(sc, "increase")
        assert got.tobytes() == np.asarray(sc.increase, dtype=np.float64).tobytes()


@pytest.mark.property
class TestMeasureProperties:
    @settings(max_examples=60, deadline=None)
    @given(pop=count_populations())
    def test_deterministic_finite_and_shaped(self, pop):
        F, S, F_obs, S_obs, num_f, num_s = pop
        sc = _scores(F, S, F_obs, S_obs, num_f, num_s)
        for name in measures.available():
            a = measures.measure_values(sc, name)
            b = measures.measure_values(sc, name)
            assert a.shape == (len(F),)
            assert np.all(np.isfinite(a))
            assert a.tobytes() == b.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(pop=count_populations())
    def test_elementwise_partition_invariance(self, pop):
        """Scoring any prefix/suffix split concatenates to the full table."""
        F, S, F_obs, S_obs, num_f, num_s = pop
        n = len(F)
        cut = n // 2
        whole = _scores(F, S, F_obs, S_obs, num_f, num_s)
        left = _scores(F[:cut], S[:cut], F_obs[:cut], S_obs[:cut], num_f, num_s)
        right = _scores(F[cut:], S[cut:], F_obs[cut:], S_obs[cut:], num_f, num_s)
        for name in measures.available():
            full = measures.measure_values(whole, name)
            parts = np.concatenate(
                [
                    measures.measure_values(left, name) if cut else np.empty(0),
                    measures.measure_values(right, name),
                ]
            )
            assert full.tobytes() == parts.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(pop=count_populations(), data=st.data())
    def test_monotone_measures_non_decreasing_in_F(self, pop, data):
        F, S, F_obs, S_obs, num_f, num_s = pop
        idx = data.draw(st.integers(0, len(F) - 1))
        if F[idx] >= F_obs[idx]:
            return  # cannot raise F without breaking F <= F_obs
        bumped = list(F)
        bumped[idx] += 1
        base = _scores(F, S, F_obs, S_obs, num_f, num_s)
        more = _scores(bumped, S, F_obs, S_obs, num_f, num_s)
        for name in MONOTONE_IN_F:
            lo = measures.measure_values(base, name)[idx]
            hi = measures.measure_values(more, name)[idx]
            assert hi >= lo, f"{name}: F {F[idx]}->{bumped[idx]} gave {lo}->{hi}"


class TestMeasureRanking:
    def test_rank_by_measure_default_covers_whole_table(self):
        from repro.instrument.tracer import instrument_source

        prog = instrument_source(
            "def f(x):\n    if x > 0:\n        return 1\n    return 0\n", "tiny"
        )
        n = len(prog.table.predicates)
        sc = _scores([3, 0, 2][:n] + [1] * max(0, n - 3),
                     [0, 1, 1][:n] + [1] * max(0, n - 3),
                     [3] * n, [2] * n, 4, 4)
        ranking = rank(prog.table, sc, measures.measure_values(sc, "jaccard"))
        assert len(ranking) == n
        assert [e.rank for e in ranking] == list(range(1, n + 1))
        values = [e.sort_key for e in ranking]
        assert values == sorted(values, reverse=True)

    def test_importance_ranking_matches_historical_strategy(self, request):
        """rank() by the ``importance`` measure on the paper's candidate
        mask == rank() by Table 1's Importance key, entry for entry."""
        experiment = request.getfixturevalue("ccrypt_experiment")
        sc = SufficientStats.from_reports(experiment.reports).to_scores()
        table = experiment.reports.table
        candidates = sc.defined & (sc.increase > 0.0)
        measured = rank(
            table, sc, measures.measure_values(sc, "importance"), candidates
        )
        table1 = rank(table, sc, importance_scores(sc).importance, candidates)
        assert measured == table1
