"""Unit tests for the suspiciousness-measure table in
``repro/core/measures.py``:

* the table lists exactly the catalogue, each row versioned with a
  formula;
* unknown names raise :class:`UnknownMeasureError` everywhere a name can
  enter (lookup, engine);
* ``Measure.values`` enforces shape and finiteness;
* the default ``importance`` entry is bit-identical to the historical
  :func:`repro.core.importance.importance_scores` pipeline.

The Hypothesis properties (determinism, partition invariance,
monotonicity in ``F``, and the exact-order oracle) live in
``test_measure_oracle.py``, so this file runs without Hypothesis.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import measures
from repro.core.importance import importance_scores
from repro.core.measures import Measure, UnknownMeasureError
from repro.core.ranking import rank
from repro.core.scores import SufficientStats


def _scores(F, S, F_obs, S_obs, num_f, num_s):
    return SufficientStats(
        np.asarray(F, dtype=np.int64),
        np.asarray(S, dtype=np.int64),
        np.asarray(F_obs, dtype=np.int64),
        np.asarray(S_obs, dtype=np.int64),
        num_f,
        num_s,
    ).to_scores()


class TestRegistry:
    def test_catalogue_is_large_enough(self):
        names = measures.available()
        assert measures.DEFAULT_MEASURE in names
        assert names == tuple(sorted((
            "importance",
            "increase",
            "tarantula",
            "ochiai",
            "jaccard",
            "dstar2",
            "causal-hybrid",
        )))

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

    def test_values_validates_shape_and_finiteness(self):
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
