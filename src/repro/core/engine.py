"""The serial analysis engine behind ``analyze``.

One pass, one path: stream a store's sufficient statistics shard by
shard (:meth:`ShardStore.sufficient_stats
<repro.store.shards.ShardStore.sufficient_stats>`), score them
(:meth:`SufficientStats.to_scores
<repro.core.scores.SufficientStats.to_scores>`), compute the
z-test p-values, prune (:func:`repro.core.pruning.prune_predicates`),
apply the selected suspiciousness measure, and -- unless only the
statistics are wanted -- run iterative elimination over the columns
pruning kept (:meth:`ShardStore.load_columns
<repro.store.shards.ShardStore.load_columns>`).  Every score is a
function of one predicate's four counts and ``NumF``, so elimination
over the kept columns selects exactly what it would over the whole
population, without reading the other columns.

Every stage after the stream is elementwise numpy over the predicate
table and costs milliseconds, so the engine runs in one process; see
``docs/ALGORITHM.md`` section 9 for the measured fork/IPC cost that
made a process pool slower at every store size this project reaches.

Determinism contract
--------------------

Output is **bit-identical** for every shard layout of the same runs:
the statistics are integer sums, so any split of the runs into shards
reproduces the monolithic counts exactly, and every float downstream
is a function of those counts.  Elimination breaks ties by predicate
index.  ``tests/core/test_engine_differential.py`` enforces the
contract on all five subjects at shard layouts {1, 3, 7}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.elimination import DiscardStrategy, EliminationResult, eliminate
from repro.core.measures import DEFAULT_MEASURE, get as get_measure
from repro.core.pruning import PruningResult, prune_predicates
from repro.core.reports import ReportSet
from repro.core.scores import (
    DEFAULT_CONFIDENCE,
    PredicateScores,
    SufficientStats,
    z_test_pvalues,
)
from repro.core.truth import GroundTruth
from repro.obs import span as _obs_span


@dataclass
class EngineScoring:
    """Scoring-stage output: full-table scores, p-values and pruning.

    ``measure`` is the registry name of the suspiciousness measure this
    pass scored under (``"importance"`` unless a consumer asked
    otherwise) and ``measure_values`` holds its per-predicate values.
    """

    scores: PredicateScores
    pvalues: np.ndarray
    pruning: PruningResult
    measure: str = DEFAULT_MEASURE
    measure_values: Optional[np.ndarray] = None


@dataclass
class EngineAnalysis:
    """One complete ``analyze`` pass through the engine.

    Attributes:
        stats: Population sufficient statistics.
        scores: Full-table :class:`~repro.core.scores.PredicateScores`.
        pvalues: One-sided z-test p-values per predicate.
        pruning: The ``Increase > 0`` filter outcome.
        elimination: Ranked predictors, or ``None`` for stats-only runs.
        reports: The run-level data elimination read, or ``None`` for
            stats-only runs.  For a store, the kept columns of the
            population: a partial set (``reports.columns`` is
            ``pruning.kept``) whose other predicates cannot be read.
        truth: Ground truth when every shard carried it.
        measure: Name of the suspiciousness measure scored under.
        measure_values: Per-predicate values of that measure.
    """

    stats: SufficientStats
    scores: PredicateScores
    pvalues: np.ndarray
    pruning: PruningResult
    elimination: Optional[EliminationResult] = None
    reports: Optional[ReportSet] = None
    truth: Optional[GroundTruth] = None
    measure: str = DEFAULT_MEASURE
    measure_values: Optional[np.ndarray] = None


class AnalysisEngine:
    """Stream, score, prune and eliminate, in the calling process.

    ``jobs`` survives only so existing ``AnalysisEngine(jobs=1)`` calls
    keep working: analysis is serial, and any other value is an error.
    """

    def __init__(self, jobs: int = 1, confidence: float = DEFAULT_CONFIDENCE) -> None:
        if jobs != 1:
            raise ValueError(f"analysis is serial: jobs must be 1, got {jobs}")
        self.confidence = confidence

    # ------------------------------------------------------------------
    # Stage 1: sufficient statistics
    # ------------------------------------------------------------------
    def store_stats(self, store) -> SufficientStats:
        """Stream a shard store's statistics (:meth:`ShardStore.sufficient_stats`)."""
        with _obs_span("engine.stream_stats", shards=store.n_shards):
            return store.sufficient_stats()

    # ------------------------------------------------------------------
    # Stage 2: scores, p-values, pruning and the measure
    # ------------------------------------------------------------------
    def score_stats(
        self,
        stats: SufficientStats,
        method: str = "interval",
        measure: str = DEFAULT_MEASURE,
    ) -> EngineScoring:
        """Score, prune and apply ``measure`` over the whole table.

        ``measure`` names a registered suspiciousness measure
        (:mod:`repro.core.measures`, looked up case- and
        whitespace-insensitively); unknown names raise
        :class:`~repro.core.measures.UnknownMeasureError` before any
        scoring.
        """
        scorer = get_measure(measure)
        scores = stats.to_scores(confidence=self.confidence)
        return EngineScoring(
            scores=scores,
            pvalues=z_test_pvalues(scores),
            pruning=prune_predicates(scores, method=method),
            measure=scorer.name,
            measure_values=scorer.values(scores),
        )

    # ------------------------------------------------------------------
    # Stage 3: end-to-end analyses
    # ------------------------------------------------------------------
    def analyze_store(
        self,
        store,
        method: str = "interval",
        strategy: DiscardStrategy = DiscardStrategy.DISCARD_ALL,
        max_predictors: Optional[int] = None,
        min_importance: float = 0.0,
        stats_only: bool = False,
        measure: str = DEFAULT_MEASURE,
    ) -> EngineAnalysis:
        """Analyse a shard store: stream, score, prune, (then eliminate).

        Pruning needs only the streamed statistics.  Elimination needs
        run-level data (each round discards runs), but only for the
        predicates pruning kept: unless ``stats_only``, the store reads
        just those columns and their sites' (``store.load_columns``)
        and the mask-based elimination loop runs over that partial set.
        Its selections equal elimination over the whole population.

        ``measure`` selects the suspiciousness measure carried on the
        result (and used by consumers to rank statistics); the iterative
        elimination loop itself always follows the paper's Importance,
        per Section 3.3.
        """
        with _obs_span("engine.analyze", store=store.directory):
            stats = self.store_stats(store)
            scoring = self.score_stats(stats, method=method, measure=measure)
            reports = truth = elimination = None
            if not stats_only:
                reports, truth = store.load_columns(scoring.pruning.kept)
                elimination = eliminate(
                    reports,
                    candidates=scoring.pruning.kept,
                    strategy=strategy,
                    confidence=self.confidence,
                    max_predictors=max_predictors,
                    min_importance=min_importance,
                )
            return self._analysis(stats, scoring, elimination, reports, truth)

    def analyze_reports(
        self,
        reports: ReportSet,
        truth: Optional[GroundTruth] = None,
        method: str = "interval",
        strategy: DiscardStrategy = DiscardStrategy.DISCARD_ALL,
        max_predictors: Optional[int] = None,
        min_importance: float = 0.0,
        stats_only: bool = False,
        measure: str = DEFAULT_MEASURE,
    ) -> EngineAnalysis:
        """Analyse an in-memory population (an experiment's reports)
        exactly as :meth:`analyze_store` analyses a store."""
        with _obs_span("engine.analyze", runs=reports.n_runs):
            stats = SufficientStats.from_reports(reports)
            scoring = self.score_stats(stats, method=method, measure=measure)
            elimination = None
            if not stats_only:
                elimination = eliminate(
                    reports,
                    candidates=scoring.pruning.kept,
                    strategy=strategy,
                    confidence=self.confidence,
                    max_predictors=max_predictors,
                    min_importance=min_importance,
                )
            return self._analysis(stats, scoring, elimination, reports, truth)

    @staticmethod
    def _analysis(stats, scoring, elimination, reports, truth) -> EngineAnalysis:
        return EngineAnalysis(
            stats=stats,
            scores=scoring.scores,
            pvalues=scoring.pvalues,
            pruning=scoring.pruning,
            elimination=elimination,
            reports=reports,
            truth=truth,
            measure=scoring.measure,
            measure_values=scoring.measure_values,
        )
