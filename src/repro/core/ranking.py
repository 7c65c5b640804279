"""The three ranking strategies compared in Table 1 (Section 3.3).

Table 1 contrasts, for MOSS without redundancy elimination:

(a) sort descending by ``F(P)`` -- favours super-bug-style predicates that
    appear in many failing *and* many successful runs (big white band);
(b) sort descending by ``Increase(P)`` -- favours deterministic sub-bug
    predictors with tiny failure counts (all-red thermometers, small F);
(c) sort descending by the harmonic-mean ``Importance`` -- balances both.

Each strategy operates on predicates that survive the ``Increase(P) > 0``
discard, as in the paper ("after predicates where Increase(P) = 0 are
discarded" for strategy (a)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.importance import ImportanceScores, importance_scores
from repro.core.measures import DEFAULT_MEASURE, Measure, get as get_measure
from repro.core.predicates import Predicate
from repro.core.reports import ReportSet
from repro.core.scores import DEFAULT_CONFIDENCE, PredicateScores, ScoreRow, compute_scores


class RankingStrategy(enum.Enum):
    """Which score orders the predicate list."""

    BY_FAILURE_COUNT = "F(P)"
    BY_INCREASE = "Increase(P)"
    BY_IMPORTANCE = "harmonic mean"


@dataclass(frozen=True)
class RankedPredicate:
    """One row of a ranked predicate table (mirrors Table 1's columns)."""

    rank: int
    predicate: Predicate
    row: ScoreRow
    importance: float
    sort_key: float


@dataclass
class RankingResult:
    """A full ranking under one strategy."""

    strategy: RankingStrategy
    entries: List[RankedPredicate]
    scores: PredicateScores
    importance: ImportanceScores

    def __len__(self) -> int:
        return len(self.entries)


def _ranked_entries(table, scores, imp, key, mask, top) -> List[RankedPredicate]:
    """The ``mask`` predicates by descending ``key``, cut to ``top``.

    The stable sort keeps equal-key predicates in ascending index order.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must be >= 0 or None, got {top}")
    ranked = np.flatnonzero(mask)
    ranked = ranked[np.argsort(-key[ranked], kind="stable")][:top]
    return [
        RankedPredicate(
            rank=rank,
            predicate=table.predicates[int(idx)],
            row=scores.row(int(idx)),
            importance=float(imp.importance[idx]),
            sort_key=float(key[idx]),
        )
        for rank, idx in enumerate(ranked, start=1)
    ]


def rank_predicates(
    reports: ReportSet,
    strategy: RankingStrategy,
    candidates: Optional[np.ndarray] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    top: Optional[int] = None,
    scores: Optional[PredicateScores] = None,
) -> RankingResult:
    """Rank candidate predicates under one of the Table 1 strategies.

    Args:
        reports: Feedback-report population.
        strategy: Which sort key to use.
        candidates: Boolean candidate mask (default: predicates whose
            ``Increase`` is positive and defined, matching the paper's
            "after predicates where Increase(P)=0 are discarded").
        confidence: Confidence level for intervals.
        top: Optional truncation of the returned list (``0`` returns no
            entries; a negative value raises ``ValueError``).
        scores: Optional precomputed scores for this population.

    Returns:
        A :class:`RankingResult` with rows in decreasing key order.
    """
    if scores is None:
        scores = compute_scores(reports, confidence=confidence)
    return rank_from_scores(
        reports.table, scores, strategy, candidates=candidates, top=top
    )


def rank_from_scores(
    table,
    scores: PredicateScores,
    strategy: RankingStrategy,
    candidates: Optional[np.ndarray] = None,
    top: Optional[int] = None,
) -> RankingResult:
    """Rank precomputed scores without any run-level data.

    The scores may come from anywhere that produces a
    :class:`~repro.core.scores.PredicateScores` -- a materialised
    population, incrementally accumulated shard statistics
    (``SufficientStats.to_scores``), or the analysis engine -- so a
    store can be ranked without reconstructing a single run.

    Ties in the sort key resolve in predicate-index order: the stable
    descending argsort keeps equal-key predicates in their original
    (ascending-index) positions.  Predicates with a non-finite key are
    left out.

    Args:
        table: The :class:`~repro.core.predicates.PredicateTable` the
            score rows refer to.
        scores: Scores for every predicate in ``table``.
        strategy: Which sort key to use.
        candidates: Boolean candidate mask (default: ``Increase`` positive
            and defined, as in :func:`rank_predicates`).
        top: Optional truncation of the returned list (``0`` returns no
            entries; a negative value raises ``ValueError``).
    """
    imp = importance_scores(scores)

    if candidates is None:
        candidates = scores.defined & (scores.increase > 0.0)
    else:
        candidates = np.asarray(candidates, dtype=bool)

    if strategy is RankingStrategy.BY_FAILURE_COUNT:
        key = scores.F.astype(np.float64)
    elif strategy is RankingStrategy.BY_INCREASE:
        key = scores.increase
    else:
        key = imp.importance

    entries = _ranked_entries(
        table, scores, imp, key, candidates & np.isfinite(key), top
    )
    return RankingResult(strategy=strategy, entries=entries, scores=scores, importance=imp)


@dataclass
class MeasureRanking:
    """A full-table ranking under one registered suspiciousness measure.

    Unlike the Table 1 strategies, the default candidate set is *every*
    predicate: the bake-off harness grades measures on how early they
    surface a faulty site in the complete list, and gating candidates on
    ``Increase > 0`` would bias the comparison toward the paper's own
    measures.  Pass ``candidates`` to restrict (the CLI passes the
    pruning survivors).
    """

    measure: Measure
    entries: List[RankedPredicate]
    scores: PredicateScores
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.entries)


def rank_by_measure(
    table,
    scores: PredicateScores,
    measure: str = DEFAULT_MEASURE,
    candidates: Optional[np.ndarray] = None,
    top: Optional[int] = None,
    values: Optional[np.ndarray] = None,
) -> MeasureRanking:
    """Rank predicates by any registered suspiciousness measure.

    Same deterministic order as :func:`rank_from_scores`: stable
    descending argsort on the measure values, ties resolving in
    predicate-index order.  For ``measure="importance"`` with the
    paper's candidate mask this reproduces the historical
    ``BY_IMPORTANCE`` ranking bit-identically, because the registry
    entry delegates to :func:`repro.core.importance.importance_scores`.

    Args:
        table: The :class:`~repro.core.predicates.PredicateTable`.
        scores: Scores for every predicate in ``table``.
        measure: Registered measure name (:mod:`repro.core.measures`).
        candidates: Optional boolean mask restricting the ranking;
            default ranks the whole table.
        top: Optional truncation of the returned list (``0`` returns no
            entries; a negative value raises ``ValueError``).
        values: Optional precomputed values of ``measure`` over
            ``scores`` (e.g. ``EngineScoring.measure_values``); computed
            here when omitted.
    """
    m = get_measure(measure)
    if values is None:
        values = m.values(scores)
    else:
        values = np.asarray(values, dtype=np.float64)
    if candidates is None:
        candidates = np.ones(scores.n_predicates, dtype=bool)
    imp = importance_scores(scores)
    entries = _ranked_entries(
        table, scores, imp, values, np.asarray(candidates, dtype=bool), top
    )
    return MeasureRanking(measure=m, entries=entries, scores=scores, values=values)
