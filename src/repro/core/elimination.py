"""Iterative redundancy elimination (Section 3.4) and its variants (Section 5).

The algorithm simulates how a programmer fixes bugs one at a time:

1. Rank candidate predicates by ``Importance``.
2. Select the top-ranked predicate ``P`` and discard all runs ``R`` where
   ``R(P) = 1`` (simulating "fix the bug P predicts").
3. Repeat until the runs or the candidates are exhausted.

Section 5 considers two alternative discard policies, exposed here as
:class:`DiscardStrategy`:

* ``DISCARD_ALL`` (1, the paper's choice): drop every run with ``R(P)=1``;
* ``DISCARD_FAILING`` (2): drop only failing runs with ``R(P)=1``;
* ``RELABEL`` (3): relabel failing runs with ``R(P)=1`` as successful.

Lemma 3.1: as long as a bug's profile intersects the runs predicated by
the candidate set, the algorithm selects at least one predicate predicting
at least one of that bug's failures.  ``tests/test_elimination.py``
property-checks this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.importance import ImportanceScores, importance_scores
from repro.core.predicates import Predicate
from repro.core.reports import ReportSet
from repro.core.scores import DEFAULT_CONFIDENCE, PredicateScores, ScoreRow, compute_scores
from repro.obs import enabled as _obs_enabled, inc as _obs_inc, span as _obs_span


class DiscardStrategy(enum.Enum):
    """Run-discard policy applied when a predictor is selected (Section 5)."""

    DISCARD_ALL = 1
    DISCARD_FAILING = 2
    RELABEL = 3


@dataclass(frozen=True)
class PredictorStats:
    """A predictor's scores at a particular moment of the elimination.

    ``initial`` stats are measured on the full population; ``effective``
    stats are measured at selection time, after earlier selections have
    discarded runs -- the paper's initial vs. effective thermometers.
    """

    row: ScoreRow
    importance: float
    importance_lo: float
    importance_hi: float
    num_failing: int


@dataclass(frozen=True)
class SelectedPredictor:
    """One entry of the final ranked predictor list.

    Attributes:
        rank: 1-based position in the output list.
        predicate: The selected predicate.
        initial: Scores over the full run population.
        effective: Scores at selection time (cumulative dilution by
            earlier selections).
        runs_discarded: Number of runs removed by this selection.
        failing_runs_covered: Number of *failing* runs this selection
            removed (or relabelled) from the working set.
    """

    rank: int
    predicate: Predicate
    initial: PredictorStats
    effective: PredictorStats
    runs_discarded: int
    failing_runs_covered: int


@dataclass
class EliminationResult:
    """Output of :func:`eliminate`.

    Attributes:
        selected: Ranked predictor list, most important first.
        strategy: The discard strategy used.
        iterations: Number of selection iterations performed.
        remaining_failing: Failing runs never covered by any selection.
    """

    selected: List[SelectedPredictor]
    strategy: DiscardStrategy
    iterations: int
    remaining_failing: int

    @property
    def predicates(self) -> List[Predicate]:
        """The selected predicates in rank order."""
        return [s.predicate for s in self.selected]

    def __len__(self) -> int:
        return len(self.selected)


def _stats_for(
    scores: PredicateScores, imp: ImportanceScores, pred: int
) -> PredictorStats:
    return PredictorStats(
        row=scores.row(pred),
        importance=float(imp.importance[pred]),
        importance_lo=float(imp.lo[pred]),
        importance_hi=float(imp.hi[pred]),
        num_failing=scores.num_failing,
    )


def eliminate(
    reports: ReportSet,
    candidates: Optional[np.ndarray] = None,
    strategy: DiscardStrategy = DiscardStrategy.DISCARD_ALL,
    confidence: float = DEFAULT_CONFIDENCE,
    max_predictors: Optional[int] = None,
    min_importance: float = 0.0,
) -> EliminationResult:
    """Run iterative redundancy elimination over a report population.

    Args:
        reports: Feedback reports (typically already pruned -- pass the
            surviving mask as ``candidates``).
        candidates: Boolean mask of candidate predicates; defaults to all.
        strategy: Discard policy (Section 5); the paper uses
            ``DISCARD_ALL``.
        confidence: Confidence level for score intervals.
        max_predictors: Optional hard cap on the output list length.
        min_importance: Stop when the best remaining effective importance
            does not exceed this threshold (0 reproduces the paper: a
            predicate must have positive importance to be selected).

    Returns:
        An :class:`EliminationResult` with the ranked predictor list.

    Raises:
        ValueError: On a candidate mask of the wrong length, or a
            candidate whose column a partial ``reports`` does not hold.

    Determinism: ties in effective ``Importance`` are broken by predicate
    index (``np.argmax`` returns the first maximum), so the selection
    order is a pure function of the population -- independent of
    candidate-mask construction order and shard layout
    (``tests/core/test_engine_differential.py`` pins this).

    The working state is two persistent boolean bitsets -- run membership
    (``active``) and outcome labels (``failed_work``) -- mutated in place
    each round and fed straight into the masked scoring pass, so a round
    allocates only run- and predicate-length vectors no matter how many
    rounds run (``benchmarks/test_elimination_memory.py`` pins this).
    """
    n_preds = reports.n_predicates
    if candidates is None:
        cand = np.ones(n_preds, dtype=bool)
    else:
        cand = np.asarray(candidates, dtype=bool).copy()
        if cand.shape[0] != n_preds:
            raise ValueError("candidate mask length does not match predicate count")
    reports.require_loaded(cand)

    active = np.ones(reports.n_runs, dtype=bool)
    failed_work = reports.failed.copy()

    with _obs_span("analysis.eliminate", runs=reports.n_runs, predicates=n_preds):
        initial_scores = compute_scores(reports, confidence=confidence)
        initial_imp = importance_scores(initial_scores)

        selected: List[SelectedPredictor] = []
        iterations = 0

        while True:
            if max_predictors is not None and len(selected) >= max_predictors:
                break
            if not cand.any() or not active.any():
                break
            scores = compute_scores(
                reports, run_mask=active, confidence=confidence, failed_mask=failed_work
            )
            if scores.num_failing == 0:
                break
            imp = importance_scores(scores)
            masked = np.where(cand, imp.importance, -np.inf)
            # np.argmax returns the first maximum: equal-importance
            # candidates resolve to the lowest predicate index.
            best = int(np.argmax(masked))
            if not np.isfinite(masked[best]) or masked[best] <= min_importance:
                break

            iterations += 1
            true_mask = reports.true_mask(best) & active
            covered_failing = int((true_mask & failed_work).sum())
            if strategy is DiscardStrategy.DISCARD_ALL:
                discarded = int(true_mask.sum())
            elif strategy is DiscardStrategy.DISCARD_FAILING:
                discarded = covered_failing
            else:
                discarded = 0

            entry = SelectedPredictor(
                rank=len(selected) + 1,
                predicate=reports.table.predicates[best],
                initial=_stats_for(initial_scores, initial_imp, best),
                effective=_stats_for(scores, imp, best),
                runs_discarded=discarded,
                failing_runs_covered=covered_failing,
            )
            selected.append(entry)
            cand[best] = False

            if strategy is DiscardStrategy.DISCARD_ALL:
                active &= ~true_mask
            elif strategy is DiscardStrategy.DISCARD_FAILING:
                active &= ~(true_mask & failed_work)
            else:  # RELABEL
                failed_work &= ~true_mask

    if _obs_enabled():
        _obs_inc("analysis.elimination_iterations", iterations)
    remaining_failing = int((active & failed_work).sum())
    return EliminationResult(
        selected=selected,
        strategy=strategy,
        iterations=iterations,
        remaining_failing=remaining_failing,
    )
