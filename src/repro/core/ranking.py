"""Ranking predicates by per-predicate values (Section 3.3).

The values may be any suspiciousness measure's
(:attr:`EngineScoring.measure_values
<repro.core.engine.EngineScoring.measure_values>`, the paper's
``Importance`` by default) or any other per-predicate key, such as the
``F(P)`` and ``Increase(P)`` orders Table 1 contrasts with the
harmonic mean.  Ranking never looks a measure up; it only orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.predicates import Predicate
from repro.core.scores import PredicateScores, ScoreRow


@dataclass(frozen=True)
class RankedPredicate:
    """One row of a ranked predicate table."""

    rank: int
    predicate: Predicate
    row: ScoreRow
    sort_key: float


def order(
    values: np.ndarray,
    candidates: Optional[np.ndarray] = None,
    top: Optional[int] = None,
) -> np.ndarray:
    """Indices of the ``candidates`` by descending value, cut to ``top``.

    The stable descending argsort keeps equal-value predicates in
    ascending index order, so the order is a pure function of the values.

    Args:
        values: One value per predicate.
        candidates: Optional boolean mask restricting the ranking;
            default ranks every predicate.
        top: Optional truncation (``0`` returns no indices; a negative
            value raises ``ValueError``).
    """
    if top is not None and top < 0:
        raise ValueError(f"top must be >= 0 or None, got {top}")
    values = np.asarray(values, dtype=np.float64)
    if candidates is None:
        ranked = np.arange(values.shape[0])
    else:
        ranked = np.flatnonzero(np.asarray(candidates, dtype=bool))
    return ranked[np.argsort(-values[ranked], kind="stable")][:top]


def rank(
    table,
    scores: PredicateScores,
    values: np.ndarray,
    candidates: Optional[np.ndarray] = None,
    top: Optional[int] = None,
) -> List[RankedPredicate]:
    """Rank predicates by ``values`` (see :func:`order`), one entry each.

    Args:
        table: The :class:`~repro.core.predicates.PredicateTable` the
            score rows refer to.
        scores: Scores for every predicate in ``table``.
        values: The sort key, one value per predicate.
        candidates: Optional boolean mask restricting the ranking.
        top: Optional truncation of the returned list.
    """
    return [
        RankedPredicate(
            rank=position,
            predicate=table.predicates[int(idx)],
            row=scores.row(int(idx)),
            sort_key=float(values[idx]),
        )
        for position, idx in enumerate(order(values, candidates, top), start=1)
    ]
