"""Confidence-interval early stopping for cooperative collection.

The paper's Table 8 asks "how many runs are needed?" *offline*, by
re-scoring run prefixes after the fact.  The serving daemon can answer
it *live*: collection for a subject may stop once the top-ranked
predictors' score intervals have tightened past the point where more
runs could move the ranking.  Doric (Landsberg & Barr) formalises this
confidence view of statistical fault localisation; here we keep the
machinery deliberately simple and -- crucially -- **monotone**.

The convergence test is a pure function of one
:class:`~repro.core.scores.SufficientStats` snapshot:

1. restrict to predictors whose ``Increase`` score is defined and
   strictly positive (the Section 3.1 candidate set);
2. rank them by ``Increase`` descending, predicate index ascending --
   both the score and the tie rule are invariant under scaling every
   count by the same factor, unlike the Importance ranking whose
   log-sensitivity term drifts with ``NumF``;
3. converge when the population has at least ``min_runs`` runs and
   ``min_failing`` failures, at least one candidate survives, and every
   one of the ``top_k`` ranked candidates has an ``Increase``
   half-interval no wider than ``epsilon``.

Monotonicity (pinned by the Hypothesis suite in
``tests/serve/test_steering_properties.py``): collecting a superset of
runs with identical per-run counts multiplies every sufficient statistic
by the same integer ``m >= 1``.  ``Increase`` is a ratio of the counts,
so the candidate set and ranking are unchanged; the Laplace-smoothed
proportions move *toward* their unsmoothed values (away from 1/2), so
each variance term -- ``p(1-p)/n`` with ``n`` scaled by ``m`` -- can
only shrink.  Every half-interval therefore narrows, and a converged
snapshot stays converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.ranking import order
from repro.core.scores import CONFIDENCE, CRITICAL_VALUE

#: Default half-interval width (on ``Increase``) below which a top
#: predictor counts as stable.
DEFAULT_EPSILON = 0.1

#: Default number of top-ranked predictors whose intervals must all be
#: stable before a subject converges.
DEFAULT_TOP_K = 5


@dataclass(frozen=True)
class StoppingPolicy:
    """When is a subject's collection allowed to stop?

    Attributes:
        top_k: How many top-ranked candidates must have stable intervals.
        epsilon: Maximum ``Increase`` half-interval width for "stable".
        min_runs: Floor on total runs before convergence is considered.
        min_failing: Floor on failing runs (an all-success population has
            nothing to localise, however tight its intervals).

    The intervals have the paper's fixed level,
    :data:`~repro.core.scores.CONFIDENCE`; :meth:`to_json` writes
    it, so the ``repro-steering/v1`` document names the level it used.
    """

    top_k: int = DEFAULT_TOP_K
    epsilon: float = DEFAULT_EPSILON
    min_runs: int = 100
    min_failing: int = 10

    def to_json(self) -> dict:
        return {
            "top_k": int(self.top_k),
            "epsilon": float(self.epsilon),
            "min_runs": int(self.min_runs),
            "min_failing": int(self.min_failing),
            "confidence": CONFIDENCE,
        }

    @classmethod
    def from_json(cls, spec: dict) -> "StoppingPolicy":
        return cls(
            top_k=int(spec["top_k"]),
            epsilon=float(spec["epsilon"]),
            min_runs=int(spec["min_runs"]),
            min_failing=int(spec["min_failing"]),
        )


@dataclass(frozen=True)
class StoppingCandidate:
    """One top-ranked predictor's interval state at assessment time."""

    index: int
    increase: float
    half_width: float
    importance: float

    def to_json(self) -> dict:
        return {
            "index": int(self.index),
            "increase": float(self.increase),
            "half_width": float(self.half_width),
            "importance": float(self.importance),
        }


@dataclass(frozen=True)
class StoppingAssessment:
    """The convergence verdict over one statistics snapshot.

    Attributes:
        converged: Whether the policy's test passed.
        n_runs / num_failing: Population totals the verdict covers.
        candidates: The ``top_k`` ranked candidates examined (may be
            shorter when fewer survive), widest interval first is *not*
            guaranteed -- order is the ranking order.
        reason: Short human-readable explanation of the verdict.
    """

    converged: bool
    n_runs: int
    num_failing: int
    candidates: List[StoppingCandidate] = field(default_factory=list)
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "converged": bool(self.converged),
            "n_runs": int(self.n_runs),
            "num_failing": int(self.num_failing),
            "reason": self.reason,
            "candidates": [c.to_json() for c in self.candidates],
        }


def assess_stats(stats, policy: StoppingPolicy = StoppingPolicy()) -> StoppingAssessment:
    """Apply ``policy`` to one sufficient-statistics snapshot.

    Pure: equal counts always produce equal assessments, so the daemon's
    ``converged`` flag is a function of the committed store alone (the
    refit-determinism contract of ``GET /steering``).

    Args:
        stats: A :class:`~repro.core.scores.SufficientStats`.
        policy: The stopping thresholds.

    Returns:
        A :class:`StoppingAssessment`.
    """
    from repro.core.importance import importance_scores

    n_runs = int(stats.num_failing + stats.num_successful)
    num_failing = int(stats.num_failing)
    if n_runs < policy.min_runs:
        return StoppingAssessment(
            False, n_runs, num_failing,
            reason=f"{n_runs} runs < min_runs {policy.min_runs}",
        )
    if num_failing < policy.min_failing:
        return StoppingAssessment(
            False, n_runs, num_failing,
            reason=f"{num_failing} failing runs < min_failing {policy.min_failing}",
        )

    scores = stats.to_scores()
    # Rank by Increase descending; ties break toward the lower predicate
    # index.  Both are invariant under uniform count scaling, which is
    # what makes convergence monotone (see the module docstring).
    top = order(
        scores.increase,
        candidates=scores.defined & (scores.increase > 0),
        top=policy.top_k,
    )
    if top.size == 0:
        return StoppingAssessment(
            False, n_runs, num_failing, reason="no candidate predictors"
        )

    imp = importance_scores(scores)
    candidates = [
        StoppingCandidate(
            index=int(i),
            increase=float(scores.increase[i]),
            half_width=float(CRITICAL_VALUE * scores.increase_se[i]),
            importance=float(imp.importance[i]),
        )
        for i in top
    ]
    widest = max(c.half_width for c in candidates)
    converged = widest <= policy.epsilon
    reason = (
        f"top-{len(candidates)} widest Increase half-interval "
        f"{widest:.4f} {'<=' if converged else '>'} epsilon {policy.epsilon}"
    )
    return StoppingAssessment(converged, n_runs, num_failing, candidates, reason)
