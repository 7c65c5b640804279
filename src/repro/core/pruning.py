"""The ``Increase(P) > 0`` pruning filter (Section 3.1).

"Nearly all predicates (often 98% or 99%) are not predictive of anything.
These non-predictors are best identified and discarded as quickly as
possible."  The paper retains a predicate only if the 95% confidence
interval of its ``Increase`` score lies strictly above zero, which both
discards irrelevant predicates (unreachable ones, program invariants,
predicates control-dependent on a true cause) and removes high-``Increase``
predicates supported by too few observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scores import PredicateScores, z_test_pvalues
from repro.obs import enabled as _obs_enabled, gauge as _obs_gauge, timer as _obs_timer


@dataclass
class PruningResult:
    """Outcome of the pruning pass.

    Attributes:
        kept: Boolean mask over predicates that survive.
        scores: The :class:`PredicateScores` the decision was based on.
        n_initial: Number of predicates before pruning.
        n_kept: Number of survivors.
    """

    kept: np.ndarray
    scores: PredicateScores

    @property
    def n_initial(self) -> int:
        """Number of predicates considered."""
        return int(self.kept.shape[0])

    @property
    def n_kept(self) -> int:
        """Number of predicates retained."""
        return int(self.kept.sum())

    @property
    def kept_indices(self) -> np.ndarray:
        """Dense indices of the surviving predicates."""
        return np.flatnonzero(self.kept)

    @property
    def reduction(self) -> float:
        """Fraction of predicates discarded (the paper reports ~0.99)."""
        if self.n_initial == 0:
            return 0.0
        return 1.0 - self.n_kept / self.n_initial


def prune_predicates(scores: PredicateScores, method: str = "interval") -> PruningResult:
    """Keep predicates whose ``Increase`` is credibly positive.

    Two equivalent-in-spirit filters are provided:

    * ``"interval"`` (the paper's): keep ``P`` when the two-sided
      ``scores.confidence`` interval of ``Increase(P)`` lies strictly above 0;
    * ``"ztest"`` (the Section 3.2 reading): keep ``P`` when the
      one-sided two-proportion test rejects ``H0: pf = ps`` in favour of
      ``H1: pf > ps`` at level ``alpha = 1 - scores.confidence``.

    Section 3.2 shows ``Increase(P) > 0  <=>  pf(P) > ps(P)``, so the two
    filters agree on direction and differ only in how they weigh sample
    size.

    The filter is a pure function of the scores, so shard stores prune
    from streamed statistics without materialising any matrix.

    Args:
        scores: Scores of the population (their ``confidence`` sets the
            level; the paper's is 0.95).
        method: ``"interval"`` or ``"ztest"``.

    Returns:
        A :class:`PruningResult`.
    """
    with _obs_timer("analysis.prune"):
        if method == "interval":
            positive = scores.increase_lo > 0.0
        elif method == "ztest":
            # p < alpha <=> z > critical for defined rows; undefined rows
            # carry p = 1.0, so they can never pass the filter even
            # without the explicit `defined` mask below.
            pvalues = z_test_pvalues(scores)
            positive = (pvalues < 1.0 - scores.confidence) & (scores.increase > 0.0)
        else:
            raise ValueError(f"unknown pruning method {method!r}")
        kept = scores.defined & positive
    result = PruningResult(kept=np.asarray(kept, dtype=bool), scores=scores)
    if _obs_enabled():
        _obs_gauge("analysis.pruning_initial", float(result.n_initial))
        _obs_gauge("analysis.pruning_kept", float(result.n_kept))
    return result
