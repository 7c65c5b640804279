"""The harmonic-mean ``Importance`` metric (Section 3.3).

``Increase(P)`` measures *specificity* (precision): a high score means
``P`` being true rarely mis-predicts failure.  *Sensitivity* (recall) is
measured on a logarithmic scale as ``log F(P) / log NumF``, which
"moderates the impact of very large numbers of failures".  The paper
combines them with a harmonic mean:

    Importance(P) = 2 / (1/Increase(P) + 1/(log F(P) / log NumF))

and defines the score to be 0 whenever the formula is undefined (any
division by zero).  In particular predicates with non-positive
``Increase``, with ``F(P) = 0``, or with ``F(P) = 1`` (zero log) score 0.

Exact confidence intervals for the harmonic mean do not exist; following
the paper we use the delta method: the harmonic mean is differentiated
with respect to ``Increase`` (the dominant noise term -- the sensitivity
term is a deterministic function of the integer count ``F(P)``), giving

    Var(Importance) ~= (dH/dIncrease)^2 * Var(Increase)
    dH/dIncrease    =  2 * L^2 / (Increase + L)^2,   L = log F / log NumF
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scores import CRITICAL_VALUE, PredicateScores


@dataclass
class ImportanceScores:
    """Per-predicate ``Importance`` values with delta-method intervals.

    Attributes:
        importance: The harmonic-mean score (0 where undefined).
        sensitivity: ``log F(P) / log NumF`` (0 where undefined).
        lo / hi: Delta-method confidence bounds, clipped to ``[0, 1]``.
        se: Delta-method standard error.
    """

    importance: np.ndarray
    sensitivity: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    se: np.ndarray

    @property
    def n_predicates(self) -> int:
        """Number of predicates scored."""
        return int(self.importance.shape[0])


def log_sensitivity(F: np.ndarray, num_failing: int) -> np.ndarray:
    """Return the normalised log-transformed sensitivity term.

    ``log F(P) / log NumF`` with 0 where the ratio is undefined
    (``F(P) == 0``, or ``NumF <= 1`` making the denominator zero).
    """
    F = np.asarray(F, dtype=np.float64)
    if num_failing <= 1:
        return np.zeros_like(F)
    denom = np.log(float(num_failing))
    with np.errstate(divide="ignore"):
        sens = np.where(F > 0, np.log(np.maximum(F, 1e-300)) / denom, 0.0)
    return sens


def harmonic_importance(increase: np.ndarray, sensitivity: np.ndarray) -> np.ndarray:
    """Harmonic mean of specificity and sensitivity, 0 where undefined.

    The formula divides by both terms, so either term being non-positive
    makes the score undefined; the paper defines such scores to be 0.
    """
    increase = np.asarray(increase, dtype=np.float64)
    sensitivity = np.asarray(sensitivity, dtype=np.float64)
    ok = (increase > 0) & (sensitivity > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(ok, 2.0 / (1.0 / np.maximum(increase, 1e-300) + 1.0 / np.maximum(sensitivity, 1e-300)), 0.0)
    return h


def importance_scores(scores: PredicateScores) -> ImportanceScores:
    """Compute ``Importance(P)`` for every predicate.

    ``NumF`` is the scored population's failing count, and the
    delta-method interval has the ``Increase`` interval's level,
    :data:`~repro.core.scores.CONFIDENCE`.
    """
    sens = log_sensitivity(scores.F, scores.num_failing)
    imp = harmonic_importance(scores.increase, sens)

    # Delta method: propagate Var(Increase) through the harmonic mean.
    ok = imp > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.maximum(scores.increase + sens, 1e-300)
        grad = np.where(ok, 2.0 * sens * sens / (denom * denom), 0.0)
    se = grad * scores.increase_se
    lo = np.clip(imp - CRITICAL_VALUE * se, 0.0, 1.0)
    hi = np.clip(imp + CRITICAL_VALUE * se, 0.0, 1.0)
    return ImportanceScores(importance=imp, sensitivity=sens, lo=lo, hi=hi, se=se)
