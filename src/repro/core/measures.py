"""Suspiciousness measures over CBI sufficient statistics.

A *measure* is a named, versioned, pure function from the shared
per-predicate sufficient statistics (:class:`repro.core.scores.PredicateScores`,
itself a function of ``F``, ``S``, ``F_obs``, ``S_obs``, ``NumF``,
``NumS``) to a per-predicate suspiciousness array.  Every row of
:data:`_TABLE` is available everywhere scoring happens: ``analyze
--measure NAME``, :class:`~repro.core.engine.AnalysisEngine`, the
collection daemon's ``GET /scores?measure=NAME``, federated scoring, and
the ``repro-cbi bakeoff`` harness.

Two contracts every measure honours:

* **Elementwise over sufficient statistics.**  The value of predicate
  ``i`` depends only on row ``i`` and the population totals, so measure
  values are a function of the summed counts alone and local, service
  and federated scoring are bit-identical by construction.
* **No NaN / no inf.**  Undefined quantities score ``0.0``, matching
  :mod:`repro.core.scores`; ranking code never needs NaN handling.

The coverage-based measures (Tarantula, Ochiai, Jaccard, D*) read
``ef = F``, ``ep = S`` and ``nf = NumF - F`` as the SBFL literature's
executed-by-failing, executed-by-passing and not-executed-by-failing
counts, with "observed true" standing in for "executed".  Each is one
float64 division of exact int64 count expressions (:func:`_ratio`), so
equal rationals give equal floats while those expressions stay below
2**53, and exact ties fall to the ranking's index tie-break rather than
to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.importance import importance_scores
from repro.core.scores import PredicateScores

#: The measure every consumer uses unless told otherwise: the paper's
#: harmonic-mean Importance (Section 3.3 of Liblit et al., PLDI 2005).
DEFAULT_MEASURE = "importance"


class UnknownMeasureError(ValueError):
    """Raised when a measure name is not in the table."""


@dataclass(frozen=True)
class Measure:
    """A suspiciousness measure.

    Attributes:
        name: Lookup key, e.g. ``"tarantula"``.
        version: Bumped whenever the formula (not just the code) changes,
            so persisted bake-off documents stay comparable.
        formula: One-line human-readable formula, rendered in tables and
            ``docs/MEASURES.md``.
        fn: The scoring callable, ``PredicateScores -> np.ndarray``.
    """

    name: str
    version: int
    formula: str
    fn: Callable[[PredicateScores], np.ndarray] = field(repr=False)

    def values(self, scores: PredicateScores) -> np.ndarray:
        """Score every predicate; validate shape and finiteness.

        Returns a float64 array of length ``scores.n_predicates`` with no
        NaN/inf entries, raising ``ValueError`` if the underlying callable
        violates that contract.
        """
        out = np.asarray(self.fn(scores), dtype=np.float64)
        if out.shape != (scores.n_predicates,):
            raise ValueError(
                f"measure {self.name!r} returned shape {out.shape}, "
                f"expected ({scores.n_predicates},)"
            )
        if not np.all(np.isfinite(out)):
            raise ValueError(f"measure {self.name!r} produced non-finite values")
        return out


def _ratio(num: np.ndarray, den) -> np.ndarray:
    """``num / den`` elementwise in one correctly rounded float64 division;
    ``0.0`` where ``den == 0``."""
    num, den = np.broadcast_arrays(num, den)
    out = np.zeros(num.shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den != 0)
    return out


def _counts(scores: PredicateScores) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """``(F, S, NumF, NumS)`` as int64 arrays and Python ints."""
    return (
        np.asarray(scores.F, dtype=np.int64),
        np.asarray(scores.S, dtype=np.int64),
        int(scores.num_failing),
        int(scores.num_successful),
    )


def _tarantula(scores: PredicateScores) -> np.ndarray:
    """Jones et al.'s hue: failing truth-rate over total truth-rate.

    Cross-multiplied by ``NumF * NumS``.  An empty outcome class has rate
    0 (its count is 0 too), which the ``max(., 1)`` keeps: with no
    successful runs every predicate true in a failing run scores 1.
    """
    F, S, num_f, num_s = _counts(scores)
    fail = F * max(num_s, 1)
    return _ratio(fail, fail + S * max(num_f, 1))


def _ochiai(scores: PredicateScores) -> np.ndarray:
    """Cosine similarity of the "P true" and failing run sets, as the
    square root of its exact square."""
    F, S, num_f, _ = _counts(scores)
    return np.sqrt(_ratio(F * F, num_f * (F + S)))


def _jaccard(scores: PredicateScores) -> np.ndarray:
    """Overlap of truth-in-failing with (failing union truth)."""
    F, S, num_f, _ = _counts(scores)
    return _ratio(F, num_f + S)


def _dstar2(scores: PredicateScores) -> np.ndarray:
    """Wong et al.'s D* with star = 2.

    A perfect predictor (true in every failing run, never in a successful
    one) has a zero denominator; inf is forbidden, so the denominator is
    clamped to 1 and it scores ``F^2``.  ``F = 0`` scores 0 through the
    numerator.
    """
    F, S, num_f, _ = _counts(scores)
    return _ratio(F * F, np.maximum(S + (num_f - F), 1))


def _causal_hybrid(scores: PredicateScores) -> np.ndarray:
    """After Kucuk & Henderson's causal fault localisation (PAPERS.md):
    the mean of the predicate-view effect ``pf - ps`` and the
    outcome-view ``Increase``, each clamped at zero so a predicate must
    look suspicious from both directions.  This is the
    sufficient-statistics projection of the idea; the counterfactual
    estimator needs per-run covariate matching the counts cannot carry.
    """
    effect = np.where(
        scores.defined,
        np.maximum(np.asarray(scores.pf, dtype=np.float64) - scores.ps, 0.0),
        0.0,
    )
    outcome = np.maximum(np.asarray(scores.increase, dtype=np.float64), 0.0)
    return 0.5 * (effect + outcome)


#: Every measure, one row each.  ``importance`` and ``increase`` are the
#: paper's own (Sections 3.3 and 3.1) and delegate to the scoring modules,
#: so they are bit-identical to the historical pipeline.
_TABLE: Tuple[Measure, ...] = (
    Measure(
        "importance", 1, "2 / (1/Increase + log(NumF)/log(F))",
        lambda s: importance_scores(s).importance,
    ),
    Measure(
        "increase", 1, "F/(F+S) - F_obs/(F_obs+S_obs)",
        lambda s: np.asarray(s.increase, dtype=np.float64),
    ),
    Measure("tarantula", 1, "(F/NumF) / (F/NumF + S/NumS)", _tarantula),
    Measure("ochiai", 1, "F / sqrt(NumF * (F+S))", _ochiai),
    Measure("jaccard", 1, "F / (NumF + S)", _jaccard),
    Measure("dstar2", 1, "F^2 / (S + (NumF - F))", _dstar2),
    Measure(
        "causal-hybrid", 1, "(max(pf-ps,0) + max(Increase,0)) / 2",
        _causal_hybrid,
    ),
)

_BY_NAME: Dict[str, Measure] = {m.name: m for m in _TABLE}


def get(name: str) -> Measure:
    """Look up a measure by name, ignoring case and surrounding spaces.

    Raises:
        UnknownMeasureError: Listing the valid names, so callers (CLI,
            HTTP 400 bodies) can surface the choices.
    """
    try:
        return _BY_NAME[str(name).strip().lower()]
    except KeyError:
        raise UnknownMeasureError(
            f"unknown measure {name!r}; registered measures: "
            + ", ".join(available())
        ) from None


def available() -> Tuple[str, ...]:
    """Sorted names of every measure."""
    return tuple(sorted(_BY_NAME))


def measure_values(scores: PredicateScores, name: str = DEFAULT_MEASURE) -> np.ndarray:
    """Convenience: ``get(name).values(scores)``."""
    return get(name).values(scores)
