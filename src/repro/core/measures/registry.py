"""The suspiciousness-measure registry.

A *measure* is a named, versioned, pure function from the shared
per-predicate sufficient statistics (:class:`repro.core.scores.PredicateScores`,
itself a function of ``F``, ``S``, ``F_obs``, ``S_obs``, ``NumF``,
``NumS``) to a per-predicate suspiciousness array.  Registering a measure
makes it available everywhere scoring happens: ``analyze --measure NAME``,
the parallel :class:`~repro.core.engine.AnalysisEngine`, the collection
daemon's ``GET /scores?measure=NAME``, federated scoring, and the
``repro-cbi bakeoff`` evaluation harness.

Two contracts every measure must honour:

* **Elementwise over sufficient statistics.**  A measure may read any
  per-predicate count/score array and the population totals
  (``num_failing`` / ``num_successful``), but the value it assigns to
  predicate ``i`` must depend only on row ``i`` and those totals.  This is
  what makes measure values a function of the summed counts alone, so
  local, service, and federated scoring are bit-identical by
  construction.
* **No NaN / no inf.**  Undefined quantities score ``0.0``, matching the
  repo-wide convention of :mod:`repro.core.scores`; ranking code never
  needs NaN handling.

Measures register themselves at import time via the :func:`register`
decorator; importing :mod:`repro.core.measures` loads the full catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.scores import PredicateScores

#: The measure every consumer uses unless told otherwise: the paper's
#: harmonic-mean Importance (Section 3.3 of Liblit et al., PLDI 2005).
DEFAULT_MEASURE = "importance"


class UnknownMeasureError(ValueError):
    """Raised when a measure name is not in the registry."""


@dataclass(frozen=True)
class Measure:
    """A registered suspiciousness measure.

    Attributes:
        name: Registry key, e.g. ``"tarantula"``.
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
        NaN/inf entries (the registry contract), raising ``ValueError`` if
        the underlying callable violates it.
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


_REGISTRY: Dict[str, Measure] = {}


def register(
    name: str, *, version: int = 1, formula: str = ""
) -> Callable[[Callable[[PredicateScores], np.ndarray]], Callable[[PredicateScores], np.ndarray]]:
    """Class-level decorator registering a scoring function under ``name``.

    Names are lowercase identifiers; re-registering an existing name is an
    error (measures are versioned, not shadowed).
    """

    def _wrap(fn: Callable[[PredicateScores], np.ndarray]):
        key = name.strip().lower()
        if key in _REGISTRY:
            raise ValueError(f"measure {key!r} already registered")
        _REGISTRY[key] = Measure(name=key, version=version, formula=formula, fn=fn)
        return fn

    return _wrap


def get(name: str) -> Measure:
    """Look up a measure by name.

    Raises:
        UnknownMeasureError: Listing the registered names, so callers (CLI,
            HTTP 400 bodies) can surface the valid choices.
    """
    key = str(name).strip().lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownMeasureError(
            f"unknown measure {name!r}; registered measures: "
            + ", ".join(available())
        ) from None


def available() -> Tuple[str, ...]:
    """Sorted names of every registered measure."""
    return tuple(sorted(_REGISTRY))


def measure_values(scores: PredicateScores, name: str = DEFAULT_MEASURE) -> np.ndarray:
    """Convenience: ``get(name).values(scores)``."""
    return get(name).values(scores)
