"""Incremental (streaming) scoring from per-shard sufficient statistics.

All Section 3.1-3.2 quantities -- ``Failure``, ``Context``, ``Increase``
and its interval, ``pf``/``ps`` and the ``Z`` statistic -- are functions
of six sufficient statistics: the per-predicate integer counts ``F(P)``,
``S(P)``, ``F(P obs)``, ``S(P obs)`` and the population totals ``NumF``,
``NumS``.  Each is a sum of per-run indicator variables, so for any
partition of the runs into shards the statistic of the whole population
is the elementwise sum of the shard statistics.  Accumulating
:class:`SufficientStats` shard by shard and calling
:func:`repro.core.scores.scores_from_counts` (the exact code path
:func:`repro.core.scores.compute_scores` uses internally) therefore
yields *bit-identical* scores to materialising the merged population --
``tests/store/test_store.py`` pins the integer equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.reports import ReportSet
from repro.core.scores import (
    DEFAULT_CONFIDENCE,
    PredicateScores,
    scores_from_counts,
    sufficient_counts,
)
from repro.obs import timer as _obs_timer


@dataclass
class SufficientStats:
    """Additive per-predicate scoring statistics for one run population.

    Attributes:
        F: ``F(P)`` -- failing runs where ``P`` observed true.
        S: ``S(P)`` -- successful runs where ``P`` observed true.
        F_obs: ``F(P observed)`` per predicate.
        S_obs: ``S(P observed)`` per predicate.
        num_failing: ``NumF`` -- failing runs in the population.
        num_successful: Successful runs in the population.
    """

    F: np.ndarray
    S: np.ndarray
    F_obs: np.ndarray
    S_obs: np.ndarray
    num_failing: int = 0
    num_successful: int = 0

    @classmethod
    def zeros(cls, n_predicates: int) -> "SufficientStats":
        """An identity element covering zero runs."""
        return cls(
            F=np.zeros(n_predicates, dtype=np.int64),
            S=np.zeros(n_predicates, dtype=np.int64),
            F_obs=np.zeros(n_predicates, dtype=np.int64),
            S_obs=np.zeros(n_predicates, dtype=np.int64),
        )

    @classmethod
    def from_reports(
        cls, reports: ReportSet, run_mask: Optional[np.ndarray] = None
    ) -> "SufficientStats":
        """Extract the statistics of one (possibly masked) report set."""
        F, S, F_obs, S_obs, num_failing, num_successful = sufficient_counts(
            reports, run_mask
        )
        return cls(
            F=F,
            S=S,
            F_obs=F_obs,
            S_obs=S_obs,
            num_failing=num_failing,
            num_successful=num_successful,
        )

    @property
    def n_predicates(self) -> int:
        """Number of predicate columns covered."""
        return int(self.F.shape[0])

    @property
    def n_runs(self) -> int:
        """Total runs accumulated."""
        return self.num_failing + self.num_successful

    def _check_compatible(self, other: "SufficientStats") -> None:
        if self.n_predicates != other.n_predicates:
            raise ValueError(
                f"cannot combine statistics over {self.n_predicates} and "
                f"{other.n_predicates} predicates -- different tables?"
            )

    def materialized(self) -> "SufficientStats":
        """A writable deep copy of these statistics.

        Statistics loaded from a format-v3 archive are zero-copy
        *read-only* views of the file mapping
        (:func:`repro.core.io.load_shard_stats`), so an accumulator
        seeded directly from one (``total = part; total.add(...)``)
        would crash on the in-place ``+=``.  Seed accumulators with a
        copy; the per-shard parts themselves are never written to.
        """
        return SufficientStats(
            F=np.array(self.F, dtype=np.int64),
            S=np.array(self.S, dtype=np.int64),
            F_obs=np.array(self.F_obs, dtype=np.int64),
            S_obs=np.array(self.S_obs, dtype=np.int64),
            num_failing=self.num_failing,
            num_successful=self.num_successful,
        )

    def add(self, other: "SufficientStats") -> "SufficientStats":
        """Accumulate another shard's statistics in place."""
        self._check_compatible(other)
        self.F += other.F
        self.S += other.S
        self.F_obs += other.F_obs
        self.S_obs += other.S_obs
        self.num_failing += other.num_failing
        self.num_successful += other.num_successful
        return self

    def __add__(self, other: "SufficientStats") -> "SufficientStats":
        self._check_compatible(other)
        return SufficientStats(
            F=self.F + other.F,
            S=self.S + other.S,
            F_obs=self.F_obs + other.F_obs,
            S_obs=self.S_obs + other.S_obs,
            num_failing=self.num_failing + other.num_failing,
            num_successful=self.num_successful + other.num_successful,
        )

    def to_scores(self, confidence: float = DEFAULT_CONFIDENCE) -> PredicateScores:
        """Score the accumulated population.

        Delegates to :func:`repro.core.scores.scores_from_counts`, the
        same arithmetic ``compute_scores`` runs on in-memory populations,
        so the result is exactly what scoring the merged shards would
        produce.
        """
        with _obs_timer("scores.from_counts"):
            return scores_from_counts(
                self.F,
                self.S,
                self.F_obs,
                self.S_obs,
                self.num_failing,
                self.num_successful,
                confidence=confidence,
            )

    def __repr__(self) -> str:
        return (
            f"SufficientStats(runs={self.n_runs}, failing={self.num_failing}, "
            f"predicates={self.n_predicates})"
        )
