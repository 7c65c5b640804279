"""``Failure``, ``Context`` and ``Increase`` scores (Sections 3.1-3.2).

For a predicate ``P`` over a set of runs:

* ``F(P)`` / ``S(P)``: failing / successful runs where ``P`` was observed
  to be true at least once;
* ``F(P obs)`` / ``S(P obs)``: failing / successful runs where the *site*
  of ``P`` was reached and sampled at least once;
* ``Failure(P) = F(P) / (S(P) + F(P))``;
* ``Context(P) = F(P obs) / (S(P obs) + F(P obs))``;
* ``Increase(P) = Failure(P) - Context(P)``.

The module also provides the statistical machinery the paper attaches to
these scores: a standard-error estimate and confidence interval for
``Increase``, and the two-proportion ``Z`` statistic of Section 3.2 with
``pf(P) = F(P)/F(P obs)`` and ``ps(P) = S(P)/S(P obs)``.  Section 3.2
proves ``Increase(P) > 0  <=>  pf(P) > ps(P)``; tests rely on that
equivalence.

Every score is a function of the per-predicate counts alone, so the
module has one scoring path: :class:`SufficientStats` holds the counts
and :meth:`SufficientStats.to_scores` derives the scores from them.
:func:`compute_scores` is that path applied to an in-memory population.

All functions are vectorised over the full predicate table.  Quantities
whose denominators are zero are *undefined*; they are reported as ``0.0``
with the corresponding bit cleared in the ``defined`` mask rather than as
NaN, so downstream ranking code needs no NaN handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse, stats

from repro.core.reports import ReportSet
from repro.obs import inc as _obs_inc, timer as _obs_timer

#: Two-sided confidence level used throughout the paper.
DEFAULT_CONFIDENCE = 0.95


def _z_for_confidence(confidence: float) -> float:
    """Return the two-sided normal critical value for a confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return float(stats.norm.ppf(0.5 + confidence / 2.0))


@dataclass
class PredicateScores:
    """Vectorised per-predicate score arrays over one run population.

    All arrays have length ``n_predicates``.  ``defined`` marks predicates
    whose ``Failure`` and ``Context`` are both well defined (observed true
    at least once, site observed at least once).

    Attributes:
        F: ``F(P)`` -- failing runs where ``P`` observed true.
        S: ``S(P)`` -- successful runs where ``P`` observed true.
        F_obs: ``F(P observed)``.
        S_obs: ``S(P observed)``.
        failure: ``Failure(P)`` (0 where undefined).
        context: ``Context(P)`` (0 where undefined).
        increase: ``Increase(P)`` (0 where undefined).
        increase_se: Standard error of ``Increase(P)``.
        increase_lo / increase_hi: Confidence interval bounds.
        pf: ``pf(P) = F(P)/F(P obs)`` (0 where undefined).
        ps: ``ps(P) = S(P)/S(P obs)`` (0 where undefined).
        z: Two-proportion ``Z`` statistic of Section 3.2 (0 where undefined).
        z_defined: Boolean mask of predicates whose ``z`` is well defined
            (site observed in both outcomes, pooled variance positive).
        defined: Boolean mask of well-defined predicates.
        num_failing: ``NumF`` for the population scored.
        num_successful: Number of successful runs in the population.
        confidence: The confidence level used for the interval.
    """

    F: np.ndarray
    S: np.ndarray
    F_obs: np.ndarray
    S_obs: np.ndarray
    failure: np.ndarray
    context: np.ndarray
    increase: np.ndarray
    increase_se: np.ndarray
    increase_lo: np.ndarray
    increase_hi: np.ndarray
    pf: np.ndarray
    ps: np.ndarray
    z: np.ndarray
    z_defined: np.ndarray
    defined: np.ndarray
    num_failing: int
    num_successful: int
    confidence: float

    @property
    def n_predicates(self) -> int:
        """Number of predicates scored."""
        return int(self.F.shape[0])

    def row(self, predicate_index: int) -> "ScoreRow":
        """Return a scalar view of one predicate's scores."""
        i = predicate_index
        return ScoreRow(
            predicate_index=i,
            F=int(self.F[i]),
            S=int(self.S[i]),
            F_obs=int(self.F_obs[i]),
            S_obs=int(self.S_obs[i]),
            failure=float(self.failure[i]),
            context=float(self.context[i]),
            increase=float(self.increase[i]),
            increase_se=float(self.increase_se[i]),
            increase_lo=float(self.increase_lo[i]),
            increase_hi=float(self.increase_hi[i]),
            z=float(self.z[i]),
            defined=bool(self.defined[i]),
        )


@dataclass(frozen=True)
class ScoreRow:
    """Scalar per-predicate scores, convenient for tables and tests."""

    predicate_index: int
    F: int
    S: int
    F_obs: int
    S_obs: int
    failure: float
    context: float
    increase: float
    increase_se: float
    increase_lo: float
    increase_hi: float
    z: float
    defined: bool

    @property
    def deterministic(self) -> bool:
        """A bug is deterministic for ``P`` iff ``Failure(P) = 1.0``.

        Equivalently ``S(P) = 0`` and ``F(P) > 0`` (Section 3.1).
        """
        return self.S == 0 and self.F > 0


def _masked_column_sums(
    indicator: sparse.spmatrix, row_mask: np.ndarray
) -> np.ndarray:
    """Column sums of a 0/1 int64 indicator matrix over the masked rows.

    One sparse matvec (``indicator.T @ mask``); the per-row submatrix the
    previous implementation sliced out is never materialised, so repeated
    masked counts (the elimination loop, affinity lists) allocate only
    run- and predicate-length vectors per call.
    """
    return np.asarray(indicator.T @ row_mask.astype(np.int64), dtype=np.int64)


@dataclass
class SufficientStats:
    """The per-predicate counts every score is a function of.

    ``F(P)``, ``S(P)``, ``F(P obs)`` and ``S(P obs)`` per predicate plus
    the population totals ``NumF``/``NumS`` are *sufficient statistics*
    for the whole analysis: :meth:`to_scores` derives every Section
    3.1-3.2 quantity from them.  They are integer counts and therefore
    add exactly across disjoint run populations, so scoring statistics
    accumulated shard by shard (:meth:`ShardStore.sufficient_stats
    <repro.store.shards.ShardStore.sufficient_stats>`, the serve
    daemon's live totals) is bit-identical to scoring the merged
    population.

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
        cls,
        reports: ReportSet,
        run_mask: Optional[np.ndarray] = None,
        failed_mask: Optional[np.ndarray] = None,
    ) -> "SufficientStats":
        """Count the statistics of one (possibly masked) report set.

        Args:
            reports: The feedback-report population.
            run_mask: Optional boolean mask restricting which runs count.
            failed_mask: Optional boolean array overriding
                ``reports.failed`` as the outcome labelling.  The
                elimination loop's ``RELABEL`` strategy passes its working
                labels here instead of rebuilding a relabelled
                :class:`~repro.core.reports.ReportSet` per round.

        On a partial set (``reports.columns`` is a mask) only the loaded
        columns are counted: their four counts equal the whole
        population's, and every other predicate's are zero.
        """
        failed = reports.failed if failed_mask is None else np.asarray(failed_mask, dtype=bool)
        if run_mask is None:
            fail_rows = failed
            succ_rows = ~failed
        else:
            run_mask = np.asarray(run_mask, dtype=bool)
            fail_rows = run_mask & failed
            succ_rows = run_mask & ~failed

        true_ind = reports.true_indicator()
        site_ind = reports.site_indicator()
        F_obs_site = _masked_column_sums(site_ind, fail_rows)
        S_obs_site = _masked_column_sums(site_ind, succ_rows)
        stats = cls(
            F=_masked_column_sums(true_ind, fail_rows),
            S=_masked_column_sums(true_ind, succ_rows),
            F_obs=F_obs_site[reports.pred_site],
            S_obs=S_obs_site[reports.pred_site],
            num_failing=int(fail_rows.sum()),
            num_successful=int(succ_rows.sum()),
        )
        if reports.columns is not None:
            for counts in (stats.F, stats.S, stats.F_obs, stats.S_obs):
                counts[~reports.columns] = 0
        return stats

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
        (:meth:`repro.core.io.Archive.stats`), so an accumulator
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
        """Compute every Section 3.1-3.2 score from the counts alone.

        The one implementation of the scoring arithmetic: in-memory
        populations (:func:`compute_scores`), streamed stores and the
        serve daemon all score through here.
        """
        with _obs_timer("scores.from_counts"):
            _obs_inc("scores.computations")
            F = np.asarray(self.F, dtype=np.int64)
            S = np.asarray(self.S, dtype=np.int64)
            F_obs = np.asarray(self.F_obs, dtype=np.int64)
            S_obs = np.asarray(self.S_obs, dtype=np.int64)

            n_true = F + S
            n_obs = F_obs + S_obs

            with np.errstate(divide="ignore", invalid="ignore"):
                failure = np.where(n_true > 0, F / np.maximum(n_true, 1), 0.0)
                context = np.where(n_obs > 0, F_obs / np.maximum(n_obs, 1), 0.0)
                increase = np.where((n_true > 0) & (n_obs > 0), failure - context, 0.0)

                # Standard error of Increase, treating Failure and Context
                # as independent binomial proportions.  Because the
                # "observed true" runs are a subset of the "observed" runs
                # the two are positively correlated, so this over-estimates
                # the variance: the interval is conservative, which is the
                # safe direction for the pruning filter.  The proportions
                # are Laplace-smoothed for the variance estimate only, so a
                # proportion of exactly 0 or 1 backed by a handful of
                # observations cannot claim zero variance (a predicate true
                # in a single failing run must not pass the 95% filter).
                f_sm = (F + 0.5) / np.maximum(n_true + 1.0, 1.0)
                c_sm = (F_obs + 0.5) / np.maximum(n_obs + 1.0, 1.0)
                var = np.where(
                    (n_true > 0) & (n_obs > 0),
                    f_sm * (1.0 - f_sm) / np.maximum(n_true, 1)
                    + c_sm * (1.0 - c_sm) / np.maximum(n_obs, 1),
                    0.0,
                )
                se = np.sqrt(var)

                pf = np.where(F_obs > 0, F / np.maximum(F_obs, 1), 0.0)
                ps = np.where(S_obs > 0, S / np.maximum(S_obs, 1), 0.0)
                # Pooled variance under H0 (pf = ps); unlike the per-group
                # sample variance it stays positive under perfect separation.
                p_pool = np.where(n_obs > 0, n_true / np.maximum(n_obs, 1), 0.0)
                z_var = (
                    p_pool
                    * (1.0 - p_pool)
                    * (1.0 / np.maximum(F_obs, 1) + 1.0 / np.maximum(S_obs, 1))
                )
                z_defined = (F_obs > 0) & (S_obs > 0) & (z_var > 0)
                z = np.where(
                    z_defined,
                    (pf - ps) / np.sqrt(np.maximum(z_var, 1e-300)),
                    0.0,
                )

            crit = _z_for_confidence(confidence)
            return PredicateScores(
                F=F,
                S=S,
                F_obs=F_obs,
                S_obs=S_obs,
                failure=failure,
                context=context,
                increase=increase,
                increase_se=se,
                increase_lo=increase - crit * se,
                increase_hi=increase + crit * se,
                pf=pf,
                ps=ps,
                z=z,
                z_defined=z_defined,
                defined=(n_true > 0) & (n_obs > 0),
                num_failing=int(self.num_failing),
                num_successful=int(self.num_successful),
                confidence=confidence,
            )

    def __repr__(self) -> str:
        return (
            f"SufficientStats(runs={self.n_runs}, failing={self.num_failing}, "
            f"predicates={self.n_predicates})"
        )


def compute_scores(
    reports: ReportSet,
    run_mask: Optional[np.ndarray] = None,
    confidence: float = DEFAULT_CONFIDENCE,
    failed_mask: Optional[np.ndarray] = None,
) -> PredicateScores:
    """Score an in-memory population:
    ``SufficientStats.from_reports(...).to_scores(...)``.

    ``run_mask`` restricts the population (the elimination loop rescores
    after discarding runs) and ``failed_mask`` overrides the outcome
    labels (see :meth:`SufficientStats.from_reports`).
    """
    with _obs_timer("scores.compute"):
        return SufficientStats.from_reports(reports, run_mask, failed_mask).to_scores(
            confidence
        )


def z_test_pvalues(scores: PredicateScores) -> np.ndarray:
    """One-sided p-values for ``H1: pf(P) > ps(P)`` (Section 3.2).

    Under ``H0: pf = ps`` the statistic is approximately standard normal
    for large samples, so the p-value is the upper normal tail of ``z``.

    Where ``z`` is undefined (the site was never observed in failing or
    successful runs, or the pooled variance is zero) there is no evidence
    against ``H0`` at all, so the p-value is 1.0 -- *not* ``sf(0) = 0.5``,
    which would let never-observed predicates masquerade as weak evidence
    in callers that forget to apply the ``defined`` mask.
    """
    p = stats.norm.sf(scores.z)
    return np.where(scores.z_defined, p, 1.0)
