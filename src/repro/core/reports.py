"""Feedback reports: the input to the cause isolation algorithm.

A feedback report ``R`` (Section 1) consists of one bit recording whether
the run succeeded or failed, plus, for each predicate ``P``, whether ``P``
was *observed* (its site was reached and sampled) and whether it was
*observed to be true* at least once.  Following the paper we also retain
the raw counts ("in reality, we count the number of times P is observed to
be true, but the analysis ... only uses whether P is observed to be true at
least once"); the counts additionally give relative site coverage.

:class:`RunReport` is one run's report, from the trial through the spool,
the wire and the daemon's write-ahead log; :class:`ReportSet` stores a
whole population of runs as sparse matrices so
the scoring passes are vectorised NumPy/SciPy operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.core.predicates import PredicateTable

#: Seeds and counters are stored as int64; each must lie below this.
INT64_LIMIT = 2**63


def is_seed(value: object) -> bool:
    """Whether ``value`` is a storable trial seed: an int in ``[0, 2**63)``."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and 0 <= value < INT64_LIMIT
    )


@dataclass(frozen=True)
class RunReport:
    """One run's feedback report: the record every collection path carries.

    The same record leaves a trial, sits in a client spool, crosses the
    wire, is logged in the daemon's write-ahead log and is batched into
    a :class:`ReportSet` (:meth:`ReportSet.from_runs`).

    Attributes:
        seed: The trial seed -- the run's identity (idempotent delivery,
            shard seed ranges).
        failed: ``True`` for a failing run (the ``Crash`` label; any
            success/failure labelling works, e.g. an output oracle).
        site_obs: Map from site index to the number of times the site
            was sampled during the run.
        pred_true: Map from predicate index to the number of times the
            predicate was observed to be true.
        stack: Optional crash stack signature (innermost frame last); used
            only by the stack-trace baseline, never by the algorithm.
        bugs: Ground-truth bug occurrences (the paper's evaluation side
            channel; empty without an oracle's ground truth).
        steering: The ``repro-steering/v1`` version string of the rate
            table the trial ran under, or None for unsteered collection.
            Emitted on the wire only when set, so unsteered payload bytes
            are identical to pre-steering clients.
    """

    seed: int
    failed: bool
    site_obs: Dict[int, int] = field(default_factory=dict)
    pred_true: Dict[int, int] = field(default_factory=dict)
    stack: Optional[Tuple[str, ...]] = None
    bugs: Tuple[str, ...] = ()
    steering: Optional[str] = None

    @classmethod
    def from_trial(
        cls, seed: int, trial: tuple, steering: Optional[str] = None
    ) -> "RunReport":
        """The record of ``run_one_trial``'s ``(failed, site_obs,
        pred_true, stack, bugs)`` for trial ``seed``."""
        failed, site_obs, pred_true, stack, bugs = trial
        return cls(
            seed=seed,
            failed=failed,
            site_obs=dict(site_obs),
            pred_true=dict(pred_true),
            stack=tuple(stack) if stack is not None else None,
            bugs=tuple(bugs),
            steering=steering,
        )

    def to_wire(self) -> dict:
        """The JSON-ready dict for this report."""
        wire = {
            "seed": self.seed,
            "failed": self.failed,
            "site_obs": {str(k): v for k, v in sorted(self.site_obs.items())},
            "pred_true": {str(k): v for k, v in sorted(self.pred_true.items())},
            "stack": list(self.stack) if self.stack is not None else None,
            "bugs": list(self.bugs),
        }
        if self.steering is not None:
            wire["steering"] = self.steering
        return wire

    def to_line(self) -> str:
        """One sorted-key JSON line: a spool entry's bytes, a WAL record."""
        return json.dumps(self.to_wire(), sort_keys=True) + "\n"


def _counts(maps: List[Dict[int, int]], n_columns: int) -> sparse.csr_matrix:
    """The ``(len(maps), n_columns)`` matrix with one counter map a row;
    zero counts are not stored."""
    rows: List[int] = []
    cols: List[int] = []
    vals: List[int] = []
    for i, counts in enumerate(maps):
        for col, count in counts.items():
            if count > 0:
                rows.append(i)
                cols.append(col)
                vals.append(count)
    return sparse.csr_matrix(
        (np.asarray(vals, dtype=np.int64), (rows, cols)), shape=(len(maps), n_columns)
    )


class ReportSet:
    """A population of feedback reports in matrix form.

    Attributes:
        table: The :class:`PredicateTable` the column indices refer to.
        failed: Boolean array of shape ``(n_runs,)``; ``True`` = failure.
        site_counts: ``(n_runs, n_sites)`` sparse matrix of observation
            counts per site.
        true_counts: ``(n_runs, n_preds)`` sparse matrix of
            observed-to-be-true counts per predicate.
        stacks: Per-run crash stack signatures (``None`` for successes or
            for failures with no captured stack).
        seeds: ``(n_runs,)`` int64 trial seeds, one per run.
        columns: Boolean mask of the predicate columns loaded, or
            ``None`` when all are.  A *partial* set (see
            ``ShardStore.load_columns``) holds only those predicates'
            columns and their sites'; reading any other predicate
            raises, and a partial set cannot be saved or merged.
    """

    def __init__(
        self,
        table: PredicateTable,
        failed: np.ndarray,
        site_counts: sparse.csr_matrix,
        true_counts: sparse.csr_matrix,
        stacks: Optional[List[Optional[Tuple[str, ...]]]],
        seeds: Sequence[int],
        columns: Optional[np.ndarray] = None,
    ) -> None:
        self.table = table
        self.columns = None if columns is None else np.asarray(columns, dtype=bool)
        self.failed = np.asarray(failed, dtype=bool)
        self.site_counts = site_counts.tocsr()
        self.true_counts = true_counts.tocsr()
        n_runs = len(self.failed)
        self.stacks = stacks if stacks is not None else [None] * n_runs
        self.seeds = np.asarray(seeds, dtype=np.int64)
        for name, column in (("stacks", self.stacks), ("seeds", self.seeds)):
            if len(column) != n_runs:
                raise ValueError(
                    f"{len(column)} {name} for a report set of {n_runs} runs"
                )
        #: Site index of each predicate column, for mapping site-level
        #: observation counts to predicate-level "P observed" statistics.
        self.pred_site = np.asarray(
            [p.site_index for p in table.predicates], dtype=np.int64
        )
        self._true_csc: Optional[sparse.csc_matrix] = None
        self._true_ind: Optional[sparse.csc_matrix] = None
        self._site_ind: Optional[sparse.csc_matrix] = None

    @classmethod
    def from_runs(cls, table: PredicateTable, runs: Sequence[RunReport]) -> "ReportSet":
        """The population of ``runs``, in their order, against ``table``."""
        runs = list(runs)
        return cls(
            table,
            np.fromiter((run.failed for run in runs), dtype=bool, count=len(runs)),
            _counts([run.site_obs for run in runs], table.n_sites),
            _counts([run.pred_true for run in runs], table.n_predicates),
            [run.stack for run in runs],
            np.fromiter((run.seed for run in runs), dtype=np.int64, count=len(runs)),
        )

    # ------------------------------------------------------------------
    # Shape and basic statistics
    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        """Total number of runs in the set."""
        return int(self.failed.shape[0])

    @property
    def n_predicates(self) -> int:
        """Number of predicate columns."""
        return int(self.true_counts.shape[1])

    @property
    def n_sites(self) -> int:
        """Number of site columns."""
        return int(self.site_counts.shape[1])

    @property
    def num_failing(self) -> int:
        """``NumF``: total number of failing runs."""
        return int(self.failed.sum())

    @property
    def num_successful(self) -> int:
        """Total number of successful runs."""
        return self.n_runs - self.num_failing

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def _csc(self) -> sparse.csc_matrix:
        if self._true_csc is None:
            self._true_csc = self.true_counts.tocsc()
        return self._true_csc

    @staticmethod
    def _indicator(counts: sparse.csr_matrix) -> sparse.csc_matrix:
        """0/1 int64 copy of a count matrix, in CSC for fast column sums.

        Stored entries that happen to be zero (none are written by
        :meth:`from_runs`, but archives are not trusted) map to 0,
        matching ``counts.astype(bool)``.
        """
        return sparse.csc_matrix(
            sparse.csr_matrix(
                ((counts.data != 0).astype(np.int64), counts.indices, counts.indptr),
                shape=counts.shape,
            )
        )

    def true_indicator(self) -> sparse.csc_matrix:
        """Cached ``R(P) = 1`` indicator matrix (``(n_runs, n_preds)``, int64).

        Masked column sums over this matrix -- one sparse matvec per
        outcome class -- are what :meth:`repro.core.scores.SufficientStats.from_reports`
        reduces to, so the cache is built once per population instead of
        ``astype(bool)`` allocating a fresh copy on every scoring round.
        """
        if self._true_ind is None:
            self._true_ind = self._indicator(self.true_counts)
        return self._true_ind

    def site_indicator(self) -> sparse.csc_matrix:
        """Cached site-observed indicator matrix (``(n_runs, n_sites)``, int64)."""
        if self._site_ind is None:
            self._site_ind = self._indicator(self.site_counts)
        return self._site_ind

    def require_whole(self, action: str) -> None:
        """Refuse to ``action`` a partial set (see :attr:`columns`).

        Raises:
            ValueError: When only some predicate columns are loaded.
        """
        if self.columns is not None:
            raise ValueError(
                f"cannot {action} a partial report set: only "
                f"{int(self.columns.sum())} of {self.n_predicates} predicate "
                "columns are loaded"
            )

    def require_loaded(self, predicates: np.ndarray) -> None:
        """Refuse predicates whose columns this set does not hold.

        Args:
            predicates: Predicate indices, or a boolean predicate mask.

        Raises:
            ValueError: Naming the first unloaded predicate.
        """
        if self.columns is None:
            return
        predicates = np.atleast_1d(np.asarray(predicates))
        if predicates.dtype == bool:
            predicates = np.flatnonzero(predicates)
        missing = predicates[~self.columns[predicates]]
        if missing.size:
            raise ValueError(
                f"predicate {int(missing[0])} is not loaded in this partial "
                "report set"
            )

    def runs_where_true(self, predicate_index: int) -> np.ndarray:
        """Return the run indices where ``R(P) = 1`` for the predicate.

        Raises:
            ValueError: On a predicate a partial set does not hold.
        """
        self.require_loaded(predicate_index)
        col = self._csc()
        start, end = col.indptr[predicate_index], col.indptr[predicate_index + 1]
        return col.indices[start:end].copy()

    def true_mask(self, predicate_index: int) -> np.ndarray:
        """Return a boolean run mask where ``R(P) = 1``."""
        mask = np.zeros(self.n_runs, dtype=bool)
        mask[self.runs_where_true(predicate_index)] = True
        return mask

    # ------------------------------------------------------------------
    # Derived sets
    # ------------------------------------------------------------------
    def subset(self, run_mask: np.ndarray) -> "ReportSet":
        """Return a new :class:`ReportSet` restricted to ``run_mask`` rows."""
        run_mask = np.asarray(run_mask, dtype=bool)
        idx = np.flatnonzero(run_mask)
        return ReportSet(
            self.table,
            self.failed[idx],
            self.site_counts[idx],
            self.true_counts[idx],
            [self.stacks[i] for i in idx],
            self.seeds[idx],
            self.columns,
        )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Sequence["ReportSet"]) -> "ReportSet":
        """Concatenate report sets collected against the same table.

        Runs keep their relative order (all of ``parts[0]`` first, then
        ``parts[1]``, ...), so merging the shards of a population in
        collection order reproduces the monolithic population exactly:
        every per-run row is preserved, and all scoring statistics --
        which are sums over runs -- are bit-identical to scoring one big
        set (``tests/store/test_store.py`` asserts exact integer equality
        of ``F``/``S``/``F_obs``/``S_obs``).

        Args:
            parts: One or more report sets whose tables have the same
                :meth:`~repro.core.predicates.PredicateTable.signature`.

        Raises:
            ValueError: On an empty sequence, mismatched tables or a
                partial set.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("cannot merge an empty sequence of report sets")
        for part in parts:
            part.require_whole("merge")
        if len(parts) == 1:
            first = parts[0]
            return cls(
                first.table,
                first.failed,
                first.site_counts,
                first.true_counts,
                list(first.stacks),
                first.seeds,
            )
        sig = parts[0].table.signature()
        for i, part in enumerate(parts[1:], start=1):
            if part.table.signature() != sig:
                raise ValueError(
                    f"report set {i} was collected against a different "
                    "predicate table; refusing to merge mismatched "
                    "instrumentations"
                )
        stacks: List[Optional[Tuple[str, ...]]] = []
        for part in parts:
            stacks.extend(part.stacks)
        return cls(
            parts[0].table,
            np.concatenate([p.failed for p in parts]),
            sparse.vstack([p.site_counts for p in parts], format="csr"),
            sparse.vstack([p.true_counts for p in parts], format="csr"),
            stacks,
            np.concatenate([p.seeds for p in parts]),
        )

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def site_coverage(self) -> np.ndarray:
        """Total observation count per site across all runs.

        The paper notes the sum of a site's predicate counters reveals the
        site's relative coverage; this is the per-site analogue.
        """
        return np.asarray(self.site_counts.sum(axis=0)).ravel()

    def __repr__(self) -> str:
        return (
            f"ReportSet(runs={self.n_runs}, failing={self.num_failing}, "
            f"sites={self.n_sites}, predicates={self.n_predicates})"
        )
