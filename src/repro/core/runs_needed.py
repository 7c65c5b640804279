"""The "how many runs are needed?" estimator (Section 4.3, Table 8).

Methodology from the paper: choose one predictor per isolated bug; let
``Importance_N(P)`` be the predictor's importance computed over the first
``N`` runs; report the minimum ``N`` such that

    Importance_full(P) - Importance_N(P) < 0.2

together with ``F(P)`` over those ``N`` runs (the number of failing runs
where the predictor was observed true, which the paper notes is the
rate-independent measure: every bug was isolable with roughly 10-40 such
observations).  The paper sweeps N over 100..1,000 by hundreds and
1,000..25,000 by thousands; :func:`default_schedule` reproduces that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.importance import importance_scores
from repro.core.reports import ReportSet
from repro.core.scores import compute_scores


def default_schedule(max_runs: int) -> List[int]:
    """The paper's N sweep: 100-step hundreds, then 1,000-step thousands."""
    schedule = [n for n in range(100, 1000, 100) if n <= max_runs]
    schedule += [n for n in range(1000, 25001, 1000) if n <= max_runs]
    if not schedule or schedule[-1] != max_runs:
        schedule.append(max_runs)
    return schedule


@dataclass
class RunsNeededResult:
    """Outcome for one predictor.

    Attributes:
        predicate_index: The predictor analysed.
        runs_needed: Minimum ``N`` meeting the threshold test (the paper's
            "Runs" row), or ``None`` if no prefix in the schedule met it.
        failing_true_at_n: ``F(P)`` within those ``N`` runs (the "F(P)"
            row), or ``None``.
        importance_full: Importance over the full population.
        threshold: The convergence threshold used (paper: 0.2).
        curve: ``(N, Importance_N, F_at_N)`` samples for plotting.
    """

    predicate_index: int
    runs_needed: Optional[int]
    failing_true_at_n: Optional[int]
    importance_full: float
    threshold: float
    curve: List[Tuple[int, float, int]]


def importance_at_n(reports: ReportSet, predicate_index: int, n: int) -> Tuple[float, int]:
    """Return ``(Importance_N(P), F(P) over the first N runs)``."""
    mask = np.zeros(reports.n_runs, dtype=bool)
    mask[: min(n, reports.n_runs)] = True
    scores = compute_scores(reports, run_mask=mask)
    imp = importance_scores(scores)
    return float(imp.importance[predicate_index]), int(scores.F[predicate_index])


def runs_needed(
    reports: ReportSet,
    predicate_index: int,
    threshold: float = 0.2,
    schedule: Optional[Sequence[int]] = None,
) -> RunsNeededResult:
    """Apply the Table 8 methodology to one predictor.

    Args:
        reports: The full run population (run order is the arrival order;
            prefixes simulate having stopped collection early).
        predicate_index: The predictor ``P``.
        threshold: Convergence threshold on the importance gap.
        schedule: N values to test, ascending; defaults to the paper's.

    Returns:
        A :class:`RunsNeededResult`.

    Tie rule (pinned by the regression suite): the answer is the
    **first** schedule step whose gap is **strictly** below the
    threshold -- ``full_imp - imp_n < threshold``, never ``<=``.  A
    predictor whose importance oscillates around the threshold after
    that first crossing does *not* reset the answer; the paper's
    question is "when could collection have stopped?", and the earliest
    crossing is that moment.  A gap exactly equal to the threshold does
    not converge.
    """
    if schedule is None:
        schedule = default_schedule(reports.n_runs)
    full_scores = compute_scores(reports)
    full_imp = float(importance_scores(full_scores).importance[predicate_index])

    curve: List[Tuple[int, float, int]] = []
    found_n: Optional[int] = None
    found_f: Optional[int] = None
    for n in schedule:
        imp_n, f_n = importance_at_n(reports, predicate_index, n)
        curve.append((n, imp_n, f_n))
        if found_n is None and full_imp - imp_n < threshold:
            found_n, found_f = n, f_n
    return RunsNeededResult(
        predicate_index=predicate_index,
        runs_needed=found_n,
        failing_true_at_n=found_f,
        importance_full=full_imp,
        threshold=threshold,
        curve=curve,
    )


def runs_to_isolate(
    reports: ReportSet,
    predicate_indices: Sequence[int],
    threshold: float = 0.2,
    schedule: Optional[Sequence[int]] = None,
) -> Optional[int]:
    """Runs needed to isolate *every* bug's predictor (the steering metric).

    Applies :func:`runs_needed` to one chosen predictor per bug and
    returns the maximum over them -- the first run count at which every
    predictor's importance has stabilised, i.e. the budget at which
    collection could have stopped with the full-population answer in
    hand.  Returns None when any predictor never converges within the
    population (collection would have needed more runs than were made),
    and when no predictors are given (no isolated bugs means there is
    no isolation cost to report).
    """
    if not predicate_indices:
        return None
    worst = 0
    for index in predicate_indices:
        result = runs_needed(reports, index, threshold=threshold, schedule=schedule)
        if result.runs_needed is None:
            return None
        worst = max(worst, result.runs_needed)
    return worst
