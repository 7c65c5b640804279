"""Affinity lists (Sections 3.4 and 4.1-4.2).

"We do have a measure of how strongly P implies another predicate Pi: how
does removing the runs where R(P)=1 affect the importance of Pi?  The more
closely related P and Pi are, the more Pi's importance drops when P's
failing runs are removed."

In the paper's interactive tools every selected predictor links to an
affinity list ranking all predicates by this drop; the CCRYPT and BC case
studies use affinity lists to recognise that a second selected predicate
is a sub-bug predictor of the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.importance import importance_scores
from repro.core.predicates import Predicate
from repro.core.reports import ReportSet
from repro.core.scores import compute_scores


@dataclass(frozen=True)
class AffinityEntry:
    """One row of an affinity list.

    Attributes:
        predicate: The related predicate ``Pi``.
        drop: ``Importance(Pi)`` before minus after removing the runs
            where the anchor predicate was observed true.
        importance_before / importance_after: The two raw scores.
    """

    predicate: Predicate
    drop: float
    importance_before: float
    importance_after: float


def affinity_list(
    reports: ReportSet,
    anchor: int,
    candidates: Optional[np.ndarray] = None,
    top: Optional[int] = None,
) -> List[AffinityEntry]:
    """Rank predicates by how much selecting ``anchor`` deflates them.

    Args:
        reports: Feedback-report population.
        anchor: Predicate index whose affinity list is requested.
        candidates: Optional boolean mask restricting the listed
            predicates (e.g. the pruning survivors).
        top: If given, truncate the list to the ``top`` largest drops.

    Returns:
        Affinity entries sorted by decreasing drop, anchor excluded.
    """
    if candidates is None:
        candidates = np.ones(reports.n_predicates, dtype=bool)
    else:
        candidates = np.asarray(candidates, dtype=bool)

    before = importance_scores(compute_scores(reports)).importance
    without_anchor = ~reports.true_mask(anchor)
    after = importance_scores(compute_scores(reports, run_mask=without_anchor)).importance

    drop = before - after
    entries: List[AffinityEntry] = []
    for idx in np.flatnonzero(candidates):
        if idx == anchor:
            continue
        entries.append(
            AffinityEntry(
                predicate=reports.table.predicates[int(idx)],
                drop=float(drop[idx]),
                importance_before=float(before[idx]),
                importance_after=float(after[idx]),
            )
        )
    entries.sort(key=lambda e: e.drop, reverse=True)
    if top is not None:
        entries = entries[:top]
    return entries


def affinity_groups(
    reports: ReportSet,
    selected: List[int],
    threshold: float = 0.5,
) -> List[List[int]]:
    """Cluster selected predictors into likely same-bug groups.

    The interactive-tool feature from Section 3.4, systematised: two
    selected predictors belong together when removing either one's runs
    deflates the other's importance by at least ``threshold`` of its
    value (the CCRYPT/BC studies used exactly this signal to recognise
    that their two selections were one bug).

    Returns:
        Predicate-index groups, each sorted, in first-appearance order.
    """
    before = importance_scores(compute_scores(reports)).importance

    n = len(selected)
    related = np.zeros((n, n), dtype=bool)
    for i, anchor in enumerate(selected):
        without = ~reports.true_mask(anchor)
        after = importance_scores(compute_scores(reports, run_mask=without)).importance
        for j, other in enumerate(selected):
            if i == j:
                continue
            base = before[other]
            if base <= 0:
                continue
            if (base - after[other]) >= threshold * base:
                related[i, j] = True

    # Union-find over the symmetric closure.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if related[i, j] or related[j, i]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(selected[i])
    return [sorted(g) for g in groups.values()]

