"""Ground-truth bug profiles for controlled experiments (Section 4.1).

In the MOSS validation experiment the authors "separately recorded the
exact set of bugs that actually occurred in each run"; the right-hand
columns of Table 3 then show, per selected predicate and per bug, how many
failing runs exhibit both.  This module provides that side channel.

Ground truth is *never* visible to the isolation algorithm -- it exists
only so experiments can grade the algorithm's output.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.reports import ReportSet, RunReport


@dataclass
class GroundTruth:
    """Per-run record of which bugs actually occurred.

    Attributes:
        bug_ids: All known bug identifiers, in display order.
        occurrences: One frozen set of bug ids per run, aligned with the
            report set's run order.
    """

    bug_ids: List[str]
    occurrences: List[FrozenSet[str]] = field(default_factory=list)

    @classmethod
    def from_runs(cls, bug_ids: Sequence[str], runs: Sequence[RunReport]) -> "GroundTruth":
        """The bugs of ``runs``, in their order, over the ``bug_ids`` universe."""
        truth = cls(bug_ids=list(bug_ids))
        for run in runs:
            truth.add_run(run.bugs)
        return truth

    def add_run(self, bugs: Sequence[str]) -> None:
        """Record the bugs triggered during one run (may be empty)."""
        unknown = set(bugs) - set(self.bug_ids)
        if unknown:
            raise ValueError(f"unknown bug ids: {sorted(unknown)}")
        self.occurrences.append(frozenset(bugs))

    @property
    def n_runs(self) -> int:
        """Number of recorded runs."""
        return len(self.occurrences)

    def occurrence_mask(self, bug_id: str) -> np.ndarray:
        """Boolean run mask of where ``bug_id`` occurred."""
        return np.asarray([bug_id in occ for occ in self.occurrences], dtype=bool)

    def bug_profile(self, bug_id: str, reports: ReportSet) -> np.ndarray:
        """The bug profile ``B``: failing runs where the bug occurred.

        Note ``Bi & Bj`` is not empty in general -- more than one bug can
        occur in a run (Section 1).
        """
        self._check_aligned(reports)
        return self.occurrence_mask(bug_id) & reports.failed

    def triggered_bugs(self, reports: ReportSet) -> List[str]:
        """Bug ids whose profile is non-empty (cause at least one failure)."""
        self._check_aligned(reports)
        return [b for b in self.bug_ids if self.bug_profile(b, reports).any()]

    def occurrence_counts(self) -> Dict[str, int]:
        """Total runs (of any outcome) in which each bug occurred."""
        return {b: int(self.occurrence_mask(b).sum()) for b in self.bug_ids}

    def _check_aligned(self, reports: ReportSet) -> None:
        if self.n_runs != reports.n_runs:
            raise ValueError(
                f"ground truth covers {self.n_runs} runs but report set has "
                f"{reports.n_runs}"
            )

    def subset(self, run_mask: np.ndarray) -> "GroundTruth":
        """Restrict the truth record to the masked runs."""
        idx = np.flatnonzero(np.asarray(run_mask, dtype=bool))
        sub = GroundTruth(bug_ids=list(self.bug_ids))
        sub.occurrences = [self.occurrences[i] for i in idx]
        return sub

    @classmethod
    def merge(cls, parts: Sequence["GroundTruth"]) -> "GroundTruth":
        """Concatenate per-shard truth records, preserving run order.

        The counterpart of :meth:`repro.core.reports.ReportSet.merge`;
        all parts must agree on the bug-id universe.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("cannot merge an empty sequence of truth records")
        bug_ids = list(parts[0].bug_ids)
        for i, part in enumerate(parts[1:], start=1):
            if list(part.bug_ids) != bug_ids:
                raise ValueError(
                    f"truth record {i} has bug ids {part.bug_ids} but the "
                    f"first shard declared {bug_ids}"
                )
        merged = cls(bug_ids=bug_ids)
        for part in parts:
            merged.occurrences.extend(part.occurrences)
        return merged


def cooccurrence_table(
    reports: ReportSet,
    truth: GroundTruth,
    predicate_indices: Sequence[int],
    bug_ids: Optional[Sequence[str]] = None,
) -> Dict[int, Dict[str, int]]:
    """Build the right-hand columns of Table 3.

    For each predicate ``P`` and bug ``B``: the number of *failing* runs in
    which ``P`` was observed to be true and ``B`` occurred.

    Returns:
        ``{predicate_index: {bug_id: count}}``.
    """
    if bug_ids is None:
        bug_ids = truth.bug_ids
    truth._check_aligned(reports)
    bug_masks = {b: truth.occurrence_mask(b) & reports.failed for b in bug_ids}
    out: Dict[int, Dict[str, int]] = {}
    for pred in predicate_indices:
        true_mask = reports.true_mask(pred)
        out[pred] = {b: int((true_mask & mask).sum()) for b, mask in bug_masks.items()}
    return out


def dominant_bug(
    reports: ReportSet, truth: GroundTruth, predicate_index: int
) -> Optional[Tuple[str, int]]:
    """Return the bug most co-occurring with a predicate's failing runs.

    Returns ``(bug_id, count)`` or ``None`` when the predicate is true in
    no failing run.  Used to grade whether a selected predictor "has a
    very strong spike at one bug" (Section 4.1).
    """
    table = cooccurrence_table(reports, truth, [predicate_index])
    counts = table[predicate_index]
    if not counts:
        return None
    bug = max(counts, key=lambda b: counts[b])
    if counts[bug] == 0:
        return None
    return bug, counts[bug]


def classify_predictor(
    reports: ReportSet,
    truth: GroundTruth,
    predicate_index: int,
    coverage_threshold: float = 0.5,
) -> str:
    """Grade a predictor as ``"bug"``, ``"sub-bug"``, ``"super-bug"`` or
    ``"none"`` against ground truth (the Section 1 taxonomy).

    For each bug, compute the *share* of the bug's failures the
    predicate covers.  Covering at least ``coverage_threshold`` of two
    or more bugs' profiles makes a super-bug predictor; of exactly one,
    a bug predictor; of none (while still covering some failures), a
    sub-bug predictor -- it characterises only a subset of some bug's
    instances.
    """
    true_fail = reports.true_mask(predicate_index) & reports.failed
    if not true_fail.any():
        return "none"
    strong = 0
    for bug in truth.bug_ids:
        profile = truth.bug_profile(bug, reports)
        size = int(profile.sum())
        if size == 0:
            continue
        share = int((true_fail & profile).sum()) / size
        if share >= coverage_threshold:
            strong += 1
    if strong >= 2:
        return "super-bug"
    if strong == 1:
        return "bug"
    return "sub-bug"


@dataclass(frozen=True)
class BugSite:
    """A ground-truth bug location in a subject's source.

    The subjects mark every injected fault by calling
    ``record_bug("<bug-id>")`` at the faulty line -- a side channel the
    instrumentation never sees.  A :class:`BugSite` is the static view of
    one such call: the bug id, the enclosing function, and the 1-based
    source line.  The bake-off harness grades suspiciousness measures by
    how early they rank a predicate belonging to a faulty function.

    Attributes:
        bug_id: The literal id passed to ``record_bug``.
        function: Name of the innermost enclosing function (``"<module>"``
            for module-level calls).
        line: 1-based line number of the call in the subject source.
    """

    bug_id: str
    function: str
    line: int


def bug_sites_from_source(source: str, function_prefix: str = "") -> List[BugSite]:
    """Statically extract every ``record_bug("<id>")`` call site.

    Walks the subject's AST tracking the enclosing function, so the
    returned line numbers and function names align with the
    :class:`~repro.core.predicates.Site` records the instrumentation
    derives from the *same* source text.  Only string-literal bug ids are
    recognised (all subjects use literals); dynamic ids are skipped.

    ``function_prefix`` mirrors the instrumenter's option of the same
    name: multi-module factory subjects qualify every function name with
    its module so sites from different modules never collide.

    Returns sites in source order.
    """
    tree = ast.parse(source)
    sites: List[BugSite] = []

    def walk(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            scope = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = function_prefix + child.name
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.id if isinstance(callee, ast.Name) else (
                    callee.attr if isinstance(callee, ast.Attribute) else None
                )
                if (
                    name == "record_bug"
                    and child.args
                    and isinstance(child.args[0], ast.Constant)
                    and isinstance(child.args[0].value, str)
                ):
                    sites.append(
                        BugSite(
                            bug_id=child.args[0].value,
                            function=function,
                            line=child.lineno,
                        )
                    )
            walk(child, scope)

    walk(tree, function_prefix + "<module>")
    return sites


def faulty_predicate_mask(table, bug_sites: Sequence[BugSite]) -> np.ndarray:
    """Boolean mask of predicates instrumenting a faulty function.

    A predicate counts as *faulty* when its site's enclosing function
    contains a ground-truth :class:`BugSite` -- function granularity,
    matching how the fault-localisation literature grades
    rank-of-first-faulty-element when exact line attribution is noisy
    (our instrumented sites rarely sit on the very ``record_bug`` line).

    Args:
        table: The :class:`~repro.core.predicates.PredicateTable` built
            from the same source the bug sites were scanned from.
        bug_sites: Output of :func:`bug_sites_from_source`.

    Returns:
        Length-``n_predicates`` boolean array.
    """
    faulty_functions = {site.function for site in bug_sites}
    mask = np.zeros(len(table.predicates), dtype=bool)
    for pred in table.predicates:
        if table.site_of(pred.index).function in faulty_functions:
            mask[pred.index] = True
    return mask


def bugs_covered(
    reports: ReportSet,
    truth: GroundTruth,
    predicate_indices: Sequence[int],
) -> Set[str]:
    """Bug ids with at least one failing run covered by a selected predicate.

    Lemma 3.1 guarantees this equals the set of bugs whose profiles
    intersect the predicated runs, so tests compare the two.
    """
    covered: Set[str] = set()
    for bug in truth.bug_ids:
        profile = truth.bug_profile(bug, reports)
        if not profile.any():
            continue
        for pred in predicate_indices:
            if (reports.true_mask(pred) & profile).any():
                covered.add(bug)
                break
    return covered
