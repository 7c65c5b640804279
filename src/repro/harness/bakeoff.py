"""The measure bake-off harness behind ``repro-cbi bakeoff``.

Runs every registered suspiciousness measure (:mod:`repro.core.measures`)
on every subject against the static ground-truth bug sites
(:func:`repro.core.truth.bug_sites_from_source`) and reports, per
``(measure, subject)`` cell:

* **rank of first faulty site** -- 1-based position, in the measure's
  full-table descending ranking (stable ties by predicate index), of the
  first predicate whose site lies in a faulty function;
* **wasted effort** -- the number of *distinct non-faulty sites* a
  developer would examine before reaching that predicate (the standard
  "wasted effort" cost model of the SBFL literature, at site
  granularity so duplicate predicates on one site are not double-billed).

Trials are fully deterministic (seeded inputs, full observation -- no
sampling noise in the counts), so the emitted document is reproducible
bit for bit; CI compares the Importance row against a committed baseline
(:func:`compare_to_baseline`).  Regenerating the paper's own ranking is
the ``importance`` row of the matrix: the registry entry delegates to
:func:`repro.core.importance.importance_scores`, so that row is
bit-identical to the historical pipeline by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import measures
from repro.core.ranking import order
from repro.core.scores import SufficientStats
from repro.core.truth import faulty_predicate_mask
from repro.instrument.sampling import SamplingPlan

#: Document schema identifier, bumped on layout changes.
BAKEOFF_SCHEMA = "repro-bakeoff/v1"

#: Default trials per subject; enough for every subject to surface each
#: measure's ordering while keeping the full 5-subject matrix fast.
DEFAULT_RUNS = 400


def rank_metrics(
    table, values: np.ndarray, faulty_mask: np.ndarray
) -> Dict[str, object]:
    """Grade one measure's value array against the faulty-predicate mask.

    The ranking is the full-table :func:`repro.core.ranking.order` of
    ``values`` (ties resolve in predicate-index order).  Returns the metric dict
    for one bake-off cell; all three metrics are ``None`` when no
    predicate is faulty (a subject with no extracted bug sites).
    """
    faulty_mask = np.asarray(faulty_mask, dtype=bool)
    if not faulty_mask.any():
        return {
            "rank_of_first_faulty_site": None,
            "wasted_effort_sites": None,
            "first_faulty_predicate": None,
        }
    examined_sites: set = set()
    for rank, idx in enumerate(order(values), start=1):
        idx = int(idx)
        if faulty_mask[idx]:
            pred = table.predicates[idx]
            return {
                "rank_of_first_faulty_site": rank,
                "wasted_effort_sites": len(examined_sites),
                "first_faulty_predicate": pred.name,
            }
        examined_sites.add(table.predicates[idx].site_index)
    raise AssertionError("faulty_mask.any() held but no faulty predicate ranked")


def run_bakeoff(
    subjects: Dict[str, object],
    subject_names: Optional[Sequence[str]] = None,
    measure_names: Optional[Sequence[str]] = None,
    runs: Optional[int] = None,
    seed: int = 0,
) -> Dict[str, object]:
    """Run the full measure x subject bake-off matrix.

    Args:
        subjects: Name -> subject-constructor mapping
            (``repro.cli.SUBJECTS``; classes or any zero-arg callables).
        subject_names: Subset of subjects to grade (default: all, in
            registry order).
        runs: Deterministic trials per subject, full observation.  When
            ``None``, builtin subjects get :data:`DEFAULT_RUNS` and
            factory subjects follow their auto-derived ``trial_budget``
            (their failure rates vary too widely for one fixed count).
        measure_names: Subset of measures (default: every registered
            measure, sorted).
        seed: Base trial seed.

    Returns:
        A ``repro-bakeoff/v1`` JSON document (see ``docs/MEASURES.md``).
        When any graded subject is factory-made, the document carries a
        ``mutation_classes`` section summarising rank-of-first-faulty-site
        per mutation class for every measure.
    """
    from repro.core.engine import AnalysisEngine
    from repro.harness.runner import run_trials

    names = list(subject_names) if subject_names else list(subjects)
    mnames = list(measure_names) if measure_names else list(measures.available())
    for m in mnames:
        measures.get(m)  # fail fast on unknown names
    engine = AnalysisEngine()

    subject_docs: Dict[str, object] = {}
    matrix: Dict[str, Dict[str, Dict[str, object]]] = {m: {} for m in mnames}
    by_class: Dict[str, List[str]] = {}
    for name in names:
        subject = subjects[name]()
        program = subject.build_program()
        sites = subject.bug_sites()
        faulty = faulty_predicate_mask(program.table, sites)
        mutation_class = getattr(subject, "mutation_class", None)
        if mutation_class is not None:
            by_class.setdefault(mutation_class, []).append(name)
        n_runs = runs
        if n_runs is None:
            n_runs = (
                subject.trial_budget if subject.kind == "factory" else DEFAULT_RUNS
            )
        reports, _truth = run_trials(
            subject, program, n_runs, SamplingPlan.full(), seed=seed
        )
        stats = SufficientStats.from_reports(reports)
        subject_docs[name] = {
            "runs": int(reports.n_runs),
            "failing": int(reports.failed.sum()),
            "kind": subject.kind,
            "mutation_class": mutation_class,
            "predicates": int(len(program.table.predicates)),
            "faulty_predicates": int(faulty.sum()),
            "bug_sites": [
                {"bug_id": s.bug_id, "function": s.function, "line": s.line}
                for s in sites
            ],
        }
        for m in mnames:
            scoring = engine.score_stats(stats, measure=m)
            matrix[m][name] = rank_metrics(
                program.table, scoring.measure_values, faulty
            )

    document: Dict[str, object] = {
        "schema": BAKEOFF_SCHEMA,
        "runs": None if runs is None else int(runs),
        "seed": int(seed),
        "sampling": "full",
        "subjects": subject_docs,
        "measures": [
            {
                "measure": m,
                "version": measures.get(m).version,
                "formula": measures.get(m).formula,
                "results": matrix[m],
            }
            for m in mnames
        ],
    }
    if by_class:
        document["mutation_classes"] = {
            m: {
                cls: _class_summary(matrix[m], subs)
                for cls, subs in sorted(by_class.items())
            }
            for m in mnames
        }
    return document


def _class_summary(
    row: Dict[str, Dict[str, object]], subject_names: List[str]
) -> Dict[str, object]:
    """Aggregate one measure's ranks over one mutation class."""
    ranks = {
        name: row[name]["rank_of_first_faulty_site"] for name in subject_names
    }
    ranked = sorted(r for r in ranks.values() if r is not None)
    return {
        "ranks": ranks,
        "best_rank": ranked[0] if ranked else None,
        "median_rank": ranked[len(ranked) // 2] if ranked else None,
        "isolated_at_5": sum(1 for r in ranked if r <= 5),
        "subjects": len(subject_names),
    }


@dataclass
class BaselineRegression:
    """One Importance-row regression against a committed baseline."""

    subject: str
    baseline_rank: int
    current_rank: Optional[int]

    def __str__(self) -> str:
        cur = "unranked" if self.current_rank is None else str(self.current_rank)
        return (
            f"importance rank-of-first-faulty-site regressed on "
            f"{self.subject}: baseline {self.baseline_rank}, now {cur}"
        )


def compare_to_baseline(
    document: Dict[str, object], baseline: Dict[str, object]
) -> List[BaselineRegression]:
    """Compare the Importance row against a committed baseline document.

    A *regression* is a strictly larger (or newly missing)
    rank-of-first-faulty-site for a subject both documents grade.
    Subjects present only on one side are ignored, so a quick CI run over
    one subject can gate against a full committed matrix.
    """

    def importance_row(doc: Dict[str, object]) -> Dict[str, Dict[str, object]]:
        for entry in doc.get("measures", []):
            if entry.get("measure") == "importance":
                return entry.get("results", {})
        return {}

    base_row = importance_row(baseline)
    cur_row = importance_row(document)
    regressions: List[BaselineRegression] = []
    for subject in sorted(set(base_row) & set(cur_row)):
        base_rank = base_row[subject].get("rank_of_first_faulty_site")
        cur_rank = cur_row[subject].get("rank_of_first_faulty_site")
        if base_rank is None:
            continue
        if cur_rank is None or cur_rank > base_rank:
            regressions.append(
                BaselineRegression(
                    subject=subject,
                    baseline_rank=int(base_rank),
                    current_rank=None if cur_rank is None else int(cur_rank),
                )
            )
    return regressions
