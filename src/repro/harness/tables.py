"""Text renderings of the paper's table layouts.

Every benchmark prints its table through these helpers so the output can
be compared side by side with the paper: thermometers, Context/Increase
columns, S/F counts, and (for the validation experiment) the per-bug
co-occurrence columns of Table 3.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.core.elimination import EliminationResult
from repro.core.ranking import RankedPredicate
from repro.core.runs_needed import RunsNeededResult
from repro.core.scores import ScoreRow
from repro.core.thermometer import Thermometer


def _thermometer_text(row: ScoreRow, max_runs: int, width: int = 16) -> str:
    return Thermometer.from_row(row, max_runs=max_runs).render_text(width)


def _row_columns(row: ScoreRow) -> str:
    return (
        f"{row.context:5.3f}  {row.increase:6.3f} ±{max(row.increase - row.increase_lo, 0.0):5.3f}  "
        f"{row.S:>6d} {row.F:>6d} {row.F + row.S:>7d}"
    )


def format_ranking_table(
    ranking: Sequence[RankedPredicate], title: str, label: str, top: int = 10
) -> str:
    """Render one Table 1 panel: a ranking and the ``label`` of its key."""
    entries = ranking[:top]
    max_runs = max((e.row.F + e.row.S for e in entries), default=1)
    lines = [
        f"--- {title} (sorted by {label}) ---",
        f"{'thermometer':<18} {'Context':>7} {'Increase':>15} {'S':>6} {'F':>6} {'F+S':>7}  predicate",
    ]
    for e in entries:
        lines.append(
            f"{_thermometer_text(e.row, max_runs)} {_row_columns(e.row)}  {e.predicate.name}"
        )
    remaining = len(ranking) - len(entries)
    if remaining > 0:
        lines.append(f"... {remaining} additional predicates follow ...")
    return "\n".join(lines)


def format_summary_table(summaries: Sequence[Mapping[str, object]]) -> str:
    """Render Table 2: the per-subject predicate funnel."""
    header = (
        f"{'subject':<10} {'LoC':>5} {'success':>8} {'failing':>8} {'sites':>7} "
        f"{'initial':>8} {'Increase>0':>11} {'elimination':>12}"
    )
    lines = [header, "-" * len(header)]
    for s in summaries:
        lines.append(
            f"{s['subject']:<10} {s['lines_of_code']:>5} {s['successful_runs']:>8} "
            f"{s['failing_runs']:>8} {s['sites']:>7} {s['initial_predicates']:>8} "
            f"{s['after_increase_pruning']:>11} {s['after_elimination']:>12}"
        )
    return "\n".join(lines)


def format_predictor_table(
    elimination: EliminationResult,
    cooccurrence: Optional[Dict[int, Dict[str, int]]] = None,
    bug_ids: Optional[Sequence[str]] = None,
    width: int = 14,
) -> str:
    """Render a Table 3/4/5/6/7-style predictor list.

    Shows the initial and effective thermometers for each selected
    predictor and, when ground truth is supplied, the per-bug failing-run
    co-occurrence columns of Table 3.
    """
    max_runs = max(
        (s.initial.row.F + s.initial.row.S for s in elimination.selected), default=1
    )
    cols = ""
    if cooccurrence is not None and bug_ids:
        cols = "  " + " ".join(f"{b[-5:]:>6}" for b in bug_ids)
    lines = [
        f"{'initial':<{width + 2}} {'effective':<{width + 2}} "
        f"{'imp':>6} {'Inc':>6} {'S':>5} {'F':>5}  predicate{cols}"
    ]
    for sel in elimination.selected:
        counts = ""
        if cooccurrence is not None and bug_ids:
            row = cooccurrence.get(sel.predicate.index, {})
            counts = "  " + " ".join(f"{row.get(b, 0):>6d}" for b in bug_ids)
        lines.append(
            f"{_thermometer_text(sel.initial.row, max_runs, width)} "
            f"{_thermometer_text(sel.effective.row, max_runs, width)} "
            f"{sel.effective.importance:>6.3f} {sel.effective.row.increase:>6.3f} "
            f"{sel.effective.row.S:>5d} {sel.effective.row.F:>5d}  "
            f"{sel.predicate.name:<40}{counts}"
        )
    return "\n".join(lines)


def format_runs_needed_table(
    results: Mapping[str, Mapping[str, RunsNeededResult]]
) -> str:
    """Render Table 8: minimum runs needed per bug, per subject."""
    lines = [f"{'subject':<12} {'bug':<8} {'F(P)':>6} {'N':>8}"]
    lines.append("-" * 38)
    for subject, bugs in results.items():
        for bug, res in bugs.items():
            n = res.runs_needed if res.runs_needed is not None else -1
            f = res.failing_true_at_n if res.failing_true_at_n is not None else -1
            lines.append(f"{subject:<12} {bug:<8} {f:>6d} {n:>8d}")
    return "\n".join(lines)


def format_logistic_table(ranked: Iterable, top: int = 10) -> str:
    """Render Table 9: top predicates by logistic-regression coefficient."""
    lines = [f"{'coefficient':>12}  predicate", "-" * 50]
    for i, (pred, coef) in enumerate(ranked):
        if i >= top:
            break
        lines.append(f"{coef:>12.6f}  {pred.name}")
    return "\n".join(lines)


def format_bakeoff_table(document: Mapping[str, object]) -> str:
    """Render a ``repro-bakeoff/v1`` document as a measures x subjects matrix.

    One row per measure, one column pair per subject:
    ``rank`` (rank of first faulty site) and ``waste`` (distinct
    non-faulty sites examined first).  ``-`` marks subjects with no
    ground-truth faulty predicate.  The ``runs`` row gives the trials
    each subject ran: without ``--runs`` factory subjects run their own
    ``trial_budget``, so the counts can differ per column.
    """
    subjects = document["subjects"]
    header = f"{'measure':<14}" + "".join(
        f" {s[:10]:>10} {'waste':>6}" for s in subjects
    )
    lines = [
        f"bake-off: seed {document['seed']}, {document['sampling']} sampling",
        header,
        "-" * len(header),
        (
            f"{'runs':<14}"
            + "".join(f" {subjects[s]['runs']:>10d} {'':>6}" for s in subjects)
        ).rstrip(),
    ]
    for entry in document["measures"]:
        cells = ""
        for s in subjects:
            res = entry["results"].get(s, {})
            rank = res.get("rank_of_first_faulty_site")
            waste = res.get("wasted_effort_sites")
            cells += (
                f" {'-':>10} {'-':>6}"
                if rank is None
                else f" {rank:>10d} {waste:>6d}"
            )
        lines.append(f"{entry['measure']:<14}" + cells)
    return "\n".join(lines)


def format_stack_table(study) -> str:
    """Render the Section 6 stack-signature study."""
    lines = [
        f"{'bug':<8} {'failures':>9} {'signatures':>11} {'dominant':>9} {'unique?':>8}",
        "-" * 50,
    ]
    for bug, stats in study.per_bug.items():
        if stats.failing_runs == 0:
            continue
        lines.append(
            f"{bug:<8} {stats.failing_runs:>9d} {len(stats.signatures):>11d} "
            f"{stats.dominant_share:>9.2f} {'yes' if stats.has_unique_signature else 'no':>8}"
        )
    lines.append(f"stack useful for {study.useful_fraction:.0%} of triggered bugs")
    return "\n".join(lines)
