"""Table 1: comparison of ranking strategies for MOSS (no elimination).

The paper's qualitative claims, which these benches assert:

(a) sorting by F(P) surfaces predicates true in many failing *and* many
    successful runs (huge white bands, tiny Increase);
(b) sorting by Increase(P) surfaces near-deterministic predicates with
    tiny failure counts (sub-bug predictors);
(c) the harmonic mean surfaces predicates with both high Increase and
    substantial failure counts.
"""

import numpy as np
import pytest

from repro.core.importance import importance_scores
from repro.core.ranking import rank
from repro.core.scores import compute_scores
from repro.harness.tables import format_ranking_table

from benchmarks.conftest import write_result

#: Table 1's three sort keys, by the label each panel prints.
KEYS = {
    "F(P)": lambda scores: scores.F.astype(np.float64),
    "Increase(P)": lambda scores: scores.increase,
    "harmonic mean": lambda scores: importance_scores(scores).importance,
}


def table1_rank(reports, label, top):
    """Rank by one Table 1 key after discarding the predicates whose
    Increase is undefined or not positive, as the paper does."""
    scores = compute_scores(reports)
    candidates = scores.defined & (scores.increase > 0.0)
    return rank(reports.table, scores, KEYS[label](scores), candidates, top=top)


@pytest.fixture(scope="module")
def rankings(moss_bench):
    return {label: table1_rank(moss_bench.reports, label, top=200) for label in KEYS}


def test_table1a_sort_by_failure_count(benchmark, moss_bench, rankings):
    reports = moss_bench.reports
    result = benchmark.pedantic(
        lambda: table1_rank(reports, "F(P)", top=10),
        rounds=3,
        iterations=1,
    )
    top = rankings["F(P)"][:10]
    assert top, "ranking must be non-empty"
    # High-F predicates are weakly correlated: most carry many
    # successful runs too (the large white band).
    with_successes = sum(1 for e in top if e.row.S > e.row.F * 0.5)
    assert with_successes >= 5
    # And their Increase scores are far from 1.0.
    assert sum(1 for e in top if e.row.increase < 0.5) >= 5
    write_result(
        "table1a.txt",
        format_ranking_table(rankings["F(P)"], "Table 1(a)", "F(P)"),
    )


def test_table1b_sort_by_increase(benchmark, moss_bench, rankings):
    reports = moss_bench.reports
    benchmark.pedantic(
        lambda: table1_rank(reports, "Increase(P)", top=10),
        rounds=3,
        iterations=1,
    )
    top = rankings["Increase(P)"][:10]
    assert top
    # Near-deterministic thermometers ...
    assert all(e.row.increase > 0.5 for e in top)
    # ... but tiny failure counts relative to the population (sub-bug
    # predictors): compare against strategy (c)'s coverage.
    best_f_by_importance = max(
        e.row.F for e in rankings["harmonic mean"][:10]
    )
    median_f = sorted(e.row.F for e in top)[len(top) // 2]
    assert median_f <= best_f_by_importance
    write_result(
        "table1b.txt",
        format_ranking_table(rankings["Increase(P)"], "Table 1(b)", "Increase(P)"),
    )


def test_table1c_harmonic_mean(benchmark, moss_bench, rankings):
    reports = moss_bench.reports
    benchmark.pedantic(
        lambda: table1_rank(reports, "harmonic mean", top=10),
        rounds=3,
        iterations=1,
    )
    top = rankings["harmonic mean"][:10]
    assert top
    # Balanced: good Increase AND meaningful failure coverage.
    assert all(e.row.increase > 0.2 for e in top[:5])
    assert sum(e.row.F for e in top[:5]) >= 40
    write_result(
        "table1c.txt",
        format_ranking_table(rankings["harmonic mean"], "Table 1(c)", "harmonic mean"),
    )
