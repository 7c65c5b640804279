"""Table 8: minimum number of runs needed to isolate each bug predictor.

Methodology (Section 4.3): for each isolated bug take its predictor P,
compute ``Importance_N(P)`` over run prefixes, and report the smallest N
whose importance is within 0.2 of the full-population importance, along
with F(P) over those N runs.

Shape claims:

* every isolated bug converges with a handful-to-tens of observed
  failing runs (the paper: 10-40);
* required N varies by an order of magnitude or more across bugs;
* rarer bugs need more total runs -- "results degrade gracefully with
  fewer runs, with the predictors for rare bugs dropping out first".
"""

from repro.core.runs_needed import runs_needed
from repro.core.truth import dominant_bug
from repro.harness.tables import format_runs_needed_table

from benchmarks.conftest import write_result


def _chosen_predictors(exp):
    """One predictor per bug: the highest-ranked selection dominating it."""
    chosen = {}
    for sel in exp.elimination.selected:
        dom = dominant_bug(exp.reports, exp.truth, sel.predicate.index)
        if dom is None:
            continue
        chosen.setdefault(dom[0], sel.predicate.index)
    return chosen


def test_table8_runs_needed(benchmark, all_benches):
    schedule = list(range(100, 1000, 100)) + list(range(1000, 26000, 1000))

    results = {}
    bug_rarity = {}
    for name, exp in all_benches.items():
        chosen = _chosen_predictors(exp)
        per_bug = {}
        for bug, pred in chosen.items():
            per_bug[bug] = runs_needed(exp.reports, pred, schedule=schedule)
            bug_rarity[(name, bug)] = int(exp.truth.bug_profile(bug, exp.reports).sum())
        results[name] = per_bug

    # Benchmark one representative convergence computation.
    moss = all_benches["moss"]
    moss_chosen = _chosen_predictors(moss)
    some_pred = next(iter(moss_chosen.values()))
    benchmark.pedantic(
        lambda: runs_needed(moss.reports, some_pred, schedule=schedule),
        rounds=2,
        iterations=1,
    )

    converged = {
        (name, bug): res
        for name, per_bug in results.items()
        for bug, res in per_bug.items()
        if res.runs_needed is not None
    }
    assert len(converged) >= 6, "most predictors must converge in-population"

    # F(P) at convergence is small: tens of failing observations suffice.
    f_values = [res.failing_true_at_n for res in converged.values()]
    assert all(f <= 120 for f in f_values)
    assert any(f <= 40 for f in f_values)

    # Required N spans a wide range across bugs.
    n_values = [res.runs_needed for res in converged.values()]
    assert max(n_values) >= 4 * min(n_values), n_values

    # Rarer bugs (smaller profiles) tend to need more runs: compare each
    # experiment's rarest and commonest converged bug.
    for name, per_bug in results.items():
        conv = {
            b: r for b, r in per_bug.items() if r.runs_needed is not None
        }
        if len(conv) < 2:
            continue
        rarest = min(conv, key=lambda b: bug_rarity[(name, b)])
        commonest = max(conv, key=lambda b: bug_rarity[(name, b)])
        if bug_rarity[(name, rarest)] * 3 <= bug_rarity[(name, commonest)]:
            assert conv[rarest].runs_needed >= conv[commonest].runs_needed, (
                name,
                rarest,
                commonest,
            )

    write_result("table8.txt", format_runs_needed_table(results))
