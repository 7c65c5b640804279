"""Table 3: MOSS failure predictors under nonuniform (adaptive) sampling.

The validation experiment of Section 4.1.  Shape claims:

* the selected predictors each spike at one bug (strong dominant-bug
  co-occurrence);
* together the top predictors cover every bug that actually caused
  failures and is predicable at all;
* the never-triggered bug (moss8) cannot appear;
* the harmless overrun (moss7) gets no dedicated predictor;
* selection is low-redundancy: far fewer predictors than pruning
  survivors.
"""

from repro.core.elimination import eliminate
from repro.core.truth import bugs_covered, cooccurrence_table
from repro.harness.tables import format_predictor_table

from benchmarks.conftest import write_result


def test_table3_moss_validation(benchmark, moss_bench):
    reports, truth = moss_bench.reports, moss_bench.truth
    candidates = moss_bench.pruning.kept

    elimination = benchmark.pedantic(
        lambda: eliminate(reports, candidates=candidates, max_predictors=20),
        rounds=2,
        iterations=1,
    )
    selected = [s.predicate.index for s in elimination.selected]
    assert selected

    co = cooccurrence_table(reports, truth, selected)

    # Each top predictor spikes at one bug: its dominant bug accounts
    # for a majority of its failing runs (allowing overlap noise).
    spikes = 0
    dominated = set()
    for idx in selected[:8]:
        row = co[idx]
        total = sum(row.values())
        if total == 0:
            continue
        bug, count = max(row.items(), key=lambda kv: kv[1])
        if count >= total * 0.5:
            spikes += 1
            dominated.add(bug)
    assert spikes >= 4, f"expected strong per-bug spikes, got {spikes}"

    # Coverage: every triggered bug with a meaningful profile is
    # represented among the selections (Lemma 3.1 in the field).
    covered = bugs_covered(reports, truth, selected)
    for bug in truth.triggered_bugs(reports):
        profile = int(truth.bug_profile(bug, reports).sum())
        if profile >= 10:
            assert bug in covered, f"{bug} ({profile} failures) uncovered"

    # moss8 never triggers; moss7 never earns a dedicated predictor.
    assert not truth.bug_profile("moss8", reports).any()
    assert "moss8" not in dominated
    assert "moss7" not in dominated

    # Low redundancy: the list is much shorter than the pruned set.
    assert len(selected) <= max(int(candidates.sum()) // 3, 8)

    write_result(
        "table3.txt",
        format_predictor_table(elimination, co, bug_ids=list(truth.bug_ids)),
    )
