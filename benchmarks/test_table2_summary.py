"""Table 2: summary statistics for all five bug isolation experiments.

Shape claims reproduced from the paper:

* the ``Increase > 0`` test discards the overwhelming majority of
  predicates (RHYTHMBOX: 857,384 -> 537, a 99.9% reduction; every
  subject shows 2+ orders of magnitude);
* elimination reduces the survivors to a handful;
* each subject's instrumentation yields predicates roughly proportional
  to its size.
"""

from repro.core.pruning import prune_predicates
from repro.core.scores import compute_scores
from repro.harness.tables import format_summary_table

from benchmarks.conftest import write_result


def test_table2_summary(benchmark, all_benches):
    summaries = [exp.summary() for exp in all_benches.values()]

    # Benchmark the pruning pass on the largest population.
    moss = all_benches["moss"]
    benchmark.pedantic(
        lambda: prune_predicates(compute_scores(moss.reports)), rounds=3, iterations=1
    )

    for summary in summaries:
        initial = summary["initial_predicates"]
        kept = summary["after_increase_pruning"]
        final = summary["after_elimination"]
        # 2+ orders of magnitude from the Increase test (>= 95% here,
        # our populations being smaller than the paper's 32k runs).
        assert kept <= initial * 0.05, summary
        # Elimination ends with a short list.
        assert final <= 25, summary
        assert final <= kept or kept == 0
        # Both outcomes occur in every experiment.
        assert summary["successful_runs"] > 0
        assert summary["failing_runs"] > 0

    # Bigger programs have more sites (MOSS vs CCRYPT, as in the paper).
    by_name = {s["subject"]: s for s in summaries}
    assert by_name["moss"]["sites"] > by_name["ccrypt"]["sites"]

    write_result("table2.txt", format_summary_table(summaries))
