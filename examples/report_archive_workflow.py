"""Decoupled collection and analysis, like a real CBI deployment.

The deployed half of CBI collects feedback reports from user machines;
the analysis half runs later, elsewhere.  This example mirrors that
split:

1. collect a BC population on all cores as a shard store
   (`run_trials_sharded`) and merge its shards (`load_merged`);
2. archive it to one self-describing v3 report archive (`save_reports`);
3. in the "lab", load the archive and run the full analysis -- pruning,
   elimination, affinity grouping -- without touching the subject.

Run with:  python examples/report_archive_workflow.py [n_runs]
"""

import os
import sys
import tempfile

from repro import compute_scores, eliminate, load_reports, prune_predicates, save_reports
from repro.core.affinity import affinity_groups
from repro.core.truth import dominant_bug
from repro.harness.parallel import run_trials_sharded
from repro.harness.tables import format_predictor_table
from repro.instrument.sampling import SamplingPlan
from repro.subjects.bc import BcSubject


def main(n_runs: int = 1500) -> None:
    subject = BcSubject()

    with tempfile.TemporaryDirectory(prefix="bc-") as workdir:
        print(f"collection site: running {n_runs} bc programs on 4 workers...")
        store = run_trials_sharded(
            subject,
            n_runs,
            SamplingPlan.uniform(0.1),
            os.path.join(workdir, "store"),
            seed=0,
            jobs=4,
        )
        reports, truth = store.load_merged()
        archive = os.path.join(workdir, "bc_reports.cbi")
        save_reports(archive, reports, truth)
        size_kb = os.path.getsize(archive) // 1024
        print(f"archived {reports.n_runs} runs ({reports.num_failing} failing) "
              f"from {len(store.manifest.shards)} shard(s) to {archive} "
              f"({size_kb} KiB)")

        print("\nanalysis site: loading the archive...")
        loaded, loaded_truth = load_reports(archive)
        pruning = prune_predicates(compute_scores(loaded))
        result = eliminate(loaded, candidates=pruning.kept, max_predictors=6)
        print(f"pruning: {pruning.n_initial} -> {pruning.n_kept}; "
              f"selected {len(result)} predictors")
        print(format_predictor_table(result))

        if len(result) > 1:
            groups = affinity_groups(
                loaded, [s.predicate.index for s in result.selected]
            )
            print(f"\naffinity grouping: {len(groups)} distinct bug group(s)")
            for group in groups:
                names = [loaded.table.predicates[i].name for i in group]
                print("  -", " | ".join(names))

        if loaded_truth is not None and result.selected:
            dom = dominant_bug(loaded, loaded_truth, result.selected[0].predicate.index)
            if dom:
                print(f"\nground truth confirms: top predictor dominates {dom[0]} "
                      f"({dom[1]} failing runs)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1
         else int(os.environ.get("REPRO_EXAMPLE_RUNS", 1500)))
