"""Decoupled collection and analysis, like a real CBI deployment.

The deployed half of CBI collects feedback reports from user machines;
the analysis half runs later, elsewhere.  This example mirrors that
split:

1. collect a BC population on all cores as a shard store
   (`run_trials_sharded`);
2. hand the store directory -- the one on-disk form of the corpus --
   to the "lab";
3. there, open the store, merge its shards (`load_merged`) and run the
   full analysis -- pruning, elimination, affinity grouping -- without
   touching the subject.

Run with:  python examples/report_archive_workflow.py [n_runs]
"""

import os
import sys
import tempfile

from repro import compute_scores, eliminate, prune_predicates
from repro.core.affinity import affinity_groups
from repro.core.truth import dominant_bug
from repro.harness.parallel import run_trials_sharded
from repro.harness.tables import format_predictor_table
from repro.instrument.sampling import SamplingPlan
from repro.store import ShardStore
from repro.subjects.bc import BcSubject


def main(n_runs: int = 1500) -> None:
    subject = BcSubject()

    with tempfile.TemporaryDirectory(prefix="bc-") as workdir:
        print(f"collection site: running {n_runs} bc programs on 4 workers...")
        store_dir = os.path.join(workdir, "store")
        store = run_trials_sharded(
            subject,
            n_runs,
            SamplingPlan.uniform(0.1),
            store_dir,
            seed=0,
            jobs=4,
        )
        size_kb = sum(os.path.getsize(p) for p in store.shard_paths()) // 1024
        print(f"stored {store.n_runs} runs ({store.num_failing} failing) "
              f"in {store.n_shards} shard(s) under {store_dir} ({size_kb} KiB)")

        print("\nanalysis site: opening the store...")
        loaded, loaded_truth = ShardStore.open(store_dir).load_merged()
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
