"""A factory-made subject, collected over the daemon, bug isolated.

The subject factory manufactures bug subjects from ordinary Python
packages: an import-hook loader instruments every module of the package
into one shared site table, and a deterministic mutation engine injects
a seeded bug stamped with ``record_bug`` for ground-truth grading.

Workflow demonstrated here on ``wrapx-swap1`` (the vendored text-
wrapping package with an operator-swap mutation):

1. build the mutated subject and its instrumented whole-package
   program;
2. start a collection daemon over a fresh shard store (the same server
   ``repro-cbi serve`` runs) and upload seeded client trials through
   the spool -> HTTP -> ingest path;
3. score the served store and grade every registered suspiciousness
   measure against the injected bug's ground-truth site;
4. assert the bug's predicate ranks in the top five for at least one
   measure -- the factory-smoke acceptance bar.

Run with:  python examples/factory_bug_hunt.py
"""

import os
import tempfile

from repro.cli import SUBJECTS
from repro.core.engine import AnalysisEngine
from repro.core.truth import faulty_predicate_mask
from repro.harness.bakeoff import rank_metrics
from repro.instrument.sampling import SamplingPlan
from repro.serve import CollectionService, FeedbackServer
from repro.serve.client import drain_spool, run_and_spool, ReportSpool
from repro.store import ShardStore

ISOLATION_RANK = 5


def main() -> None:
    n_runs = int(os.environ.get("REPRO_EXAMPLE_RUNS", 300))
    subject = SUBJECTS["wrapx-swap1"]()
    program = subject.build_program()
    plan = SamplingPlan.full()
    print(
        f"subject {subject.name}: kind={subject.kind}, "
        f"mutation={subject.mutation_class}, "
        f"{program.table.n_sites} sites / "
        f"{program.table.n_predicates} predicates"
    )

    workdir = tempfile.mkdtemp(prefix="repro-factory-")
    store_dir = os.path.join(workdir, "served")
    store = ShardStore.open_or_create(
        store_dir, subject.name, program.table, plan
    )
    service = CollectionService(store, subject, batch_runs=20)
    server = FeedbackServer(service, port=0).start()
    print(f"daemon listening on {server.url}")
    try:
        spool = ReportSpool(os.path.join(workdir, "spool"))
        run_and_spool(subject, program, plan, spool, n_runs, seed=0)
        result = drain_spool(
            spool,
            server.url,
            subject.name,
            program.table.signature(),
            batch_size=17,
        )
        print(f"daemon accepted {len(result.accepted)} reports")
    finally:
        server.close(drain=True)

    served = ShardStore.open(store_dir)
    engine = AnalysisEngine()
    stats = engine.store_stats(served)
    faulty = faulty_predicate_mask(program.table, subject.bug_sites())

    from repro.core import measures

    best = None
    for name in sorted(measures.available()):
        scoring = engine.score_stats(stats, measure=name)
        cell = rank_metrics(program.table, scoring.measure_values, faulty)
        rank = cell["rank_of_first_faulty_site"]
        print(
            f"  {name:<14} rank {rank:>4}   "
            f"top predicate: {cell['first_faulty_predicate']}"
        )
        if rank is not None and (best is None or rank < best):
            best = rank

    assert best is not None and best <= ISOLATION_RANK, (
        f"injected bug not isolated: best rank {best}"
    )
    print(f"injected bug isolated at rank {best} (<= {ISOLATION_RANK})")


if __name__ == "__main__":
    main()
