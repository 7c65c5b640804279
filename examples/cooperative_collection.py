"""The paper's deployment shape, end to end on one machine.

"The Cooperative Bug Isolation Project ... collects feedback reports
from instrumented applications running on end-user machines."

Workflow demonstrated here on CCRYPT:

1. start a collection daemon over a fresh shard store (in-process, on
   an ephemeral port -- the same server ``repro-cbi serve`` runs);
2. two "client machines" run seeded trials over disjoint seed ranges,
   spool their reports to disk, and upload them in gzipped batches --
   one of them through an injected flaky network (a refused connection
   it must retry);
3. poll the live ``GET /scores`` ranking as the population streams in;
4. arm an :class:`~repro.core.online.OnlineMonitor` from the live
   ranking and replay fresh runs: crashes announce themselves before
   they happen, closing the paper's feedback loop.

Run with:  python examples/cooperative_collection.py
"""

import os
import random
import tempfile

from repro.core.online import OnlineMonitor
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.serve import (
    CollectionService,
    FeedbackServer,
    fetch_scores,
    submit_session,
    watched_from_scores,
)
from repro.store import ShardStore
from repro.store.faults import FaultInjector, parse_faults
from repro.subjects import base
from repro.subjects.ccrypt import CcryptSubject


def main() -> None:
    subject = CcryptSubject()
    n_runs = int(os.environ.get("REPRO_EXAMPLE_RUNS", 400))
    n_replays = int(os.environ.get("REPRO_EXAMPLE_REPLAYS", 100))
    per_client = n_runs // 2

    program = instrument_source(subject.source(), subject.name)
    plan = SamplingPlan.full()
    workdir = tempfile.mkdtemp(prefix="repro-coop-")

    print("phase 1: starting the collection daemon...")
    store = ShardStore.open_or_create(
        os.path.join(workdir, "store"), subject.name, program.table, plan
    )
    service = CollectionService(store, subject, batch_runs=50)
    server = FeedbackServer(service, port=0).start()
    print(f"  serving {subject.name} on {server.url}")

    try:
        print(f"\nphase 2: two clients upload {per_client} runs each...")
        smooth = submit_session(
            subject, program, plan, server.url,
            os.path.join(workdir, "spool-a"), per_client, seed=0,
        )
        print(f"  client A: {len(smooth.accepted)} accepted "
              f"({smooth.requests} requests)")
        # Client B's first POST is refused; the spool + backoff retry
        # make the flaky network invisible in the final population.
        flaky = submit_session(
            subject, program, plan, server.url,
            os.path.join(workdir, "spool-b"), per_client, seed=per_client,
            faults=FaultInjector(parse_faults("net-refuse@0")),
            backoff_base=0.05, jitter=0.0,
        )
        print(f"  client B: {len(flaky.accepted)} accepted over a flaky "
              f"network ({flaky.retries} retries)")

        print("\nphase 3: the live ranking over the streamed population:")
        scores = fetch_scores(server.url, k=3)
        print(f"  {scores['n_runs']} runs committed, "
              f"{scores['num_failing']} failing")
        for entry in scores["predicates"]:
            print(f"  imp={entry['importance']:.3f} "
                  f"F={entry['F']:>4} S={entry['S']:>4}  {entry['name']}")

        print("\nphase 4: arming an online monitor from the live scores...")
        watched = watched_from_scores(scores, k=3)
        monitor = OnlineMonitor(program.runtime, watched)
        monitor.install()
        rng = random.Random(999)
        predicted = unpredicted = 0
        try:
            for i in range(n_replays):
                job = subject.generate_input(rng)
                monitor.reset()
                base.begin_truth_capture()
                program.begin_run(SamplingPlan.full(), seed=1_000_000 + i)
                crashed = False
                try:
                    program.func(subject.entry)(job)
                except Exception:
                    crashed = True
                program.end_run()
                base.end_truth_capture()
                if crashed:
                    predicted += int(monitor.fired)
                    unpredicted += int(not monitor.fired)
        finally:
            monitor.uninstall()
        print(f"  crashes predicted in-flight: "
              f"{predicted}/{predicted + unpredicted}")
    finally:
        drained = server.close(drain=True)

    print(f"\ndaemon drained {drained} pending reports on shutdown; "
          f"store holds {store.n_shards} shards, {store.n_runs} runs.")
    print("The committed store is bit-identical to a local collection of "
          "the same seeds -- retries, faults and all.")


if __name__ == "__main__":
    main()
