"""Section 5 extension: isolating predictors of *any* program event.

"While we have focused on bug finding, the same ideas can be used to
isolate predictors of any program event.  For example, we could
potentially look for early predictors of when the program will ... send
a message on the network, write to disk, or suspend itself."

Here we relabel RHYTHMBOX runs: instead of crash/no-crash, a run is
"interesting" when the session ended with a db version above a
threshold (a stand-in for "the program wrote to disk").  The identical
machinery then finds early predictors of that event.

Run with:  python examples/event_prediction.py [n_runs]
"""

import random
import os
import sys

import numpy as np

from repro.core.elimination import eliminate
from repro.core.pruning import prune_predicates
from repro.core.scores import compute_scores
from repro.harness.runner import run_trials
from repro.harness.tables import format_predictor_table
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.subjects.rhythmbox import RhythmboxSubject
from repro.subjects.rhythmbox.subject import generate_job
from repro.subjects.base import Subject


class QuietRhythmbox(Subject):
    """The rhythmbox program, labelling runs by an *event*, not a crash.

    The entry returns ``(processed, signals, db_version)``; we declare a
    run "failing" (= event occurred) when the final db version is high.
    Crashing runs are excluded up front so the event labelling is pure.
    """

    name = "rhythmbox-event"
    entry = "main"
    # The program still records its seeded races when they happen; we
    # keep them in the truth vocabulary even though this analysis is
    # about a different event entirely.
    bug_ids = ("rb1", "rb2")

    def __init__(self, threshold: int = 3) -> None:
        self.threshold = threshold
        self._inner = RhythmboxSubject()

    def source(self) -> str:
        return self._inner.source()

    def generate_input(self, rng: random.Random):
        return generate_job(rng)

    def oracle(self, program_input, output) -> bool:
        # "success" = the event did NOT occur.
        return output[2] < self.threshold


def main(n_runs: int = 2000) -> None:
    subject = QuietRhythmbox(threshold=3)
    program = instrument_source(subject.source(), subject.name)
    print(f"running {n_runs} sessions; event = db version reaches "
          f"{subject.threshold} (heavy library writes)...")

    reports, _ = run_trials(
        subject, program, n_runs=n_runs, plan=SamplingPlan.uniform(0.2), seed=0
    )

    # Drop crashed runs (they carry stacks); we only study the event.
    clean = np.array([s is None for s in reports.stacks])
    reports = reports.subset(clean)
    print(f"{reports.n_runs} clean runs, event occurred in "
          f"{reports.num_failing} of them")

    pruning = prune_predicates(compute_scores(reports))
    result = eliminate(reports, candidates=pruning.kept, max_predictors=6)
    print("\nearly predictors of the event:")
    print(format_predictor_table(result))
    print("\nExpected shape: predicates about db_update activity "
          "(delta, count, version) predict the event; playback "
          "predicates do not.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1
         else int(os.environ.get("REPRO_EXAMPLE_RUNS", 2000)))
