"""Quickstart: isolate a bug in 60 lines.

Instrument a small buggy program, run it on random inputs, and let the
statistical debugging algorithm point at the cause.

Run with:  python examples/quickstart.py
"""

import os
import random

from repro import compute_scores, eliminate, prune_predicates
from repro.harness.runner import run_trials
from repro.harness.tables import format_predictor_table
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.subjects.base import Subject

# A program with a latent bug: the "fast path" skips the bounds check.
SOURCE = '''
def lookup(table, key, use_fast_path):
    if use_fast_path:
        index = key % 10          # BUG: table may be smaller than 10
    else:
        index = key % len(table)
    return table[index]

def main(job):
    table, key, fast = job
    return lookup(table, key, fast)
'''


class QuickstartSubject(Subject):
    """Random tables of size 4-12; the fast path crashes on small ones."""

    name = "quickstart"
    entry = "main"
    bug_ids = ()

    def source(self) -> str:
        return SOURCE

    def generate_input(self, rng: random.Random):
        size = rng.randint(4, 12)
        table = [rng.randint(0, 99) for _ in range(size)]
        return (table, rng.randint(0, 1000), rng.random() < 0.3)


def main() -> None:
    subject = QuickstartSubject()

    # 1. Instrument (branches / returns / scalar-pairs, Section 2).
    program = instrument_source(subject.source(), subject.name)
    print(f"instrumented: {program.table.n_sites} sites, "
          f"{program.table.n_predicates} predicates")

    # 2. Run 2,000 random trials under 1/10 sampling.
    n_runs = int(os.environ.get("REPRO_EXAMPLE_RUNS", 2000))
    reports, _ = run_trials(
        subject, program, n_runs=n_runs, plan=SamplingPlan.uniform(0.1), seed=0
    )
    print(f"collected {reports.n_runs} runs, {reports.num_failing} failing")

    # 3. Prune predicates whose Increase interval is not above zero.
    pruning = prune_predicates(compute_scores(reports))
    print(f"pruning: {pruning.n_initial} -> {pruning.n_kept} predicates "
          f"({pruning.reduction:.1%} discarded)")

    # 4. Iterative redundancy elimination.
    result = eliminate(reports, candidates=pruning.kept, max_predictors=5)
    print("\ntop failure predictors:")
    print(format_predictor_table(result))
    print("\nThe top predicate should implicate the fast path "
          "(use_fast_path / index vs table size).")


if __name__ == "__main__":
    main()
