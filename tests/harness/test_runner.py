"""Tests for the trial runner and adaptive-rate training."""

import random

import pytest

from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.harness.runner import collect_site_means, run_trials
from repro.subjects.base import Subject

#: A tiny deterministic subject: fails (crashes) when the input is
#: negative, records 'neg' as the bug.
_SOURCE = '''
from repro.subjects.base import record_bug

def main(value):
    if value < 0:
        record_bug("neg")
        raise ValueError("negative input")
    total = 0
    for i in range(value % 7):
        total += i
    return total
'''


class TinySubject(Subject):
    name = "tiny"
    entry = "main"
    bug_ids = ("neg",)

    def source(self):
        return _SOURCE

    def generate_input(self, rng: random.Random):
        return rng.randint(-2, 10)


@pytest.fixture(scope="module")
def tiny_program():
    return instrument_source(TinySubject().source(), "tiny")


class TestRunTrials:
    def test_reports_align_with_truth(self, tiny_program):
        subject = TinySubject()
        reports, truth = run_trials(
            subject, tiny_program, 200, SamplingPlan.full(), seed=0
        )
        assert reports.n_runs == 200 == truth.n_runs
        for i in range(200):
            if reports.failed[i]:
                assert truth.occurrences[i] == frozenset({"neg"})
            else:
                assert not truth.occurrences[i]

    def test_failing_runs_carry_stacks(self, tiny_program):
        subject = TinySubject()
        reports, _ = run_trials(subject, tiny_program, 100, SamplingPlan.full(), seed=0)
        for i in range(100):
            if reports.failed[i]:
                assert reports.stacks[i] is not None
                assert reports.stacks[i][-1] == "ValueError"
            else:
                assert reports.stacks[i] is None

    def test_seeded_reproducibility(self, tiny_program):
        subject = TinySubject()
        r1, _ = run_trials(subject, tiny_program, 50, SamplingPlan.uniform(0.2), seed=9)
        r2, _ = run_trials(subject, tiny_program, 50, SamplingPlan.uniform(0.2), seed=9)
        assert r1.failed.tolist() == r2.failed.tolist()
        assert (r1.true_counts != r2.true_counts).nnz == 0

    def test_different_seed_different_population(self, tiny_program):
        subject = TinySubject()
        r1, _ = run_trials(subject, tiny_program, 50, SamplingPlan.full(), seed=1)
        r2, _ = run_trials(subject, tiny_program, 50, SamplingPlan.full(), seed=2)
        assert r1.failed.tolist() != r2.failed.tolist()

    def test_runs_record_their_seeds(self, tiny_program):
        subject = TinySubject()
        reports, _ = run_trials(subject, tiny_program, 3, SamplingPlan.full(), seed=5)
        assert reports.seeds.tolist() == [5, 6, 7]


class TestTraining:
    def test_site_means_have_site_shape(self, tiny_program):
        subject = TinySubject()
        means = collect_site_means(subject, tiny_program, 30)
        assert means.shape == (tiny_program.table.n_sites,)
        assert (means >= 0).all()
        assert means.max() > 0

    def test_zero_training_runs(self, tiny_program):
        subject = TinySubject()
        means = collect_site_means(subject, tiny_program, 0)
        assert (means == 0).all()

    def test_adaptive_plan_from_training(self, tiny_program):
        subject = TinySubject()
        means = collect_site_means(subject, tiny_program, 30)
        plan = SamplingPlan.adaptive(means)
        assert plan.site_rates.shape[0] == tiny_program.table.n_sites
        # Sites in this tiny program are reached far fewer than 100
        # times per run, so every rate should be 1.0.
        assert (plan.site_rates == 1.0).all()
