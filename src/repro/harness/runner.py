"""Run subject programs over random inputs and collect feedback reports.

Each trial: generate a seeded random input, arm the sampler, execute the
subject's entry function, label the run (crash, oracle verdict, or clean
success), and append the run's sparse predicate counters to the report
set.  Ground-truth bug occurrences are captured through the
:mod:`repro.subjects.base` side channel.
"""

from __future__ import annotations

import random
from typing import Tuple

import numpy as np

from repro.core.reports import ReportSet, RunReport
from repro.core.truth import GroundTruth
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import InstrumentedProgram, crash_stack
from repro.subjects import base as subject_base
from repro.subjects.base import Subject


def run_one_trial(
    subject: Subject,
    program: InstrumentedProgram,
    entry,
    plan: SamplingPlan,
    trial_seed: int,
):
    """Execute exactly one seeded trial of an instrumented program.

    This is the single definition of what "trial ``trial_seed``" means:
    the input RNG, the sampler seed, the crash/oracle labelling and the
    ground-truth capture all derive from ``trial_seed`` alone, so every
    collection path -- the serial runner, the sharded workers of
    :mod:`repro.harness.parallel`, and the networked uploader of
    :mod:`repro.serve.client` -- produces byte-identical run records for
    the same seed.

    Args:
        subject: The subject describing inputs and the oracle.
        program: The instrumented program.
        entry: The bound entry callable (``program.func(subject.entry)``),
            passed in so callers amortise the lookup across trials.
        plan: Sampling plan for the trial.
        trial_seed: The absolute trial seed (base seed + trial index).

    Returns:
        ``(failed, site_obs, pred_true, stack, bugs)`` -- the run's
        outcome label, sparse counter dicts, optional crash-stack
        signature, and ground-truth bug ids.
    """
    input_rng = random.Random(trial_seed * 2654435761 % (2 ** 31))
    trial_input = subject.generate_input(input_rng)
    subject_base.begin_truth_capture()
    program.begin_run(plan, seed=trial_seed + 1)
    failed = False
    stack = None
    try:
        output = entry(trial_input)
    except Exception as exc:  # crash: any uncaught exception
        failed = True
        stack = crash_stack(exc, program.filename)
    else:
        failed = not subject.oracle(trial_input, output)
    site_obs, pred_true = program.end_run()
    bugs = subject_base.end_truth_capture()
    return failed, site_obs, pred_true, stack, bugs


def run_trials(
    subject: Subject,
    program: InstrumentedProgram,
    n_runs: int,
    plan: SamplingPlan,
    seed: int = 0,
) -> Tuple[ReportSet, GroundTruth]:
    """Execute ``n_runs`` seeded trials and collect reports + truth.

    Args:
        subject: The subject describing inputs and the oracle.
        program: The instrumented program (from
            :func:`repro.instrument.tracer.instrument_source`).
        n_runs: Number of trials.
        plan: Sampling plan for every trial.
        seed: Base seed; trial ``i`` derives its input and sampler seeds
            from ``seed + i`` so populations are reproducible and can be
            extended by increasing ``n_runs``.

    Returns:
        ``(reports, truth)``, run-aligned.
    """
    entry = program.func(subject.entry)
    runs = []
    for i in range(n_runs):
        trial = run_one_trial(subject, program, entry, plan, seed + i)
        runs.append(RunReport.from_trial(seed + i, trial))
    return (
        ReportSet.from_runs(program.table, runs),
        GroundTruth.from_runs(subject.bug_ids, runs),
    )


def collect_site_means(
    subject: Subject,
    program: InstrumentedProgram,
    n_runs: int,
    seed: int = 10_000_000,
) -> np.ndarray:
    """Measure mean per-run site reach counts on a fully sampled training set.

    This is the training phase of the paper's nonuniform sampling: "Based
    on a training set of 1,000 executions, we set the sampling rate of
    each predicate so as to obtain an expected 100 samples" (Section 4).
    Training inputs use a disjoint seed range from the experiment proper.
    Each training run is trial ``seed + i`` under full sampling
    (:func:`run_one_trial`); only its site counts are used.

    Returns:
        Array of shape ``(n_sites,)`` with mean observation counts.
    """
    totals = np.zeros(program.table.n_sites, dtype=np.float64)
    entry = program.func(subject.entry)
    plan = SamplingPlan.full()
    for i in range(n_runs):
        _, site_obs, _, _, _ = run_one_trial(subject, program, entry, plan, seed + i)
        for site, count in site_obs.items():
            totals[site] += count
    if n_runs > 0:
        totals /= n_runs
    return totals
