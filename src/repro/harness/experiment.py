"""The full paper pipeline as one configurable experiment.

:func:`run_experiment` performs, in order:

1. instrument the subject's source (Section 2);
2. optionally train per-site adaptive sampling rates on a fully sampled
   training population (Section 4);
3. run ``n_runs`` seeded random trials under the chosen sampling plan;
4. prune predicates whose ``Increase`` interval is not strictly positive
   (Section 3.1);
5. run iterative redundancy elimination over the survivors (Section 3.4).

The returned :class:`ExperimentResult` carries every intermediate
artefact, so benchmarks can regenerate any table from one run.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.elimination import DiscardStrategy, EliminationResult
from repro.core.engine import AnalysisEngine
from repro.core.pruning import PruningResult
from repro.core.reports import ReportSet
from repro.core.scores import DEFAULT_CONFIDENCE
from repro.core.truth import GroundTruth
from repro.instrument.sampling import DEFAULT_RATE, SamplingPlan
from repro.instrument.tracer import InstrumentedProgram
from repro.harness.runner import collect_site_means, run_trials
from repro.subjects.base import Subject


@dataclass
class Experiment:
    """Configuration of one end-to-end bug isolation experiment.

    Attributes:
        subject: The subject program to study.
        n_runs: Number of random trials.
        sampling: ``"uniform"``, ``"adaptive"`` (per-site rates trained on
            ``training_runs`` executions), or ``"full"`` (no sampling;
            the paper's validation configuration).
        rate: Global rate for ``"uniform"`` sampling.
        training_runs: Training-set size for ``"adaptive"`` sampling
            (paper: 1,000).
        seed: Base seed for input generation and samplers.
        confidence: Confidence level for the score intervals.
        strategy: Elimination discard strategy (Section 5).
        max_predictors: Optional cap on the elimination output length.
        jobs: Worker processes for trial collection (1 = in-process
            serial).  Above 1, trials are collected as shards into a
            temporary store by
            :func:`repro.harness.parallel.run_trials_sharded`, and the
            merged population, bit-identical to serial collection for
            the same seed, feeds the analysis.
    """

    subject: Subject
    n_runs: int = 4000
    sampling: str = "adaptive"
    rate: float = DEFAULT_RATE
    training_runs: int = 200
    seed: int = 0
    confidence: float = DEFAULT_CONFIDENCE
    strategy: DiscardStrategy = DiscardStrategy.DISCARD_ALL
    max_predictors: Optional[int] = 30
    jobs: int = 1


@dataclass
class ExperimentResult:
    """Everything produced by one experiment.

    Attributes:
        config: The experiment configuration.
        program: The instrumented program (sites, predicates, source).
        plan: The sampling plan actually used.
        reports: Collected feedback reports.
        truth: Ground-truth bug occurrences, run-aligned with ``reports``.
        pruning: The ``Increase > 0`` pruning pass output.
        elimination: The ranked predictor list.
        lines_of_code: Source lines of the (uninstrumented) subject.
        wall_seconds: Wall-clock duration of the run+analysis phases.
    """

    config: Experiment
    program: InstrumentedProgram
    plan: SamplingPlan
    reports: ReportSet
    truth: GroundTruth
    pruning: PruningResult
    elimination: EliminationResult
    lines_of_code: int
    wall_seconds: float

    def summary(self) -> dict:
        """One Table 2 row: runs, sites, and predicate funnel counts."""
        return {
            "subject": self.config.subject.name,
            "lines_of_code": self.lines_of_code,
            "successful_runs": self.reports.num_successful,
            "failing_runs": self.reports.num_failing,
            "sites": self.program.table.n_sites,
            "initial_predicates": self.program.table.n_predicates,
            "after_increase_pruning": self.pruning.n_kept,
            "after_elimination": len(self.elimination),
        }


def build_plan(
    subject: Subject,
    program: InstrumentedProgram,
    sampling: str,
    rate: float = DEFAULT_RATE,
    training_runs: int = 200,
    seed: int = 0,
) -> SamplingPlan:
    """Construct the sampling plan an experiment will use."""
    if sampling == "full":
        return SamplingPlan.full()
    if sampling == "uniform":
        return SamplingPlan.uniform(rate)
    if sampling == "adaptive":
        means = collect_site_means(subject, program, training_runs, seed=seed + 777_000)
        return SamplingPlan.adaptive(means)
    raise ValueError(f"unknown sampling mode {sampling!r}")


def run_experiment(config: Experiment) -> ExperimentResult:
    """Execute the full pipeline for one configuration."""
    started = time.perf_counter()
    program = config.subject.build_program()
    plan = build_plan(
        config.subject,
        program,
        config.sampling,
        rate=config.rate,
        training_runs=config.training_runs,
        seed=config.seed,
    )
    if config.jobs > 1:
        from repro.harness.parallel import run_trials_sharded

        with tempfile.TemporaryDirectory(prefix="repro-shards-") as directory:
            store = run_trials_sharded(
                config.subject,
                config.n_runs,
                plan,
                directory,
                seed=config.seed,
                jobs=config.jobs,
            )
            reports, truth = store.load_merged()
        if truth is None:  # pragma: no cover - shards always carry truth here
            truth = GroundTruth(bug_ids=list(config.subject.bug_ids))
    else:
        reports, truth = run_trials(
            config.subject, program, config.n_runs, plan, seed=config.seed
        )
    analysis = AnalysisEngine(confidence=config.confidence).analyze_reports(
        reports,
        truth,
        strategy=config.strategy,
        max_predictors=config.max_predictors,
    )
    wall = time.perf_counter() - started
    loc = sum(
        1 for line in config.subject.source().splitlines() if line.strip()
    )
    return ExperimentResult(
        config=config,
        program=program,
        plan=plan,
        reports=reports,
        truth=truth,
        pruning=analysis.pruning,
        elimination=analysis.elimination,
        lines_of_code=loc,
        wall_seconds=wall,
    )
