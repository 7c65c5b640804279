"""Measuring the steering payoff: runs to isolate, before vs. after.

The headline number for closed-loop adaptive collection is the paper's
Table 8 question answered live: how many runs are needed until every
bug's chosen predictor has a stable Importance?  :func:`steering_payoff`
answers it twice over identical trial budgets --

* **unsteered**: the paper's deployment default, uniform 1/100 sampling
  for every trial;
* **steered**: the closed loop itself -- an in-process collection
  daemon (:class:`~repro.serve.server.CollectionService` behind a
  :class:`~repro.serve.server.FeedbackServer` on localhost) refits the
  per-site rates every ``refit_runs`` committed runs, and a steered
  client (:func:`~repro.serve.client.steered_collect_and_submit`) runs
  each round of ``refit_runs`` trials under the served document (the
  first round under the epoch-0 document: rate 1.0 at every site)

-- and reports each population's :func:`~repro.core.runs_needed.runs_to_isolate`.
Steering keeps rarely reached (and therefore information-starved) sites
fully sampled while hot sites back off toward the floor, so the steered
population reaches a stable ranking in fewer runs.

Everything is deterministic in ``(subject, n_runs, seed, refit_runs)``;
the EXPERIMENTS.md table comes from these functions.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.engine import AnalysisEngine, EngineAnalysis
from repro.core.runs_needed import runs_to_isolate
from repro.core.scores import DEFAULT_CONFIDENCE
from repro.core.truth import dominant_bug
from repro.harness.experiment import Experiment, run_experiment
from repro.instrument.sampling import SamplingPlan
from repro.serve.client import steered_collect_and_submit
from repro.serve.server import CollectionService, FeedbackServer
from repro.store import ShardStore
from repro.subjects.base import Subject


@dataclass
class SteeringPayoff:
    """Before/after runs-to-isolate for one subject at one budget.

    Attributes:
        subject: Subject name.
        n_runs: The (equal) trial budget of both populations.
        unsteered: Runs to isolate every bug under uniform 1/100
            sampling, or None when some predictor never converged
            within the budget.
        steered: Same, under closed-loop steering.
        unsteered_bugs / steered_bugs: Bugs with an isolated predictor
            in each population (the metric only covers these).
    """

    subject: str
    n_runs: int
    unsteered: Optional[int]
    steered: Optional[int]
    unsteered_bugs: int
    steered_bugs: int

    @property
    def improved(self) -> bool:
        """Did steering isolate at least as cheaply as uniform sampling?

        An unconverged population counts as needing more than the
        budget, so converged always beats unconverged.
        """
        if self.steered is None:
            return False
        if self.unsteered is None:
            return True
        return self.steered <= self.unsteered


def chosen_predictors(result) -> Dict[str, int]:
    """One predictor per bug: the highest-ranked selection dominating it.

    ``result`` is anything carrying ``reports``, ``truth`` and
    ``elimination``: an :class:`~repro.harness.experiment.ExperimentResult`
    or an :class:`~repro.core.engine.EngineAnalysis`.
    """
    chosen: Dict[str, int] = {}
    for sel in result.elimination.selected:
        dom = dominant_bug(result.reports, result.truth, sel.predicate.index)
        if dom is None:
            continue
        chosen.setdefault(dom[0], sel.predicate.index)
    return chosen


def runs_to_isolate_for(result, threshold: float = 0.2) -> Optional[int]:
    """Budget at which every isolated bug's predictor had stabilised."""
    chosen = chosen_predictors(result)
    if not chosen:
        return None
    return runs_to_isolate(
        result.reports, sorted(chosen.values()), threshold=threshold
    )


def _steered_analysis(
    subject: Subject, n_runs: int, seed: int = 0, refit_runs: int = 200
) -> EngineAnalysis:
    """Collect ``n_runs`` trials through the daemon's closed loop; score them.

    A temporary store is served on localhost with ``batch_runs ==
    refit_runs``, so every round of ``refit_runs`` seeds commits one
    batch and the next round runs under the refit document.  The last
    round may be partial; the closing drain commits it.
    """
    program = subject.build_program()
    with tempfile.TemporaryDirectory(prefix="repro-steering-") as directory:
        store = ShardStore.create(
            os.path.join(directory, "store"),
            subject.name,
            program.table,
            SamplingPlan.full(),
        )
        service = CollectionService(
            store, subject, batch_runs=refit_runs, refit_runs=refit_runs
        )
        server = FeedbackServer(service, port=0).start()
        try:
            for offset in range(0, n_runs, refit_runs):
                steered_collect_and_submit(
                    subject,
                    program,
                    server.url,
                    os.path.join(directory, "spool"),
                    min(refit_runs, n_runs - offset),
                    seed=seed + offset,
                )
        finally:
            server.close(drain=True)
        reports, truth = store.load_merged()
    return AnalysisEngine(confidence=DEFAULT_CONFIDENCE).analyze_reports(
        reports, truth, max_predictors=30
    )


def steering_payoff(
    subject: Subject,
    n_runs: int,
    seed: int = 0,
    refit_runs: int = 200,
    threshold: float = 0.2,
) -> SteeringPayoff:
    """Run the before/after comparison for one subject at one budget."""
    unsteered = run_experiment(
        Experiment(subject=subject, n_runs=n_runs, sampling="uniform", seed=seed)
    )
    steered = _steered_analysis(subject, n_runs, seed=seed, refit_runs=refit_runs)
    return SteeringPayoff(
        subject=subject.name,
        n_runs=n_runs,
        unsteered=runs_to_isolate_for(unsteered, threshold=threshold),
        steered=runs_to_isolate_for(steered, threshold=threshold),
        unsteered_bugs=len(chosen_predictors(unsteered)),
        steered_bugs=len(chosen_predictors(steered)),
    )
