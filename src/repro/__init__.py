"""Scalable Statistical Bug Isolation (Liblit et al., PLDI 2005), in Python.

This package reproduces the Cooperative Bug Isolation (CBI) statistical
debugging system:

* :mod:`repro.instrument` -- sampled predicate instrumentation (the
  ``branches`` / ``returns`` / ``scalar-pairs`` schemes of Section 2),
  implemented as a source-to-source AST transformation.
* :mod:`repro.core` -- the cause isolation algorithm of Section 3:
  ``Failure`` / ``Context`` / ``Increase`` scores, confidence-interval
  pruning, harmonic-mean ``Importance``, and iterative redundancy
  elimination, plus affinity lists and the Table 8 "how many runs"
  methodology.
* :mod:`repro.simmem` -- a simulated C heap so Python subject programs can
  exhibit non-deterministic buffer-overrun crashes.
* :mod:`repro.subjects` -- analogues of the paper's five case studies
  (MOSS, CCRYPT, BC, EXIF, RHYTHMBOX) with seeded bugs and ground truth.
* :mod:`repro.baselines` -- the comparison techniques: L1-regularized
  logistic regression (Table 9) and stack-trace bucketing (Section 6).
* :mod:`repro.harness` -- end-to-end experiment pipeline and the table
  renderers used by the benchmark suite.
"""

from repro.core.predicates import Predicate, PredicateKind, PredicateTable, Scheme, Site
from repro.core.reports import ReportSet, RunReport
from repro.core.scores import PredicateScores, SufficientStats, compute_scores
from repro.core.importance import importance_scores
from repro.core.pruning import prune_predicates
from repro.core.elimination import DiscardStrategy, EliminationResult, SelectedPredictor, eliminate
from repro.core.affinity import affinity_groups, affinity_list
from repro.core.ranking import rank
from repro.core.runs_needed import runs_needed
from repro.core.online import OnlineMonitor, monitor_from_elimination
from repro.harness.experiment import Experiment, ExperimentResult, run_experiment

__version__ = "1.0.0"

__all__ = [
    "Predicate",
    "PredicateKind",
    "PredicateTable",
    "Scheme",
    "Site",
    "ReportSet",
    "RunReport",
    "PredicateScores",
    "SufficientStats",
    "compute_scores",
    "importance_scores",
    "prune_predicates",
    "DiscardStrategy",
    "EliminationResult",
    "SelectedPredictor",
    "eliminate",
    "affinity_list",
    "affinity_groups",
    "rank",
    "runs_needed",
    "OnlineMonitor",
    "monitor_from_elimination",
    "Experiment",
    "ExperimentResult",
    "run_experiment",
    "__version__",
]
