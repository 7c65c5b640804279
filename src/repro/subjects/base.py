"""Subject-program protocol and the ground-truth side channel.

A :class:`Subject` describes one evaluation program: how to obtain its
source (which the experiment harness instruments), how to generate random
inputs, and how to label a run as success or failure.  Failure labelling
follows the paper: an uncaught exception is a crash; otherwise an
optional output *oracle* compares the output against a correct reference
implementation ("we also ran a correct version of MOSS and compared the
output of the two versions").

Bugs triggered during a run are recorded through :func:`record_bug`.
This side channel is invisible to the isolation algorithm (the
instrumenter is configured to never instrument calls named
``record_bug``); it only feeds the ground-truth columns of Table 3.
"""

from __future__ import annotations

import abc
import inspect
import random
from typing import Any, List, Optional, Sequence

#: The active per-run bug sink.  ``None`` outside a managed run, in which
#: case recordings are silently dropped (so subjects stay runnable as
#: plain Python programs).
_CURRENT_SINK: Optional[List[str]] = None


def record_bug(bug_id: str) -> None:
    """Record that a seeded bug's faulty behaviour actually occurred.

    Subjects call this at the moment the bad thing happens (the overrun
    write, the skipped check, ...), regardless of whether the run will
    eventually crash -- matching the paper's "exact set of bugs that
    actually occurred in each run".
    """
    if _CURRENT_SINK is not None and bug_id not in _CURRENT_SINK:
        _CURRENT_SINK.append(bug_id)


def begin_truth_capture() -> List[str]:
    """Install a fresh bug sink for the next run and return it."""
    global _CURRENT_SINK
    _CURRENT_SINK = []
    return _CURRENT_SINK


def end_truth_capture() -> List[str]:
    """Remove the active sink and return what it captured."""
    global _CURRENT_SINK
    sink = _CURRENT_SINK if _CURRENT_SINK is not None else []
    _CURRENT_SINK = None
    return sink


class Subject(abc.ABC):
    """One evaluation program.

    Attributes:
        name: Short identifier (``"moss"``, ``"ccrypt"``, ...).
        entry: Name of the module-level entry function; it takes the
            object produced by :meth:`generate_input` and returns the
            program output.
        bug_ids: All seeded bug identifiers, in display order.
        trial_budget: Default number of trials for an experiment over
            this subject -- what ``run``/``collect`` use when ``--runs``
            is not given, and what ``list --json`` advertises to scripts
            sizing a collection session.
    """

    name: str = "subject"
    entry: str = "main"
    bug_ids: Sequence[str] = ()
    trial_budget: int = 2000
    #: ``"builtin"`` for the hand-built analogues, ``"factory"`` for
    #: subjects manufactured by :mod:`repro.factory`.
    kind: str = "builtin"

    @abc.abstractmethod
    def source(self) -> str:
        """Return the program source text to instrument."""

    def build_program(self, table=None):
        """Instrument this subject and return an ``InstrumentedProgram``.

        Every production consumer (collect/analyze/serve/bakeoff)
        builds programs through this method so factory subjects -- whose
        programs span several modules behind an import hook -- slot in
        transparently.  The base implementation instruments the single
        :meth:`source` module.
        """
        from repro.instrument.tracer import instrument_source

        return instrument_source(self.source(), name=self.name, table=table)

    def bug_sites(self):
        """Static ground-truth ``record_bug`` sites for this subject.

        Aligned with the function names :meth:`build_program` registers
        in the predicate table; factory subjects override this to scan
        every module with its qualifying prefix.
        """
        from repro.core.truth import bug_sites_from_source

        return bug_sites_from_source(self.source())

    @abc.abstractmethod
    def generate_input(self, rng: random.Random) -> Any:
        """Generate one random input."""

    def oracle(self, program_input: Any, output: Any) -> bool:
        """Return ``True`` when a non-crashing run's output is correct.

        The default accepts every output, i.e. only crashes fail.
        Subjects with non-crashing bugs override this with a comparison
        against a reference implementation.
        """
        return True

    @staticmethod
    def source_of(module) -> str:
        """Helper: fetch a module's source for :meth:`source`."""
        return inspect.getsource(module)
