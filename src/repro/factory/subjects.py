"""Factory-made subjects: any package + oracle as a first-class Subject.

:class:`FactorySubject` wraps a module map (read from an installed
package or the vendored corpus), an optional deterministic mutation, an
input generator, and a pass/fail oracle into the same
:class:`~repro.subjects.base.Subject` protocol the hand-built analogues
implement -- so every collection path (serial, parallel, sharded,
daemon, steered) and every analysis path (scoring, bakeoff)
works on manufactured subjects unchanged.

The default oracle is *differential*: a non-crashing output is correct
iff it equals the output of the pristine (unmutated, uninstrumented)
package on the same input.  That is exactly the paper's MOSS setup ("we
also ran a correct version ... and compared the output of the two
versions"), generalised to arbitrary packages.

``trial_budget`` is auto-derived: a short fully-sampled probe measures
the observed failure rate and the budget is sized to an expected
:data:`TARGET_FAILURES` failing runs, clamped to sane bounds.  The
probe is seeded and cached per process, so the advertised budget -- and
therefore ``--runs`` defaults and shard layouts derived from it -- is
deterministic.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from repro.factory import corpus
from repro.factory.loader import instrument_package, pristine_namespace
from repro.factory.mutate import MutationSpec, apply_mutation
from repro.subjects.base import Subject

#: Budget derivation: probe length and the failing-run count the derived
#: budget aims for at full sampling.
PROBE_TRIALS = 64
TARGET_FAILURES = 60
MIN_BUDGET = 400
MAX_BUDGET = 20_000

#: Disjoint seed range for budget probes (clear of experiment seeds and
#: the training range used by ``collect_site_means``).
PROBE_SEED_BASE = 77_000_000

#: Per-process cache of derived budgets, keyed by subject name.  The
#: probe is deterministic, so caching only saves time, never changes the
#: answer.
_BUDGET_CACHE: Dict[str, int] = {}


class FactorySubject(Subject):
    """A subject manufactured from a package + oracle (+ mutation)."""

    kind = "factory"
    entry = "main"

    def __init__(
        self,
        name: str,
        package: str,
        modules: Dict[str, str],
        generator: Callable[[random.Random], object],
        mutation: Optional[MutationSpec] = None,
        oracle: Optional[Callable[[object, object], bool]] = None,
        trial_budget: Optional[int] = None,
    ) -> None:
        self.name = name
        self.package = package
        self._base_modules = dict(modules)
        self._generator = generator
        self.mutation = mutation
        self.bug_ids = (mutation.bug_id,) if mutation is not None else ()
        self._custom_oracle = oracle
        self._fixed_budget = trial_budget
        self._mutated_modules: Optional[Dict[str, str]] = None
        if mutation is not None and mutation.module not in self._base_modules:
            raise ValueError(
                f"mutation targets {mutation.module!r}, not a module of "
                f"{package!r} ({sorted(self._base_modules)})"
            )

    # -- construction ---------------------------------------------------

    @classmethod
    def from_corpus_bug(cls, bug: "corpus.CorpusBug") -> "FactorySubject":
        """Manufacture one seeded corpus subject."""
        return cls(
            name=bug.name,
            package=bug.package,
            modules=corpus.corpus_sources(bug.package),
            generator=corpus.GENERATORS[bug.package],
            mutation=bug.spec,
        )

    # -- subject protocol -----------------------------------------------

    @property
    def mutation_class(self) -> Optional[str]:
        """The injected bug's mutation class (``None`` if unmutated)."""
        return self.mutation.operator if self.mutation is not None else None

    def modules(self) -> Dict[str, str]:
        """Module map with the mutation applied (cached)."""
        if self._mutated_modules is None:
            mods = dict(self._base_modules)
            if self.mutation is not None:
                mods[self.mutation.module] = apply_mutation(
                    mods[self.mutation.module], self.mutation
                )
            self._mutated_modules = mods
        return self._mutated_modules

    def source(self) -> str:
        """The (mutated) source text; concatenated for multi-module."""
        mods = self.modules()
        if len(mods) == 1:
            return next(iter(mods.values()))
        return "\n".join(f"# === {name} ===\n{src}" for name, src in mods.items())

    def build_program(self, table=None):
        """Instrument the whole (mutated) package behind the import hook."""
        return instrument_package(self.package, modules=self.modules(), table=table)

    def bug_sites(self):
        """Ground-truth sites across all modules, module-qualified."""
        from repro.core.truth import bug_sites_from_source
        from repro.factory.loader import function_prefix

        sites = []
        for name, src in self.modules().items():
            sites.extend(
                bug_sites_from_source(src, function_prefix=function_prefix(name))
            )
        return sites

    def generate_input(self, rng: random.Random):
        return self._generator(rng)

    def oracle(self, program_input, output) -> bool:
        if self._custom_oracle is not None:
            return self._custom_oracle(program_input, output)
        try:
            expected = self._pristine_entry()(program_input)
        except Exception:
            # The reference implementation must not crash on generated
            # inputs; if it somehow does, grade the run as failing so
            # the anomaly is visible rather than silently passing.
            return False
        return output == expected

    def _pristine_entry(self):
        namespace = pristine_namespace(self.package, self._base_modules)
        return namespace[self.entry]

    # -- auto-derived trial budget --------------------------------------

    @property
    def trial_budget(self) -> int:  # type: ignore[override]
        if self._fixed_budget is not None:
            return self._fixed_budget
        cached = _BUDGET_CACHE.get(self.name)
        if cached is None:
            cached = self.derive_trial_budget()
            _BUDGET_CACHE[self.name] = cached
        return cached

    def derive_trial_budget(
        self,
        probe_trials: int = PROBE_TRIALS,
        target_failures: int = TARGET_FAILURES,
    ) -> int:
        """Size the budget from the observed failure rate at full sampling.

        Runs a short, fully-observed, seeded probe; the Laplace-smoothed
        failure rate ``(fails+1)/(n+2)`` then sizes the budget so an
        experiment expects ~``target_failures`` failing runs, clamped to
        ``[MIN_BUDGET, MAX_BUDGET]``.  Deterministic by construction.
        """
        from repro.harness.runner import run_one_trial
        from repro.instrument.sampling import SamplingPlan

        program = self.build_program()
        entry = program.func(self.entry)
        plan = SamplingPlan.full()
        fails = 0
        for i in range(probe_trials):
            failed, _obs, _true, _stack, _bugs = run_one_trial(
                self, program, entry, plan, PROBE_SEED_BASE + i
            )
            fails += int(failed)
        rate = (fails + 1) / (probe_trials + 2)
        return max(MIN_BUDGET, min(MAX_BUDGET, int(target_failures / rate)))


def corpus_subjects() -> Dict[str, Callable[[], FactorySubject]]:
    """Zero-arg constructors for every seeded corpus bug, by name.

    The mapping merges into ``repro.cli.SUBJECTS``; entries are
    callables (like the builtin subject classes) so ``SUBJECTS[name]()``
    works uniformly.
    """
    out: Dict[str, Callable[[], FactorySubject]] = {}
    for bug in corpus.CORPUS_BUGS:
        out[bug.name] = _CorpusEntry(bug)
    return out


class _CorpusEntry:
    """Picklable zero-arg constructor for one corpus subject."""

    def __init__(self, bug: "corpus.CorpusBug") -> None:
        self.bug = bug
        self.__name__ = bug.name

    def __call__(self) -> FactorySubject:
        return FactorySubject.from_corpus_bug(self.bug)
