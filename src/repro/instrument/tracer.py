"""Compile and execute instrumented programs.

:func:`instrument_source` runs the AST transform on a subject program's
source, compiles it, and executes the module body with the shared
:class:`~repro.instrument.runtime.Runtime` bound to ``_cbi``.  The
resulting :class:`InstrumentedProgram` exposes the module's functions and
the per-run lifecycle (``begin_run`` / call entry point / ``end_run``).

Crash stacks are captured per failing run with :func:`crash_stack`, which
keeps only frames inside the instrumented module -- the Python analogue of
the stack signatures that "current industrial practice" clusters failure
reports by (Section 6).
"""

from __future__ import annotations

import ast
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.predicates import PredicateTable
from repro.instrument.runtime import Runtime
from repro.instrument.sampling import SamplingPlan
from repro.instrument.transform import RUNTIME_NAME, Instrumenter


@dataclass
class InstrumentedProgram:
    """A compiled, instrumented subject program.

    Attributes:
        namespace: The executed module globals (contains ``_cbi``).
        runtime: The shared instrumentation runtime.
        table: Registered sites and predicates.
        filename: The pseudo-filename used when compiling, which tags the
            program's own frames in crash stacks.
        source: The instrumented source text (for inspection/debugging).
    """

    namespace: Dict[str, object]
    runtime: Runtime
    table: PredicateTable
    filename: str
    source: str

    def func(self, name: str) -> Callable:
        """Look up a function defined by the instrumented module."""
        fn = self.namespace.get(name)
        if not callable(fn):
            raise KeyError(f"no callable {name!r} in instrumented module")
        return fn

    def begin_run(self, plan: SamplingPlan, seed: int) -> None:
        """Reset counters and arm the sampler for the next execution."""
        self.runtime.begin_run(plan, seed)

    def end_run(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Collect ``(site_observed, pred_true)`` for the finished run."""
        return self.runtime.end_run()


def instrument_source(
    source: str,
    name: str = "subject",
    table: Optional[PredicateTable] = None,
    extra_globals: Optional[Dict[str, object]] = None,
) -> InstrumentedProgram:
    """Instrument, compile, and execute a subject program's source.

    Args:
        source: The subject's Python source text.
        name: Module name; also used to derive the pseudo-filename.
        table: Optional existing predicate table to extend.
        extra_globals: Additional names injected into the module globals
            before execution (e.g. test doubles).

    Returns:
        An :class:`InstrumentedProgram` ready to run.
    """
    inst = Instrumenter(table=table)
    filename = f"<instrumented:{name}>"
    tree = inst.instrument(source, filename=filename)
    code = compile(tree, filename, "exec")

    runtime = Runtime(inst.table)
    runtime.refresh()
    # Arm a throwaway full-sampling run so module-level instrumented code
    # (constant definitions and the like) can execute during import.
    runtime.begin_run(SamplingPlan.full(), seed=0)

    namespace: Dict[str, object] = {
        "__name__": name,
        "__file__": filename,
        RUNTIME_NAME: runtime,
    }
    if extra_globals:
        namespace.update(extra_globals)
    exec(code, namespace)  # noqa: S102 - deliberate: running the subject
    runtime.end_run()

    try:
        text = ast.unparse(tree)
    except Exception:  # pragma: no cover - unparse failure fallback
        text = source
    return InstrumentedProgram(
        namespace=namespace,
        runtime=runtime,
        table=inst.table,
        filename=filename,
        source=text,
    )


def crash_stack(exc: BaseException, filename: str) -> Tuple[str, ...]:
    """Extract a crash-stack signature from an exception.

    Returns the function names of the traceback frames that lie inside the
    instrumented module (outermost first), ending with the exception type
    name -- a deliberately coarse signature, like the "same stack trace /
    same top-of-stack function" heuristic of Section 6.
    """
    frames = traceback.extract_tb(exc.__traceback__)
    # Prefix match: a multi-module factory program compiles each module
    # with a filename sharing the package's "<factory:pkg" prefix, and
    # all of those frames belong to the subject.  Single-module programs
    # are unaffected (the prefix is the whole filename).
    prefix = filename.rstrip(">")
    names = [f.name for f in frames if f.filename.startswith(prefix)]
    return tuple(names) + (type(exc).__name__,)
