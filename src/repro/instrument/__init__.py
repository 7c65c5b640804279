"""Sampled predicate instrumentation (Section 2 of the paper).

The paper adds instrumentation to C programs with a source-to-source
transformation; we do the same for Python with an :mod:`ast` transformer.
Three schemes are implemented:

* ``branches`` -- two predicates per conditional (``if``/``while`` tests,
  ternary conditions, and the operands of short-circuiting ``and``/``or``);
* ``returns`` -- six sign predicates per scalar-returning call site;
* ``scalar-pairs`` -- six order predicates per (assigned variable,
  other in-scope variable or constant) pair, including the variable's own
  previous value ("new value of x < old value of x").

Observation sites are *sampled*: each dynamic opportunity to observe a
site is taken or skipped by a statistically fair Bernoulli process,
implemented with the geometric "countdown" technique so the common case
costs one decrement.  Uniform (1/100 by default) and per-site adaptive
rates (Section 4) are both supported.
"""

from repro.instrument.sampling import (
    SamplingPlan,
    adaptive_rates,
    geometric_gap,
)
from repro.instrument.runtime import Runtime
from repro.instrument.transform import Instrumenter
from repro.instrument.tracer import InstrumentedProgram, instrument_source

__all__ = [
    "SamplingPlan",
    "adaptive_rates",
    "geometric_gap",
    "Runtime",
    "Instrumenter",
    "InstrumentedProgram",
    "instrument_source",
]
