"""Run-time half of the instrumentation: observation recording.

The AST transformer (:mod:`repro.instrument.transform`) rewrites subject
code so every instrumented construct routes through a shared
:class:`Runtime` object named ``_cbi`` in the module's globals:

* ``_cbi.branch(site, test_value)`` wraps branch tests;
* ``_cbi.ret(site, call_value)`` wraps call expressions;
* ``_cbi.pairs(sites, x, ys)`` records scalar-pair relations after an
  assignment to ``x``.

Each helper first consults the sampler ("each potential sample is taken
or skipped randomly and independently"); taken observations increment the
site's observation counter and the counters of the predicates observed to
be true.  All helpers return their wrapped value unchanged, so the
transformation preserves program semantics.

One :class:`Runtime` is shared across all runs of an instrumented program;
:meth:`Runtime.begin_run` resets the counters and installs the sampling
plan for the next execution.

The hot-path layout
-------------------

Every one of a deployment's millions of trials pays the helpers' cost at
every observation opportunity, so the common "not sampled" case is kept
as cheap as pure Python allows:

* the countdown is **inlined** into each helper -- a skipped opportunity
  costs one attribute load, an integer decrement and a store, with no
  method call (no frame push) on the way;
* the sampler's identity is the integer ``_mode_id`` the helpers branch
  on (cheaper than comparing mode strings);
* nothing reads or writes the instance ``__dict__`` directly: on CPython
  3.11+ that materialises the dict and roughly doubles the cost of every
  attribute load in the helpers (the no-op floor gate in
  ``benchmarks/test_instrumentation_overhead.py`` catches it);
* uniform-mode countdown refills are **batched**: geometric gaps are
  pre-drawn :data:`GAP_BATCH` at a time with the ``log(1-rate)``
  denominator computed once per run, amortising the ``math`` calls and
  attribute traffic of a per-refill draw.  Pre-drawing consumes the RNG
  in exactly the order a lazy draw would, so the take/skip decision
  stream -- and therefore every downstream count and score -- is
  bit-identical to the unbatched sampler.

Each run's countdowns are seeded in :meth:`Runtime.begin_run`, so a run
is a pure function of its seed and nothing is ever resumed mid-run.

The countdown each helper inlines is checked against a geometric gap
stream drawn in the test itself (``tests/instrument/
test_sampling_properties.py``); the golden digests (``tests/golden``)
pin its output on real subjects under full, uniform and per-site plans.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.predicates import PredicateTable
from repro.instrument.sampling import SamplingPlan, geometric_gap
from repro.obs import enabled as _obs_enabled, inc as _obs_inc

#: Sentinel for "variable not bound yet" in scalar-pair old-value capture.
#: It fails the numeric type check, so unbound comparisons are skipped.
UNBOUND = object()

_NUMERIC = (int, float)

#: Uniform-mode gap draws per batched refill.  One draw
#: consumes exactly one RNG variate whatever the batch size, so the
#: decision stream is invariant under this constant.
GAP_BATCH = 64

#: Integer mode ids the hot helpers branch on (cheaper than string
#: comparison).
_MODE_FULL, _MODE_UNIFORM, _MODE_PER_SITE = 0, 1, 2

_MODE_IDS = {"full": _MODE_FULL, "uniform": _MODE_UNIFORM, "per-site": _MODE_PER_SITE}


class Runtime:
    """Per-program instrumentation runtime shared across runs.

    Attributes:
        table: The :class:`PredicateTable` registered by the transformer.
    """

    #: Exposed so instrumented code can reference ``_cbi.UNBOUND``.
    UNBOUND = UNBOUND

    def __init__(self, table: PredicateTable) -> None:
        self.table = table
        self._base: List[int] = []
        self._site_obs: List[int] = []
        self._true: List[int] = []
        self._mode_id = _MODE_FULL
        self._rate = 1.0
        self._gap = 1
        self._log_q = 0.0
        self._pending: List[int] = []
        self._gaps: List[int] = []
        self._rates: List[float] = []
        self._rng = random.Random(0)
        self._rng_random = self._rng.random
        self.refresh()

    def refresh(self) -> None:
        """Re-derive per-site predicate base indices after registration.

        The transformer registers sites while rewriting; call this once
        afterwards (done automatically by
        :func:`repro.instrument.tracer.instrument_source`).
        """
        self._base = [
            self.table.predicate_indices_at(s)[0] if self.table.predicate_indices_at(s) else 0
            for s in range(self.table.n_sites)
        ]

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def begin_run(self, plan: SamplingPlan, seed: int) -> None:
        """Reset counters and install the sampling plan for one run."""
        n_sites = self.table.n_sites
        n_preds = self.table.n_predicates
        if len(self._base) != n_sites:
            self.refresh()
        self._site_obs = [0] * n_sites
        self._true = [0] * n_preds
        self._rng = random.Random(seed)
        self._rng_random = self._rng.random
        self._pending = []

        if _obs_enabled():
            _obs_inc(f"runtime.begin_run.{plan.mode}")
        if plan.mode == "uniform":
            self._rate = plan.rate
            self._log_q = math.log(1.0 - plan.rate) if plan.rate < 1.0 else 0.0
            self._gap = geometric_gap(plan.rate, self._rng_random())
        elif plan.mode == "per-site":
            if plan.site_rates is None or len(plan.site_rates) != n_sites:
                raise ValueError(
                    f"per-site plan needs exactly one rate per site ({n_sites})"
                )
            self._rates = [float(r) for r in plan.site_rates]
            self._gaps = [
                geometric_gap(r, self._rng_random()) for r in self._rates
            ]
        elif plan.mode != "full":
            raise ValueError(f"unknown sampling mode {plan.mode!r}")
        self._mode_id = _MODE_IDS[plan.mode]

    def end_run(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Return ``(site_observed, pred_true)`` sparse count dicts.

        When observability is on, the run's aggregate sampling activity
        is folded into the metrics here -- once per run, never per
        observation, so the per-opportunity fast path stays untouched
        and instrumented executions remain bit-identical.
        """
        site_obs = {i: c for i, c in enumerate(self._site_obs) if c}
        pred_true = {i: c for i, c in enumerate(self._true) if c}
        if _obs_enabled():
            _obs_inc("runtime.runs")
            _obs_inc("runtime.samples_taken", sum(site_obs.values()))
            _obs_inc("runtime.predicates_true", sum(pred_true.values()))
        return site_obs, pred_true

    def _next_gap(self) -> int:
        """Deal the next uniform-mode gap, refilling the batch when dry.

        Gaps are consumed in draw order (the batch is stored reversed so
        ``pop()`` is O(1)), and every gap costs exactly one RNG variate,
        so the decision stream is independent of :data:`GAP_BATCH`.
        """
        pending = self._pending
        if not pending:
            rnd = self._rng_random
            rate = self._rate
            if rate >= 1.0:
                pending[:] = [geometric_gap(rate, rnd()) for _ in range(GAP_BATCH)]
            else:
                log_q = self._log_q
                floor = math.floor
                log = math.log
                pending[:] = [
                    int(floor(log(max(rnd(), 1e-300)) / log_q)) + 1
                    for _ in range(GAP_BATCH)
                ]
            pending.reverse()
        return pending.pop()

    # ------------------------------------------------------------------
    # Observation helpers called from instrumented code (fast path).
    # The countdown is inlined: a skipped opportunity is one attribute
    # load, a decrement and a store -- no method dispatch.
    # ------------------------------------------------------------------
    def branch(self, site: int, value):
        """Record a branch test outcome; returns ``value`` unchanged."""
        m = self._mode_id
        if m == _MODE_UNIFORM:
            g = self._gap - 1
            if g > 0:
                self._gap = g
                return value
            self._gap = self._next_gap()
        elif m == _MODE_PER_SITE:
            gaps = self._gaps
            g = gaps[site] - 1
            if g > 0:
                gaps[site] = g
                return value
            gaps[site] = geometric_gap(self._rates[site], self._rng_random())
        self._site_obs[site] += 1
        b = self._base[site]
        if value:
            self._true[b] += 1
        else:
            self._true[b + 1] += 1
        return value

    def ret(self, site: int, value):
        """Record a call's scalar return sign; returns ``value`` unchanged.

        Non-scalar values -- including ``bool``, which is not a scalar in
        the paper's sense -- leave the site unobserved, mirroring the C
        scheme's restriction to scalar-returning call sites.
        """
        if isinstance(value, _NUMERIC) and not isinstance(value, bool):
            m = self._mode_id
            if m == _MODE_UNIFORM:
                g = self._gap - 1
                if g > 0:
                    self._gap = g
                    return value
                self._gap = self._next_gap()
            elif m == _MODE_PER_SITE:
                gaps = self._gaps
                g = gaps[site] - 1
                if g > 0:
                    gaps[site] = g
                    return value
                gaps[site] = geometric_gap(self._rates[site], self._rng_random())
            self._site_obs[site] += 1
            b = self._base[site]
            t = self._true
            if value < 0:
                t[b] += 1      # < 0
                t[b + 4] += 1  # != 0
                t[b + 5] += 1  # <= 0
            elif value == 0:
                t[b + 1] += 1  # == 0
                t[b + 3] += 1  # >= 0
                t[b + 5] += 1  # <= 0
            else:
                t[b + 2] += 1  # > 0
                t[b + 3] += 1  # >= 0
                t[b + 4] += 1  # != 0
        return value

    def pairs(self, sites: Sequence[int], x, ys: Sequence) -> None:
        """Record scalar-pair relations between ``x`` and each ``y``.

        Each ``(x, y)`` pair is its own instrumentation site, sampled
        independently.  Non-numeric operands (including ``bool`` and the
        :data:`UNBOUND` sentinel) leave their site unobserved.
        """
        if not (isinstance(x, _NUMERIC) and not isinstance(x, bool)):
            return
        m = self._mode_id
        t = self._true
        for site, y in zip(sites, ys):
            if not (isinstance(y, _NUMERIC) and not isinstance(y, bool)):
                continue
            if m == _MODE_UNIFORM:
                g = self._gap - 1
                if g > 0:
                    self._gap = g
                    continue
                self._gap = self._next_gap()
            elif m == _MODE_PER_SITE:
                gaps = self._gaps
                g = gaps[site] - 1
                if g > 0:
                    gaps[site] = g
                    continue
                gaps[site] = geometric_gap(self._rates[site], self._rng_random())
            self._site_obs[site] += 1
            b = self._base[site]
            if x < y:
                t[b] += 1      # <
                t[b + 4] += 1  # !=
                t[b + 5] += 1  # <=
            elif x == y:
                t[b + 1] += 1  # ==
                t[b + 3] += 1  # >=
                t[b + 5] += 1  # <=
            else:
                t[b + 2] += 1  # >
                t[b + 3] += 1  # >=
                t[b + 4] += 1  # !=
