"""Section 2's performance claim: sampling keeps overhead low.

"We have found that a sampling rate of 1/100 in most applications keeps
the performance overhead of instrumentation low."  In C the transformed
fast path costs a counter decrement; in Python every observation
opportunity still pays a call, so our absolute overheads are larger —
the *ordering* is what we assert: uninstrumented < sparsely sampled <
fully observed.
"""

import random
import time

from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.subjects import base as subject_base
from repro.subjects.moss import MossSubject
from repro.subjects.moss import program as moss_program
from repro.subjects.moss.generator import generate_job

from benchmarks.conftest import write_result

_JOBS = 40


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_sampling_overhead_ordering(benchmark):
    subject = MossSubject()
    rng = random.Random(7)
    jobs = [generate_job(rng) for _ in range(_JOBS)]

    def run_uninstrumented():
        for job in jobs:
            subject_base.begin_truth_capture()
            try:
                moss_program.main(job)
            except Exception:
                pass
            subject_base.end_truth_capture()

    program = instrument_source(subject.source(), "moss-overhead")
    entry = program.func("main")

    def run_instrumented(plan):
        def inner():
            for i, job in enumerate(jobs):
                subject_base.begin_truth_capture()
                program.begin_run(plan, seed=i)
                try:
                    entry(job)
                except Exception:
                    pass
                program.end_run()
                subject_base.end_truth_capture()
        return inner

    base_s = min(_timed(run_uninstrumented) for _ in range(2))
    sparse_s = min(_timed(run_instrumented(SamplingPlan.uniform(0.01))) for _ in range(2))
    full_s = min(_timed(run_instrumented(SamplingPlan.full())) for _ in range(2))

    benchmark.pedantic(run_instrumented(SamplingPlan.uniform(0.01)), rounds=1, iterations=1)

    assert base_s < sparse_s < full_s
    sparse_over = sparse_s / base_s
    full_over = full_s / base_s
    # Sparse sampling must recover a substantial share of the full
    # observation cost.
    assert sparse_over < full_over * 0.9

    write_result(
        "instrumentation_overhead.txt",
        (
            f"{_JOBS} MOSS jobs\n"
            f"uninstrumented: {base_s * 1000:8.1f} ms\n"
            f"sampled 1/100:  {sparse_s * 1000:8.1f} ms ({sparse_over:4.1f}x)\n"
            f"full observ.:   {full_s * 1000:8.1f} ms ({full_over:4.1f}x)\n"
            "(Python pays per-opportunity call overhead that C's "
            "fast path avoids; the ordering is the reproduced claim)"
        ),
    )


#: Ceiling on the no-op floor in units of a bare identity call.  Before
#: the method-dispatch sampler was retired, 12 interleaved measurements
#: on a 2-vCPU Linux VM (Python 3.11) put it at a median 5.11x a bare
#: call (4.94-5.43x), and the inlined countdown at 4.47x (4.20-4.70x):
#: installing the sampler touched the instance ``__dict__``, which
#: slows every attribute load in the helpers.  Without that, the
#: inlined countdown measures 1.9-2.3x.  The gate this replaces was
#: "inlined < 1.25 x dispatch", about 6.4x a bare call; this one is
#: tighter, and catches a return of the materialised ``__dict__``.
NOOP_FLOOR_MAX_RATIO = 3.5


class _BareHelper:
    """The reference cost: a method with ``Runtime.branch``'s signature
    that only returns its value."""

    def branch(self, site, value):
        return value


def test_fast_sampler_noop_floor_not_regressed(benchmark):
    """The "not sampled" branch stays within a fixed multiple of a call.

    The runtime inlines the countdown decrement into every observation
    helper precisely to lower the per-opportunity floor that dominates
    sparse deployments.  This gate holds that floor: at a near-zero
    rate, where essentially every call takes the no-op branch,
    ``Runtime.branch`` may cost at most :data:`NOOP_FLOOR_MAX_RATIO`
    times a bare identity method with the same signature.  The two
    loops are timed interleaved in one process, best of five each, so
    host load moves both alike; a failure reports both absolute costs
    and their ratio.  Nothing is written: the timings are this host's.
    """
    from repro.core.predicates import PredicateTable, Scheme
    from repro.instrument.runtime import Runtime

    n_obs = 100_000
    table = PredicateTable()
    site = table.add_site(Scheme.BRANCHES, "bench", 1, "x")
    runtime = Runtime(table)
    runtime.begin_run(SamplingPlan.uniform(1e-6), seed=0)
    index = site.index

    def loop_of(branch):
        def loop():
            for _ in range(n_obs):
                branch(index, True)
        return loop

    loops = {"runtime": loop_of(runtime.branch), "bare": loop_of(_BareHelper().branch)}
    best = {name: float("inf") for name in loops}
    for _ in range(5):
        for name, loop in loops.items():
            best[name] = min(best[name], _timed(loop))
    runtime.end_run()
    fast_ns = best["runtime"] / n_obs * 1e9
    bare_ns = best["bare"] / n_obs * 1e9
    ratio = fast_ns / bare_ns

    benchmark.pedantic(loops["runtime"], rounds=1, iterations=1)

    assert ratio < NOOP_FLOOR_MAX_RATIO, (
        f"no-op floor {fast_ns:.0f} ns/obs is {ratio:.2f}x a bare call "
        f"({bare_ns:.0f} ns/obs); the gate allows {NOOP_FLOOR_MAX_RATIO}x"
    )


def test_observability_off_is_a_shared_noop(benchmark):
    """The `repro.obs` hooks on the hot paths must be free when disabled.

    The disabled facade hands back one shared no-op context manager --
    no allocation, no branching beyond a module-global check -- so the
    collection/analysis numbers above are unchanged by the hooks'
    existence (docs/OBSERVABILITY.md pins this file for that claim).
    """
    from repro import obs
    from repro.obs.metrics import NULL_TIMER

    assert not obs.enabled()
    assert obs.timer("hot.path") is NULL_TIMER
    assert obs.span("hot.path", chunk=0) is NULL_TIMER

    def disabled_hooks():
        for _ in range(100_000):
            with obs.span("hot.path"):
                pass
            obs.inc("hot.counter")

    benchmark.pedantic(disabled_hooks, rounds=3, iterations=1)
