"""``repro.obs``: zero-dependency observability for the CBI pipeline.

Two instruments, both stdlib-only and **measurement-only** (enabling
them never changes collected reports, scores, or shard bytes -- the
differential and bit-identical test suites run with observability on):

* **Metrics** (:mod:`repro.obs.metrics`): named counters, gauges and
  timers accumulated in a process-local :class:`MetricsRegistry` and
  written as one JSON document (``repro-metrics/v1``).
* **Trace spans** (:mod:`repro.obs.trace`): Chrome Trace Event Format
  records, one JSON object per line, appended crash-safely so forked
  collection workers can share one trace file.  Convert for
  ``chrome://tracing`` with ``python -m repro.obs.trace``.

The module-level facade here is what instrumented call sites use::

    from repro.obs import enabled, inc, span, timer

    with timer("scores.from_counts"):
        ...
    if enabled():
        inc("runtime.runs")

Observability is **off by default**: every facade call first checks one
module global, ``timer``/``span`` return a shared no-op context manager,
and ``inc``/``gauge`` return immediately -- the hot paths stay on a
fast path of a single ``is None`` test.  :func:`configure` switches it
on (process-wide); :func:`shutdown` switches it off again.

Process model: a forked worker inherits the parent's configuration.
Workers that want their own deltas call :func:`reset`, do their work,
and ship :func:`snapshot` back for the parent to :func:`merge_snapshot`
(this is exactly what :func:`repro.harness.parallel.run_trials_sharded`
does).  Trace events need no merging -- every process appends whole
lines to the same file, and events carry their ``pid``.

Metric names are catalogued, with units, in ``docs/OBSERVABILITY.md``;
tests pin that the catalogue and the code agree.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    NULL_TIMER,
    format_metrics,
)
from repro.obs.trace import TraceWriter

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "TraceWriter",
    "configure",
    "shutdown",
    "enabled",
    "registry",
    "tracer",
    "inc",
    "gauge",
    "timer",
    "span",
    "instant",
    "reset",
    "snapshot",
    "merge_snapshot",
    "write_metrics",
    "format_metrics",
    "print_profile",
]

#: Process-wide observability state.  ``None`` means off.
_REGISTRY: Optional[MetricsRegistry] = None
_TRACER: Optional[TraceWriter] = None


def configure(trace_path: Optional[str] = None) -> MetricsRegistry:
    """Enable observability for this process (and future forked children).

    Args:
        trace_path: When given, also emit trace spans to this JSONL file
            (created if missing, appended otherwise).

    Returns:
        The now-active :class:`MetricsRegistry`.
    """
    global _REGISTRY, _TRACER
    if _REGISTRY is None:
        _REGISTRY = MetricsRegistry()
    _TRACER = TraceWriter(trace_path) if trace_path else None
    return _REGISTRY


def shutdown() -> None:
    """Disable observability and drop all accumulated state."""
    global _REGISTRY, _TRACER
    _REGISTRY = None
    _TRACER = None


def enabled() -> bool:
    """True when :func:`configure` has been called and not shut down."""
    return _REGISTRY is not None


def registry() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when observability is off."""
    return _REGISTRY


def tracer() -> Optional[TraceWriter]:
    """The active trace writer, or ``None``."""
    return _TRACER


def inc(name: str, value: int = 1) -> None:
    """Add ``value`` to counter ``name`` (no-op when disabled)."""
    if _REGISTRY is not None:
        _REGISTRY.inc(name, value)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (no-op when disabled)."""
    if _REGISTRY is not None:
        _REGISTRY.gauge(name, value)


def timer(name: str):
    """Context manager timing a block into timer ``name``.

    When observability is off this returns the shared :data:`NULL_TIMER`
    singleton, so the disabled cost is one global check and no
    allocation.
    """
    if _REGISTRY is None:
        return NULL_TIMER
    return _REGISTRY.timer(name)


def span(name: str, **args):
    """Context manager recording a trace span *and* a timer.

    The span lands in the trace file (when tracing is configured) as a
    Chrome ``"X"`` complete event with ``args`` attached; its duration
    also accumulates into the timer of the same name, so ``--profile``
    output covers the span hierarchy even without a trace file.
    """
    if _REGISTRY is None:
        return NULL_TIMER
    if _TRACER is None:
        return _REGISTRY.timer(name)
    return _TRACER.span(name, registry=_REGISTRY, **args)


def instant(name: str, **args) -> None:
    """Emit an instantaneous trace event (and count it as a counter)."""
    if _REGISTRY is not None:
        _REGISTRY.inc(name)
    if _TRACER is not None:
        _TRACER.instant(name, **args)


def reset() -> None:
    """Zero the active registry (used by forked workers to track deltas)."""
    if _REGISTRY is not None:
        _REGISTRY.reset()


def snapshot() -> Optional[dict]:
    """A JSON-clean snapshot of the registry, or ``None`` when disabled."""
    if _REGISTRY is None:
        return None
    return _REGISTRY.snapshot()


def merge_snapshot(snap: Optional[dict]) -> None:
    """Fold a worker's snapshot into this process's registry."""
    if snap and _REGISTRY is not None:
        _REGISTRY.merge(snap)


def write_metrics(path: str) -> None:
    """Write the accumulated metrics as a ``repro-metrics/v1`` document."""
    if _REGISTRY is None:
        raise RuntimeError("observability is not configured; nothing to write")
    _REGISTRY.write(path)


def print_profile(stream=None) -> None:
    """Render the accumulated timers/counters as a table (for ``--profile``)."""
    if _REGISTRY is None:
        return
    print(format_metrics(_REGISTRY.snapshot()), file=stream or sys.stderr)
