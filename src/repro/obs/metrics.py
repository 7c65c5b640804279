"""Counters, gauges and timers: the metrics half of :mod:`repro.obs`.

A :class:`MetricsRegistry` is process-local and thread-safe.  Counters
and timer statistics are *additive*, so registries from different
processes merge exactly (see :meth:`MetricsRegistry.merge`); gauges are
last-write-wins.  Everything serialises to one JSON document with
schema tag :data:`METRICS_SCHEMA`::

    {
      "schema": "repro-metrics/v1",
      "created_unix": 1754380800.0,
      "pid": 1234,
      "counters": {"runtime.runs": 5000},
      "gauges": {"analysis.pruning_kept": 27},
      "timers": {
        "scores.from_counts": {
          "count": 16, "total_seconds": 0.021,
          "min_seconds": 0.0009, "max_seconds": 0.004
        }
      }
    }

Metric names are dotted paths (``subsystem.measure``); the full
catalogue with units lives in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict

#: Schema tag of the metrics JSON document.
METRICS_SCHEMA = "repro-metrics/v1"


class _NullTimer:
    """Shared no-op context manager returned when observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        return None


#: The no-op singleton; identity-tested by the zero-overhead tests.
NULL_TIMER = _NullTimer()


class _Timer:
    """Context manager recording one duration into a registry timer."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._start)


class MetricsRegistry:
    """Thread-safe accumulator for counters, gauges and timers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # name -> [count, total, min, max]
        self._timers: Dict[str, list] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into timer ``name``."""
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                self._timers[name] = [1, seconds, seconds, seconds]
            else:
                stat[0] += 1
                stat[1] += seconds
                if seconds < stat[2]:
                    stat[2] = seconds
                if seconds > stat[3]:
                    stat[3] = seconds

    def timer(self, name: str) -> _Timer:
        """A context manager that times its block into ``name``."""
        return _Timer(self, name)

    # ------------------------------------------------------------------
    # Reading, merging, persistence
    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A JSON-clean copy of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": {
                    name: {
                        "count": stat[0],
                        "total_seconds": stat[1],
                        "min_seconds": stat[2],
                        "max_seconds": stat[3],
                    }
                    for name, stat in self._timers.items()
                },
            }

    def merge(self, snap: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and timer statistics add; gauges take the incoming
        value (the merged snapshot is the more recent observation).
        """
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = value
            for name, t in snap.get("timers", {}).items():
                stat = self._timers.get(name)
                if stat is None:
                    self._timers[name] = [
                        t["count"],
                        t["total_seconds"],
                        t["min_seconds"],
                        t["max_seconds"],
                    ]
                else:
                    stat[0] += t["count"]
                    stat[1] += t["total_seconds"]
                    stat[2] = min(stat[2], t["min_seconds"])
                    stat[3] = max(stat[3], t["max_seconds"])

    def reset(self) -> None:
        """Zero every metric (forked workers call this to track deltas)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()

    def to_document(self) -> dict:
        """The full ``repro-metrics/v1`` JSON document."""
        return {
            "schema": METRICS_SCHEMA,
            "created_unix": time.time(),
            "pid": os.getpid(),
            **self.snapshot(),
        }

    def write(self, path: str) -> None:
        """Write :meth:`to_document` to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_document(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def format_metrics(snap: dict) -> str:
    """Render a snapshot as the aligned table ``analyze --profile`` prints."""
    lines = []
    timers = snap.get("timers", {})
    if timers:
        lines.append(f"{'timer':<34} {'calls':>7} {'total':>10} {'mean':>10} {'max':>10}")
        for name in sorted(timers):
            t = timers[name]
            mean = t["total_seconds"] / max(t["count"], 1)
            lines.append(
                f"{name:<34} {t['count']:>7d} {t['total_seconds'] * 1e3:>8.1f}ms "
                f"{mean * 1e3:>8.2f}ms {t['max_seconds'] * 1e3:>8.2f}ms"
            )
    counters = snap.get("counters", {})
    if counters:
        lines.append("")
        lines.append(f"{'counter':<46} {'value':>12}")
        for name in sorted(counters):
            value = counters[name]
            text = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"{name:<46} {text:>12}")
    gauges = snap.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append(f"{'gauge':<46} {'value':>12}")
        for name in sorted(gauges):
            lines.append(f"{name:<46} {gauges[name]:>12g}")
    return "\n".join(lines) if lines else "(no metrics recorded)"
