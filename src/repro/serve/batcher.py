"""Bounded in-memory buffering of accepted uploads into shard-sized batches.

The shard store names and audits shards by their seed range, and the
differential acceptance bar requires that a population collected over the
network commits the *same* seed ranges a local
:func:`repro.harness.parallel.run_trials_sharded` session would.  The
batcher therefore groups accepted reports by seed: a batch is a
contiguous run of ``batch_runs`` seeds, emitted only once every seed in
the range has arrived, so out-of-order and concurrent uploaders still
produce deterministic shards.

Idempotency lives here too: a report whose seed is already pending or
already inside a committed range is acknowledged as a duplicate and
dropped, which is what makes the client's at-least-once retry loop safe.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from repro.core.reports import RunReport


class BatcherFull(RuntimeError):
    """The bounded buffer is at capacity; the server answers 503."""


class ReportBatcher:
    """Buffer accepted reports and emit contiguous, shard-sized batches.

    Args:
        batch_runs: Seeds per emitted batch (the shard size).
        max_buffered: Upper bound on pending (accepted, uncommitted)
            reports; offers past it raise :class:`BatcherFull` so memory
            stays bounded under a flood of uploads.
        committed: Initial committed seed ranges as ``(start, stop)``
            half-open pairs (from the store manifest), so restarts and
            replays stay idempotent.
    """

    def __init__(
        self,
        batch_runs: int = 200,
        max_buffered: int = 100_000,
        committed: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        if batch_runs <= 0:
            raise ValueError(f"batch_runs must be positive, got {batch_runs}")
        self.batch_runs = batch_runs
        self.max_buffered = max_buffered
        self._pending: Dict[int, RunReport] = {}
        # Disjoint, sorted, merged half-open [start, stop) ranges.
        self._committed: List[Tuple[int, int]] = []
        for start, stop in sorted(committed):
            self._add_range(start, stop)

    # -- committed-range bookkeeping ------------------------------------

    def _add_range(self, start: int, stop: int) -> None:
        if stop <= start:
            return
        index = bisect.bisect_left(self._committed, (start, stop))
        self._committed.insert(index, (start, stop))
        merged: List[Tuple[int, int]] = []
        for lo, hi in self._committed:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self._committed = merged

    def is_committed(self, seed: int) -> bool:
        """True when ``seed`` lies inside a committed range."""
        index = bisect.bisect_right(self._committed, (seed, float("inf"))) - 1
        if index < 0:
            return False
        lo, hi = self._committed[index]
        return lo <= seed < hi

    # -- ingestion ------------------------------------------------------

    def offer(self, report: RunReport) -> str:
        """Accept one report; returns ``"queued"`` or ``"duplicate"``.

        Raises:
            BatcherFull: the pending buffer is at ``max_buffered`` and
                this seed is new.
        """
        if self.is_committed(report.seed) or report.seed in self._pending:
            return "duplicate"
        if len(self._pending) >= self.max_buffered:
            raise BatcherFull(
                f"{len(self._pending)} reports pending (limit {self.max_buffered})"
            )
        self._pending[report.seed] = report
        return "queued"

    def discard(self, seed: int) -> None:
        """Forget a pending report (rolling back a partial acceptance)."""
        self._pending.pop(seed, None)

    @property
    def queue_depth(self) -> int:
        """Accepted reports not yet committed."""
        return len(self._pending)

    def pending_reports(self) -> List[RunReport]:
        """The pending reports in seed order (for WAL compaction)."""
        return [self._pending[seed] for seed in sorted(self._pending)]

    # -- batch emission -------------------------------------------------

    def _contiguous_groups(self) -> List[Tuple[int, int]]:
        """Maximal contiguous pending seed ranges, as ``[start, stop)``."""
        groups: List[Tuple[int, int]] = []
        for seed in sorted(self._pending):
            if groups and seed == groups[-1][1]:
                groups[-1] = (groups[-1][0], seed + 1)
            else:
                groups.append((seed, seed + 1))
        return groups

    def _chunks(self, start: int, stop: int, partial: bool) -> List[Tuple[int, List[RunReport]]]:
        out: List[Tuple[int, List[RunReport]]] = []
        seed = start
        while seed + self.batch_runs <= stop:
            out.append((seed, [self._pending[s] for s in range(seed, seed + self.batch_runs)]))
            seed += self.batch_runs
        if partial and seed < stop:
            out.append((seed, [self._pending[s] for s in range(seed, stop)]))
        return out

    def take_ready(self) -> List[Tuple[int, List[RunReport]]]:
        """Full batches ready to commit, as ``(seed_start, reports)``.

        Only complete runs of ``batch_runs`` contiguous seeds are
        returned; stragglers wait for their neighbours (or for
        :meth:`take_all` at shutdown).  The reports stay pending until
        :meth:`mark_committed` -- callers must commit-then-mark each
        batch before calling this again.
        """
        ready: List[Tuple[int, List[RunReport]]] = []
        for start, stop in self._contiguous_groups():
            ready.extend(self._chunks(start, stop, partial=False))
        return ready

    def take_all(self) -> List[Tuple[int, List[RunReport]]]:
        """Every pending report, grouped per contiguous range (drain).

        Used by graceful shutdown and explicit flushes: partial tail
        groups are emitted too, each capped at ``batch_runs`` reports so
        no shard exceeds the configured size.
        """
        batches: List[Tuple[int, List[RunReport]]] = []
        for start, stop in self._contiguous_groups():
            batches.extend(self._chunks(start, stop, partial=True))
        return batches

    def mark_committed(self, seed_start: int, count: int) -> None:
        """Record a committed batch and forget its pending reports."""
        for seed in range(seed_start, seed_start + count):
            self._pending.pop(seed, None)
        self._add_range(seed_start, seed_start + count)
