"""Parallel trial execution.

Trials are independent by construction (each derives its input and
sampler state from ``seed + i``), so populations can be collected on all
cores.  :func:`run_trials_sharded` is the one parallel collector: each
worker writes its chunk *directly to disk* as a shard archive
(:mod:`repro.store`), and only shard membership records (a filename and
two counts per chunk) return to the parent.  Parent memory is therefore
independent of ``n_runs``, which is the collection story for
populations far larger than one process can hold.  Merging the shards
in seed order (``ShardStore.load_merged``) reproduces the serial
:func:`repro.harness.runner.run_trials` population bit for bit; callers
that want the population in memory collect into a temporary store and
merge it (:func:`repro.harness.experiment.run_experiment` with
``jobs > 1``).

The collector is *supervised*: each chunk runs in
its own forked worker process whose death (SIGKILL, crash) or hang
(per-chunk timeout) the parent detects and repairs by re-running the
chunk's seed range with exponential backoff.  Because every trial
derives its input and sampler state purely from ``seed + i``
(:meth:`repro.instrument.runtime.Runtime.begin_run`), a retried range
reproduces the lost shard's contents exactly -- fault recovery never
perturbs the collected population.  Shards are committed through the
store's write-ahead protocol (pending file, then manifest append as the
commit point), each staged shard must pass the store's one shard check
(:func:`repro.store.shards.check_shard`) before commit, and damaged
shards are quarantined and re-collected.  Every attempt, failure,
quarantine and commit is appended to the store's
``collection_log.jsonl``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.runner import run_trials
from repro.instrument.sampling import SamplingPlan
from repro.obs import (
    enabled as _obs_enabled,
    inc as _obs_inc,
    instant as _obs_instant,
    merge_snapshot as _obs_merge,
    reset as _obs_reset,
    snapshot as _obs_snapshot,
    span as _obs_span,
)
from repro.subjects.base import Subject

#: The instrumented program, handed to forked chunk workers.
_WORKER: Dict[str, object] = {}


def _run_chunk_to_shard(
    start: int, count: int, plan: SamplingPlan, shard_path: str
) -> int:
    """Worker task: run one chunk and persist it as a shard archive.

    Returns the chunk's failing-run count -- with the shard's digest,
    the only data crossing back to the parent.
    """
    from repro.core.io import save_reports

    subject: Subject = _WORKER["subject"]  # type: ignore[assignment]
    program = _WORKER["program"]
    reports, truth = run_trials(
        subject, program, count, plan, seed=start  # type: ignore[arg-type]
    )
    save_reports(shard_path, reports, truth)
    return reports.num_failing


#: How long a hang-worker fault sleeps; effectively forever next to any
#: realistic chunk timeout.
_HANG_SECONDS = 3600.0


@dataclass
class _ChunkState:
    """Supervision bookkeeping for one collection chunk."""

    index: int
    start: int
    count: int
    attempt: int = 0
    ready_at: float = 0.0  # monotonic time before which it may not launch


@dataclass
class CollectionReport:
    """What the supervised collector did beyond the happy path.

    Attached to the returned store as ``store.last_collection`` and
    mirrored, event by event, in the store's ``collection_log.jsonl``.

    Attributes:
        n_chunks: Chunks this session collected.
        attempts: Worker launches, including retries.
        retries: Re-executions after a failure (``attempts - n_chunks``
            when every chunk eventually succeeded).
        worker_deaths: Attempts that ended with a dead worker (crash or
            kill) before reporting a result.
        timeouts: Attempts the parent killed for exceeding the chunk
            timeout.
        corrupt_shards: Attempts whose shard failed post-write
            verification and was quarantined.
        quarantined: Quarantined shard filenames.
    """

    n_chunks: int = 0
    attempts: int = 0
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    corrupt_shards: int = 0
    quarantined: List[str] = field(default_factory=list)


def _chunk_worker(
    result_queue,
    chunk_index: int,
    attempt: int,
    start: int,
    count: int,
    plan: SamplingPlan,
    pending_path: str,
    faults,
) -> None:
    """Collection worker body: run a chunk, write + hash its shard.

    Runs in a forked child that inherited the instrumented program via
    :data:`_WORKER`.  The shard digest is computed on the healthy bytes
    *before* any injected damage, so the parent's shard check catches
    the damage exactly as it would catch real in-transit corruption.
    """
    from repro.core.io import file_sha256
    from repro.store.faults import FaultInjector, apply_worker_damage

    injector = FaultInjector(faults or ())
    if injector.fires("hang-worker", chunk_index, attempt):
        time.sleep(_HANG_SECONDS)
    if injector.fires("kill-worker", chunk_index, attempt):
        os.kill(os.getpid(), signal.SIGKILL)
    # The fork inherited the parent's metrics registry; reset it so the
    # snapshot shipped back covers exactly this chunk attempt.  Trace
    # events append straight to the shared trace file (one write per
    # line), so worker spans land in the same timeline as the parent's.
    obs_on = _obs_enabled()
    if obs_on:
        _obs_reset()
    with _obs_span(
        "collect.worker_chunk",
        chunk=chunk_index,
        attempt=attempt,
        seed_start=start,
        count=count,
    ):
        num_failing = _run_chunk_to_shard(start, count, plan, pending_path)
        digest = file_sha256(pending_path)
    apply_worker_damage(injector, chunk_index, attempt, pending_path)
    result_queue.put(
        (chunk_index, num_failing, digest, _obs_snapshot() if obs_on else None)
    )


def run_trials_sharded(
    subject: Subject,
    n_runs: int,
    plan: SamplingPlan,
    store_dir: str,
    seed: int = 0,
    jobs: int = 2,
    chunk_size: int = 200,
    max_attempts: int = 3,
    chunk_timeout: Optional[float] = None,
    backoff_base: float = 0.1,
    backoff_cap: float = 5.0,
    faults=None,
):
    """Collect a population as on-disk shards written directly by workers.

    No run record ever crosses back to the parent: each worker builds its
    chunk's :class:`~repro.core.reports.ReportSet` locally and writes it
    as a shard archive into ``store_dir``.  The parent only instruments once
    (for the predicate table in the manifest) and commits shard
    membership, so its memory use is independent of ``n_runs``.

    The trial seeding is identical to the serial and streaming runners,
    so ``ShardStore.load_merged()`` on the result is bit-identical to
    :func:`repro.harness.runner.run_trials` with the same arguments --
    including when chunks are retried, because a chunk's shard is a pure
    function of its seed range.

    Supervision: each chunk runs in its own forked process.  A worker
    that dies (crash, OOM kill) or exceeds ``chunk_timeout`` is detected
    and its seed range re-run after an exponential backoff
    (``backoff_base * 2**(attempt-1)``, capped at ``backoff_cap``), up to
    ``max_attempts`` total attempts per chunk.  Completed shards must
    pass :func:`repro.store.shards.check_shard` before commit; damaged
    ones are quarantined and the chunk retried.  Shards are committed in
    seed order through the store's write-ahead protocol, so an
    interrupted session never leaves a partially written shard under a
    committed name (see :mod:`repro.store.shards`).

    Args:
        subject: The subject program.
        n_runs: Total trials.
        plan: Sampling plan (shared by every trial).
        store_dir: Shard-store directory; created on first use, appended
            to otherwise (the instrumentation must match).
        seed: Base seed; trial ``i`` uses ``seed + i``.
        jobs: Concurrent worker process count.
        chunk_size: Trials per shard.
        max_attempts: Total attempts per chunk before giving up.
        chunk_timeout: Seconds a single chunk attempt may run; ``None``
            disables the watchdog.
        backoff_base: First-retry delay in seconds.
        backoff_cap: Upper bound on the retry delay.
        faults: Optional iterable of :class:`repro.store.faults.Fault`
            to inject (testing only; the CLI passes them only behind
            ``--testing``).  Forked workers receive them with their
            chunk.

    Returns:
        The :class:`repro.store.ShardStore` holding the new shards, with
        this session's :class:`CollectionReport` attached as
        ``store.last_collection``.

    Raises:
        ValueError: ``chunk_size`` is not positive or ``n_runs`` is
            negative.
        repro.store.errors.DuplicateSeedRangeError: The seed range
            overlaps a registered shard; no trial has run.
        repro.store.errors.CollectionError: A chunk failed
            ``max_attempts`` times; everything committed before the
            failure remains committed and recoverable.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if n_runs < 0:
        raise ValueError(f"n_runs must be >= 0, got {n_runs}")
    from repro.store import ShardStore
    from repro.store.errors import (
        CollectionError,
        DuplicateSeedRangeError,
        ShardCheckError,
    )
    from repro.store.faults import FaultInjector
    from repro.store.manifest import ShardEntry, shard_filename
    from repro.store.shards import PENDING_SUFFIX, check_shard

    injector = FaultInjector(faults or ())

    program = subject.build_program()
    store = ShardStore.open_or_create(store_dir, subject.name, program.table, plan)
    store.recover()

    chunks = [
        _ChunkState(index=i, start=seed + offset, count=min(chunk_size, n_runs - offset))
        for i, offset in enumerate(range(0, n_runs, chunk_size))
    ]
    # The chunks tile [seed, seed + n_runs); refuse a session that would
    # re-collect registered seeds before any trial runs.
    session = ShardEntry(seed_start=seed, n_runs=n_runs, num_failing=0, sha256="")
    clash = store.manifest.overlapping(session) if n_runs else None
    if clash is not None:
        raise DuplicateSeedRangeError(
            f"seeds [{seed}, {seed + n_runs}) overlap registered shard "
            f"{clash.filename} in {store_dir}; choose a disjoint seed range "
            f"(next free seed: {store.next_seed})"
        )
    for chunk in chunks:
        filename = shard_filename(chunk.start)
        final_path = os.path.join(store_dir, filename)
        if os.path.exists(final_path):
            # A shard file with no manifest entry was never committed
            # (e.g. a pre-commit-protocol session died between the shard
            # write and the manifest update); its range was never counted,
            # so reclaim the name and re-collect it.
            os.unlink(final_path)
            store.log_event("reclaim-uncommitted", filename=filename)

    report = CollectionReport(n_chunks=len(chunks))
    store.log_event(
        "session-start",
        subject=subject.name,
        seed=seed,
        n_runs=n_runs,
        chunks=len(chunks),
        jobs=jobs,
        faults=[f.spec() for f in injector.faults],
    )

    # Workers are forked per chunk and inherit the instrumented program
    # through _WORKER -- no per-worker re-instrumentation, and chunk
    # shards stay a pure function of their seed range.
    _WORKER["subject"] = subject
    _WORKER["program"] = program

    ctx = multiprocessing.get_context("fork")
    result_queue = ctx.SimpleQueue()

    waiting: List[_ChunkState] = list(chunks)
    active: Dict[int, Tuple[object, float, _ChunkState]] = {}
    completed: Dict[int, ShardEntry] = {}
    chunk_attempt: Dict[int, int] = {}
    next_commit = 0
    results: Dict[int, Tuple[int, str, Optional[dict]]] = {}

    def pending_path_of(chunk: _ChunkState) -> str:
        return os.path.join(
            store_dir, shard_filename(chunk.start) + PENDING_SUFFIX
        )

    def fail_chunk(chunk: _ChunkState, why: str, detail: str) -> None:
        """Record a failed attempt and requeue (or give up on) the chunk."""
        store.log_event(
            "chunk-failed",
            chunk=chunk.index,
            seed_start=chunk.start,
            attempt=chunk.attempt,
            reason=why,
            detail=detail,
        )
        if _obs_enabled():
            _obs_instant(
                "collect.chunk_failed",
                chunk=chunk.index,
                attempt=chunk.attempt,
                reason=why,
            )
        results.pop(chunk.index, None)  # drop any stale result of this attempt
        staged = pending_path_of(chunk)
        if why == "corrupt-shard":
            record = store.quarantine_file(
                os.path.basename(staged),
                "failed-verification",
                detail,
                seed_start=chunk.start,
            )
            report.corrupt_shards += 1
            report.quarantined.append(record.filename)
        elif os.path.exists(staged):
            os.unlink(staged)
        next_attempt = chunk.attempt + 1
        if next_attempt >= max_attempts:
            for proc, _, _ in active.values():
                proc.kill()  # type: ignore[attr-defined]
                proc.join()  # type: ignore[attr-defined]
            raise CollectionError(chunk.start, chunk.count, next_attempt, f"{why}: {detail}")
        delay = min(backoff_cap, backoff_base * (2 ** chunk.attempt))
        chunk.attempt = next_attempt
        chunk.ready_at = time.monotonic() + delay
        report.retries += 1
        store.log_event(
            "chunk-retry",
            chunk=chunk.index,
            seed_start=chunk.start,
            attempt=next_attempt,
            backoff=delay,
        )
        waiting.append(chunk)

    # Entered manually so the span brackets the whole supervision loop
    # without re-indenting it; the matching __exit__ sits in the finally
    # below, so the span closes (and its trace event is emitted) even
    # when a chunk exhausts its attempts.
    session_span = _obs_span(
        "collect.session",
        subject=subject.name,
        n_runs=n_runs,
        chunks=len(chunks),
        jobs=jobs,
    )
    session_span.__enter__()
    try:
        while len(completed) < len(chunks) or next_commit < len(chunks):
            now = time.monotonic()

            # Launch ready chunks up to the concurrency cap.
            launchable = [c for c in waiting if c.ready_at <= now]
            for chunk in launchable:
                if len(active) >= max(jobs, 1):
                    break
                waiting.remove(chunk)
                proc = ctx.Process(
                    target=_chunk_worker,
                    args=(
                        result_queue,
                        chunk.index,
                        chunk.attempt,
                        chunk.start,
                        chunk.count,
                        plan,
                        pending_path_of(chunk),
                        injector.faults,
                    ),
                    daemon=True,
                )
                proc.start()
                report.attempts += 1
                chunk_attempt[chunk.index] = chunk.attempt
                deadline = now + chunk_timeout if chunk_timeout else float("inf")
                active[chunk.index] = (proc, deadline, chunk)
                store.log_event(
                    "chunk-start",
                    chunk=chunk.index,
                    seed_start=chunk.start,
                    count=chunk.count,
                    attempt=chunk.attempt,
                )

            # Drain finished workers' results.
            while not result_queue.empty():
                idx, failing, digest, snap = result_queue.get()
                results[idx] = (failing, digest, snap)

            # Reap exited or timed-out workers.
            for idx in list(active):
                proc, deadline, chunk = active[idx]
                if proc.is_alive():  # type: ignore[attr-defined]
                    if time.monotonic() > deadline:
                        proc.kill()  # type: ignore[attr-defined]
                        proc.join()  # type: ignore[attr-defined]
                        del active[idx]
                        report.timeouts += 1
                        fail_chunk(
                            chunk,
                            "timeout",
                            f"exceeded chunk timeout of {chunk_timeout}s",
                        )
                    continue
                proc.join()  # type: ignore[attr-defined]
                del active[idx]
                # A SimpleQueue write completes before the child exits,
                # but drain once more in case it landed after the loop
                # above.
                while not result_queue.empty():
                    ridx, failing, digest, snap = result_queue.get()
                    results[ridx] = (failing, digest, snap)
                if idx not in results:
                    report.worker_deaths += 1
                    fail_chunk(
                        chunk,
                        "worker-died",
                        f"worker exited with code {proc.exitcode} before "  # type: ignore[attr-defined]
                        "reporting a result",
                    )
                    continue
                failing, digest, snap = results.pop(idx)
                entry = ShardEntry(
                    seed_start=chunk.start,
                    n_runs=chunk.count,
                    num_failing=failing,
                    sha256=digest,
                )
                try:
                    check_shard(pending_path_of(chunk), entry, store.manifest.table_sha)
                except ShardCheckError as exc:
                    fail_chunk(chunk, "corrupt-shard", exc.detail)
                    continue
                # Fold the worker's metrics into the parent registry only
                # for accepted attempts: counters then reflect exactly the
                # work that produced the committed population.
                if snap is not None and _obs_enabled():
                    _obs_merge(snap)
                completed[idx] = entry
                store.log_event(
                    "chunk-done",
                    chunk=idx,
                    seed_start=chunk.start,
                    attempt=chunk.attempt,
                    n_runs=entry.n_runs,
                    num_failing=entry.num_failing,
                )

            # Commit completed chunks in seed order (merge order).
            while next_commit < len(chunks) and next_commit in completed:
                entry = completed[next_commit]
                store.commit_shard(entry)
                store.log_event(
                    "commit", chunk=next_commit, filename=entry.filename
                )
                if injector.fires(
                    "stale-manifest", next_commit, chunk_attempt.get(next_commit, 0)
                ):
                    os.unlink(os.path.join(store_dir, entry.filename))
                    store.log_event(
                        "fault-injected",
                        kind="stale-manifest",
                        chunk=next_commit,
                        filename=entry.filename,
                    )
                next_commit += 1

            if active or waiting or len(completed) > next_commit:
                time.sleep(0.005)
    finally:
        session_span.__exit__(None, None, None)
        for proc, _, _ in active.values():
            if proc.is_alive():  # type: ignore[attr-defined]
                proc.kill()  # type: ignore[attr-defined]
            proc.join()  # type: ignore[attr-defined]
        result_queue.close()

    if _obs_enabled():
        _obs_inc("collect.chunks", report.n_chunks)
        _obs_inc("collect.attempts", report.attempts)
        _obs_inc("collect.retries", report.retries)
        _obs_inc("collect.worker_deaths", report.worker_deaths)
        _obs_inc("collect.timeouts", report.timeouts)
        _obs_inc("collect.corrupt_shards", report.corrupt_shards)

    store.log_event(
        "session-end",
        chunks=report.n_chunks,
        attempts=report.attempts,
        retries=report.retries,
        timeouts=report.timeouts,
        worker_deaths=report.worker_deaths,
        corrupt_shards=report.corrupt_shards,
    )
    store.last_collection = report
    return store
