"""The uploader: spool reports to disk, drain them over HTTP, never lose one.

The paper's deployed clients are unreliable by assumption -- machines
crash, networks drop, servers restart -- so the client never treats the
network as durable.  Every run's report is first written to a local
**spool** (one crash-safe JSON file per seed); the drain loop uploads
spool entries in batches and deletes an entry only after the server
acknowledged its seed (accepted *or* duplicate -- the batcher's
seed-idempotency makes at-least-once delivery exact).  Transient
failures (refused connections, resets mid-body, 500s, 503 throttling,
timeouts) retry with exponential backoff and jitter; permanent
rejections (a 400 with a protocol reason) move the batch into the
spool's ``rejected/`` corner with the server's reason alongside, exactly
mirroring the server-side quarantine.  Every client mode -- plain,
steered, until-converged -- is rounds of one :func:`submit_session`
loop: fetch the steering document (steered rounds only), run and spool
the round's trials, drain.

Deterministic network faults for the test suite come from the same
:mod:`repro.store.faults` DSL as the collection faults: ``net-refuse``
fires here (the connection attempt fails before any bytes are sent,
keyed by ``(batch_index, attempt)``), the other ``net-*`` kinds fire in
the server's handler.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.io import atomic_write_bytes_via
from repro.harness.runner import run_one_trial
from repro.instrument.sampling import SamplingPlan
from repro.serve.protocol import (
    ProtocolError,
    RunReport,
    encode_batch,
    report_from_wire,
)
from repro.serve.steering import fetch_steering

#: Filename pattern for spooled reports.
SPOOL_PATTERN = "report-{seed:08d}.json"

#: Subdirectory for permanently rejected reports.
REJECTED_DIR = "rejected"


class UploadError(RuntimeError):
    """The drain loop gave up (retry budget exhausted); the spool is intact."""


@dataclass
class SubmitReport:
    """What one submit session (:func:`submit_session`) or drain did.

    Attributes:
        accepted: Seeds the server newly accepted.
        duplicate: Seeds the server had already seen (idempotent retries).
        rejected: Seeds permanently rejected (moved to ``rejected/``).
        requests: Upload requests attempted, including failed ones.
        retries: Re-sends after a transient failure.
        rounds: Rounds run (0 for a bare :func:`drain_spool`).
        runs: Trials run across all rounds.
        converged: Whether the last steering document fetched said the
            daemon has converged.
        final_epoch: That document's epoch (None when the session
            fetched none, or the server publishes none).
    """

    accepted: List[int] = field(default_factory=list)
    duplicate: List[int] = field(default_factory=list)
    rejected: List[int] = field(default_factory=list)
    requests: int = 0
    retries: int = 0
    rounds: int = 0
    runs: int = 0
    converged: bool = False
    final_epoch: Optional[int] = None


class ReportSpool:
    """A crash-safe on-disk queue of wire reports, one file per seed.

    Writes go through :func:`~repro.core.io.atomic_write_bytes_via`, so a
    crash mid-write never leaves a torn spool entry under a final name.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, seed: int) -> str:
        return os.path.join(self.directory, SPOOL_PATTERN.format(seed=seed))

    def save(self, report: RunReport) -> str:
        """Persist one report; returns its spool path."""
        path = self._path(report.seed)
        # One write: json.dump would call write once per encoder chunk.
        data = (json.dumps(report.to_wire(), sort_keys=True) + "\n").encode()
        atomic_write_bytes_via(path, lambda handle: handle.write(data))
        return path

    def pending_seeds(self) -> List[int]:
        """Seeds currently spooled, ascending."""
        seeds = []
        for name in os.listdir(self.directory):
            if name.startswith("report-") and name.endswith(".json"):
                try:
                    seeds.append(int(name[len("report-"):-len(".json")]))
                except ValueError:
                    continue
        return sorted(seeds)

    def load(self, seed: int) -> RunReport:
        """Read one spooled report back (validated)."""
        with open(self._path(seed), "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        # Bounds here only sanity-check the spool's own bytes; the
        # server re-validates against its table.
        big = 1 << 62
        return report_from_wire(spec, big, big, spec.get("bugs", []))

    def remove(self, seed: int) -> None:
        """Forget an acknowledged report."""
        try:
            os.unlink(self._path(seed))
        except FileNotFoundError:
            pass

    def reject(self, seed: int, reason: str, detail: str) -> None:
        """Move a permanently rejected report into ``rejected/``."""
        rejected_dir = os.path.join(self.directory, REJECTED_DIR)
        os.makedirs(rejected_dir, exist_ok=True)
        name = os.path.basename(self._path(seed))
        source = self._path(seed)
        if os.path.exists(source):
            os.replace(source, os.path.join(rejected_dir, name))
        record = {"reason": reason, "detail": detail}
        data = (json.dumps(record, sort_keys=True) + "\n").encode()
        atomic_write_bytes_via(
            os.path.join(rejected_dir, f"{name}.reason.json"),
            lambda handle: handle.write(data),
        )

    def __len__(self) -> int:
        return len(self.pending_seeds())


def run_and_spool(
    subject,
    program,
    plan,
    spool: ReportSpool,
    n_runs: int,
    seed: int = 0,
    steering_version: Optional[str] = None,
) -> int:
    """Execute seeded trials locally and spool their wire reports.

    Trials go through the exact shared
    :func:`repro.harness.runner.run_one_trial`, so a spooled report for
    seed ``s`` is byte-for-byte the record a local collection session
    would have produced for the same seed.  ``steering_version``
    stamps each report with the steering document the plan came from
    (None — the default — leaves the wire bytes identical to
    pre-steering clients).

    Returns the number of reports spooled.
    """
    entry = program.func(subject.entry)
    for i in range(n_runs):
        trial_seed = seed + i
        failed, site_obs, pred_true, stack, bugs = run_one_trial(
            subject, program, entry, plan, trial_seed
        )
        spool.save(
            RunReport(
                seed=trial_seed,
                failed=failed,
                site_obs=dict(site_obs),
                pred_true=dict(pred_true),
                stack=tuple(stack) if stack is not None else None,
                bugs=tuple(bugs),
                steering=steering_version,
            )
        )
    return n_runs


def _post(url: str, body: bytes, headers: Dict[str, str], timeout: float) -> dict:
    """One POST; returns the parsed JSON response or raises."""
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def drain_spool(
    spool: ReportSpool,
    url: str,
    subject: str,
    table_sha: str,
    batch_size: int = 32,
    timeout: float = 10.0,
    max_attempts: int = 8,
    backoff_base: float = 0.05,
    backoff_cap: float = 2.0,
    jitter: float = 0.25,
    faults=None,
    rng: Optional[random.Random] = None,
    max_batches: Optional[int] = None,
) -> SubmitReport:
    """Upload every spooled report to ``url`` until the spool is empty.

    Entries leave the spool only on server acknowledgement, so killing
    this loop (or the server) at any instant loses nothing: the next
    drain re-sends whatever remains and the server deduplicates by seed.

    Args:
        spool: The local disk queue.
        url: Server base URL (e.g. ``http://127.0.0.1:8080``).
        subject: Subject name for the payload envelope.
        table_sha: Predicate-table signature for the payload envelope.
        batch_size: Reports per request.
        timeout: Per-request socket timeout in seconds.
        max_attempts: Attempts per batch before giving up.
        backoff_base: First-retry delay (doubles per retry).
        backoff_cap: Upper bound on the delay.
        jitter: Random extra fraction of the delay (decorrelates fleets).
        faults: Optional :class:`~repro.store.faults.FaultInjector`;
            ``net-refuse`` faults fire here by ``(batch_index, attempt)``.
        rng: RNG for jitter (defaults to a fresh ``random.Random()``).
        max_batches: Stop after this many batches even if the spool is
            not empty (used by kill-mid-session tests).

    Returns:
        A :class:`SubmitReport` tally.

    Raises:
        UploadError: A batch failed ``max_attempts`` times; the spool
            still holds everything unacknowledged.
    """
    from repro.store.faults import FaultInjector

    injector = faults if faults is not None else FaultInjector()
    rng = rng or random.Random()
    report = SubmitReport()
    endpoint = url.rstrip("/") + "/reports"
    batch_index = -1

    while True:
        pending = spool.pending_seeds()
        if not pending:
            break
        batch_index += 1
        if max_batches is not None and batch_index >= max_batches:
            break
        seeds = pending[:batch_size]
        batch = [spool.load(seed) for seed in seeds]
        body, headers = encode_batch(batch, subject, table_sha, compress=True)

        response = None
        for attempt in range(max_attempts):
            report.requests += 1
            if attempt:
                report.retries += 1
            try:
                if injector.fires("net-refuse", batch_index, attempt):
                    raise ConnectionRefusedError(
                        f"injected net-refuse@{batch_index}#{attempt}"
                    )
                response = _post(endpoint, body, headers, timeout)
                break
            except urllib.error.HTTPError as exc:
                if exc.code in (500, 502, 503, 504):
                    pass  # transient server-side failure: back off and retry
                else:
                    # Permanent protocol rejection: mirror the server's
                    # quarantine locally and move on to the next batch.
                    try:
                        detail = json.loads(exc.read().decode("utf-8"))
                    except Exception:
                        detail = {"error": f"http-{exc.code}", "detail": str(exc)}
                    for seed in seeds:
                        spool.reject(
                            seed,
                            str(detail.get("error", f"http-{exc.code}")),
                            str(detail.get("detail", "")),
                        )
                        report.rejected.append(seed)
                    response = {"accepted": [], "duplicate": []}
                    break
            except (
                urllib.error.URLError,
                http.client.HTTPException,
                ConnectionError,
                socket.timeout,
                OSError,
            ):
                pass  # transient transport failure: back off and retry
            if attempt + 1 >= max_attempts:
                raise UploadError(
                    f"batch of seeds {seeds[0]}..{seeds[-1]} failed "
                    f"{max_attempts} attempts against {endpoint}"
                )
            delay = min(backoff_cap, backoff_base * (2 ** attempt))
            time.sleep(delay * (1.0 + jitter * rng.random()))

        assert response is not None
        acked = set(response.get("accepted", [])) | set(response.get("duplicate", []))
        for seed in seeds:
            if seed in acked:
                spool.remove(seed)
        sent = set(seeds)
        report.accepted.extend(
            seed for seed in response.get("accepted", []) if seed in sent
        )
        report.duplicate.extend(
            seed for seed in response.get("duplicate", []) if seed in sent
        )

    return report


def submit_session(
    subject,
    program,
    plan,
    url: str,
    spool_dir: str,
    n_runs: int,
    seed: int = 0,
    steered: bool = False,
    until_converged: bool = False,
    max_rounds: int = 50,
    batch_size: int = 32,
    timeout: float = 10.0,
    **drain_kwargs,
) -> SubmitReport:
    """Run trials, spool their reports and drain the spool, in rounds.

    Every client mode is a sequence of rounds of one loop.  A steered
    round first fetches ``GET /steering``; every round then runs
    ``n_runs`` trials at the next contiguous seeds
    (:func:`run_and_spool`) and drains the spool (:func:`drain_spool`,
    which also re-sends whatever an earlier session left behind).

    * Unsteered (the default): one round under ``plan``.
    * ``steered``: one round under the served rate table, each report
      stamped with the document's version.  A 404 (steering disabled,
      or an old server) runs ``plan`` with no stamp instead, which is
      byte-identical to an unsteered round.
    * ``until_converged``: steered rounds until the document fetched at
      the start of a round says ``converged``, at most ``max_rounds``.
      That one fetch both decides whether to stop and supplies the
      round's plan, so ``R`` rounds make ``R + 1`` steering requests.

    ``timeout`` bounds every steering fetch and upload request; the
    other ``drain_kwargs`` pass through to :func:`drain_spool`.

    Returns:
        The session's :class:`SubmitReport`: the upload tally summed
        over all rounds, plus ``rounds``, ``runs`` and the last fetched
        document's ``converged`` and ``epoch``.

    Raises:
        ProtocolError: A served document targets a different predicate
            table than ``program`` was instrumented with.
        UploadError: From :func:`drain_spool`; the spool is intact.
    """
    spool = ReportSpool(spool_dir)
    table_sha = program.table.signature()
    tally = SubmitReport()
    document = None
    while True:
        if steered or until_converged:
            document = fetch_steering(url, timeout=timeout)
            tally.converged = document is not None and document.converged
            tally.final_epoch = None if document is None else document.epoch
        if until_converged and (tally.converged or tally.rounds == max_rounds):
            return tally
        round_plan, version = plan, None
        if document is not None:
            if document.table_sha != table_sha:
                raise ProtocolError(
                    "table-mismatch",
                    f"steering document targets table {document.table_sha[:12]}..., "
                    f"client is instrumented against {table_sha[:12]}...",
                )
            round_plan = SamplingPlan.from_steering(document)
            version = document.version
        run_and_spool(
            subject, program, round_plan, spool, n_runs,
            seed=seed + tally.runs, steering_version=version,
        )
        drained = drain_spool(
            spool, url, subject.name, table_sha,
            batch_size=batch_size, timeout=timeout, **drain_kwargs,
        )
        tally.accepted += drained.accepted
        tally.duplicate += drained.duplicate
        tally.rejected += drained.rejected
        tally.requests += drained.requests
        tally.retries += drained.retries
        tally.rounds += 1
        tally.runs += n_runs
        if not until_converged:
            return tally


def fetch_scores(url: str, k: Optional[int] = None, timeout: float = 10.0) -> dict:
    """Fetch the live ``GET /scores`` document from a collection server."""
    target = url.rstrip("/") + "/scores"
    if k is not None:
        target += f"?k={k}"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def watched_from_scores(document: dict, k: int = 5) -> Dict[int, float]:
    """Turn a ``/scores`` document into an ``OnlineMonitor`` watch map.

    Returns the top-``k`` predicate indices mapped to the ``score``
    field: the value of whichever measure the ``/scores`` query asked for.
    """
    return {
        int(entry["index"]): float(entry["score"])
        for entry in document.get("predicates", [])[:k]
    }
