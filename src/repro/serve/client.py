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
mirroring the server-side quarantine.

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
from repro.serve.protocol import RunReport, encode_batch, report_from_wire

#: Filename pattern for spooled reports.
SPOOL_PATTERN = "report-{seed:08d}.json"

#: Subdirectory for permanently rejected reports.
REJECTED_DIR = "rejected"


class UploadError(RuntimeError):
    """The drain loop gave up (retry budget exhausted); the spool is intact."""


@dataclass
class SubmitReport:
    """What one drain session did.

    Attributes:
        accepted: Seeds the server newly accepted.
        duplicate: Seeds the server had already seen (idempotent retries).
        rejected: Seeds permanently rejected (moved to ``rejected/``).
        requests: HTTP requests attempted, including failed ones.
        retries: Re-sends after a transient failure.
    """

    accepted: List[int] = field(default_factory=list)
    duplicate: List[int] = field(default_factory=list)
    rejected: List[int] = field(default_factory=list)
    requests: int = 0
    retries: int = 0


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


def collect_and_submit(
    subject,
    program,
    plan,
    url: str,
    spool_dir: str,
    n_runs: int,
    seed: int = 0,
    batch_size: int = 32,
    **drain_kwargs,
) -> SubmitReport:
    """Run trials, spool them, and drain the spool to a server.

    The composition of :func:`run_and_spool` and :func:`drain_spool`
    most callers want; see those for the semantics.
    """
    spool = ReportSpool(spool_dir)
    run_and_spool(subject, program, plan, spool, n_runs, seed=seed)
    return drain_spool(
        spool,
        url,
        subject.name,
        program.table.signature(),
        batch_size=batch_size,
        **drain_kwargs,
    )


def steered_collect_and_submit(
    subject,
    program,
    url: str,
    spool_dir: str,
    n_runs: int,
    seed: int = 0,
    batch_size: int = 32,
    fallback_plan=None,
    timeout: float = 10.0,
    **drain_kwargs,
) -> SubmitReport:
    """One steered round: fetch ``/steering``, run under its rates, drain.

    When the server publishes a steering document, its per-site rate
    table becomes the trial plan and every spooled report is stamped
    with the document's version.  When the endpoint 404s (an
    old/unsteered server), ``fallback_plan`` runs instead with no stamp
    — byte-identical to the pre-steering client (old-server compat).

    Raises:
        ProtocolError: The served document targets a different
            predicate table than ``program`` was instrumented with.
    """
    from repro.instrument.sampling import SamplingPlan
    from repro.serve.protocol import ProtocolError
    from repro.serve.steering import fetch_steering

    document = fetch_steering(url, timeout=timeout)
    if document is None:
        if fallback_plan is None:
            raise ValueError(
                "server does not publish steering and no fallback_plan given"
            )
        plan, version = fallback_plan, None
    else:
        table_sha = program.table.signature()
        if document.table_sha != table_sha:
            raise ProtocolError(
                "table-mismatch",
                f"steering document targets table {document.table_sha[:12]}..., "
                f"client is instrumented against {table_sha[:12]}...",
            )
        plan, version = SamplingPlan.from_steering(document), document.version
    spool = ReportSpool(spool_dir)
    run_and_spool(
        subject, program, plan, spool, n_runs, seed=seed, steering_version=version
    )
    return drain_spool(
        spool,
        url,
        subject.name,
        program.table.signature(),
        batch_size=batch_size,
        timeout=timeout,
        **drain_kwargs,
    )


@dataclass
class ConvergenceReport:
    """What a ``submit --until-converged`` session did.

    Attributes:
        converged: Whether the daemon flipped its flag before the round
            budget ran out.
        rounds: Steered rounds executed.
        runs: Trials executed across all rounds.
        final_epoch: The last steering epoch observed (None when the
            server never served a document).
    """

    converged: bool
    rounds: int
    runs: int
    final_epoch: Optional[int] = None


def submit_until_converged(
    subject,
    program,
    url: str,
    spool_dir: str,
    runs_per_round: int,
    seed: int = 0,
    max_rounds: int = 50,
    batch_size: int = 32,
    fallback_plan=None,
    timeout: float = 10.0,
    **drain_kwargs,
) -> ConvergenceReport:
    """Steered rounds until the daemon reports convergence.

    Each round fetches the current steering document, runs
    ``runs_per_round`` trials under its rates (seeds stay contiguous
    across rounds), drains the spool, and re-checks the ``converged``
    flag.  Stops when the daemon converges, or after ``max_rounds``.
    """
    from repro.serve.steering import fetch_steering

    total = 0
    document = None
    for round_index in range(max_rounds):
        document = fetch_steering(url, timeout=timeout)
        if document is not None and document.converged:
            return ConvergenceReport(
                True, round_index, total, final_epoch=document.epoch
            )
        steered_collect_and_submit(
            subject,
            program,
            url,
            spool_dir,
            runs_per_round,
            seed=seed + total,
            batch_size=batch_size,
            fallback_plan=fallback_plan,
            timeout=timeout,
            **drain_kwargs,
        )
        total += runs_per_round
    document = fetch_steering(url, timeout=timeout)
    converged = document is not None and document.converged
    return ConvergenceReport(
        converged,
        max_rounds,
        total,
        final_epoch=document.epoch if document is not None else None,
    )


def fetch_scores(url: str, k: Optional[int] = None, timeout: float = 10.0) -> dict:
    """Fetch the live ``GET /scores`` document from a collection server."""
    target = url.rstrip("/") + "/scores"
    if k is not None:
        target += f"?k={k}"
    with urllib.request.urlopen(target, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def watched_from_scores(document: dict, k: int = 5) -> Dict[int, float]:
    """Turn a ``/scores`` document into an ``OnlineMonitor`` watch map.

    Returns the top-``k`` predicate indices mapped to the selected
    measure's value: the ``score`` field carries whichever measure the
    ``/scores`` query asked for, with the legacy ``importance`` field as
    the fallback for documents from pre-measure-registry servers.
    """
    return {
        int(entry["index"]): float(entry.get("score", entry.get("importance", 0.0)))
        for entry in document.get("predicates", [])[:k]
    }
