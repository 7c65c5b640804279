"""The collection daemon: ingestion, durability, and live scores.

Two layers, deliberately separated so the protocol logic is testable
without sockets:

* :class:`CollectionService` -- the HTTP-free core.  It validates
  payloads, acknowledges reports only after they are durable in a
  write-ahead ack log (``ingest_wal.jsonl`` in the store directory),
  batches them into contiguous seed ranges, and commits batches through
  :meth:`ShardStore.append_shard <repro.store.shards.ShardStore.append_shard>`
  -- the same crash-safe pending-file/manifest protocol the local
  collector uses, so a ``SIGKILL`` at any instant leaves the store
  recoverable *and* every acknowledged report replayable.
* :class:`FeedbackServer` -- a stdlib ``ThreadingHTTPServer`` wrapper
  exposing the service as ``POST /reports``, ``POST /flush``,
  ``GET /scores``, ``GET /steering``, ``GET /healthz`` and
  ``GET /metrics``, with
  deterministic server-side network-fault injection
  (``COMMAND_FAULTS["serve"]`` of :mod:`repro.store.faults`) for the test suite.

Durability story (why acks cannot lose reports): a report is
acknowledged only after its wire record is appended and fsynced to the
WAL.  Commits remove reports from the WAL (it is compacted to the still
pending set after every batch), and a restarting service replays
WAL records whose seeds are not already inside committed manifest
ranges.  So at every instant each acknowledged report is either in a
committed shard or in the WAL -- the client may safely delete its spool
copy on ack, and a kill/restart cycle converges to the exact population
a fault-free session would have committed.

Live scores: the service maintains the store's
:class:`~repro.core.scores.SufficientStats` incrementally (seeded
from the manifest at startup, one integer add per committed batch) and
scores them through the same
:meth:`AnalysisEngine.score_stats <repro.core.engine.AnalysisEngine.score_stats>`
path as ``repro-cbi analyze --stats-only``, so ``GET /scores`` is
bit-identical to running ``analyze`` on the store directory at the same
moment.

Steering (closed-loop adaptive collection): every ``refit_runs``
committed runs the service refits a per-site rate table and predicate
watchlist from the same live statistics and publishes them as a
versioned ``repro-steering/v1`` document behind ``GET /steering``
(:mod:`repro.serve.steering`).  The document is persisted store-locally
(``steering.json``) and each committed batch's steering provenance is
appended to ``steering_log.jsonl``; neither file is ever replicated by
federation.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from repro.core.engine import AnalysisEngine
from repro.core.io import atomic_write_bytes_via
from repro.core.importance import importance_scores
from repro.core.ranking import rank
from repro.core.reports import ReportSet
from repro.core.scores import SufficientStats
from repro.core.truth import GroundTruth
from repro.obs import span as _obs_span
from repro.obs.metrics import MetricsRegistry
from repro.core.stopping import StoppingPolicy
from repro.serve.batcher import BatcherFull, ReportBatcher
from repro.serve.protocol import (
    ProtocolError,
    RunReport,
    decode_body,
    report_from_wire,
    validate_payload,
)
from repro.serve.steering import (
    STEERING_LOG_NAME,
    SteeringDocument,
    fit_steering,
    save_steering,
)
from repro.store.faults import FaultInjector

#: Write-ahead ack log filename, inside the store directory.
WAL_NAME = "ingest_wal.jsonl"

#: How long a ``net-slow`` fault stalls the handler (seconds).  Long
#: enough to trip a short client timeout, short enough for tests.
SLOW_SECONDS = 1.5


class CollectionService:
    """HTTP-free ingestion core over one subject's shard store.

    Args:
        store: An open :class:`~repro.store.ShardStore` whose predicate
            table is available (freshly created, or opened over at least
            one shard).
        subject: The :class:`~repro.subjects.base.Subject` being
            collected, for bug-id validation and ground-truth rebuild.
        batch_runs: Contiguous seeds per committed shard.
        max_buffered: Bound on pending (acknowledged, uncommitted)
            reports; past it, uploads get 503 until a batch commits.
        steering: Serve ``GET /steering``?  When False the endpoint
            404s and clients fall back to their local plans (the
            pre-steering behaviour, bit for bit).
        refit_runs: Refit the steering document every this many newly
            committed runs.
        watchlist_k: Watchlist length in the steering document.
        measure: Suspiciousness measure ordering the watchlist.
        stopping: Early-stopping thresholds for the ``converged`` flag.

    Thread safety: every public method takes the service lock, so the
    threaded HTTP front end can call in from concurrent handlers.
    """

    def __init__(
        self,
        store,
        subject,
        batch_runs: int = 200,
        max_buffered: int = 100_000,
        steering: bool = True,
        refit_runs: int = 100,
        watchlist_k: int = 10,
        measure: Optional[str] = None,
        stopping: Optional[StoppingPolicy] = None,
    ) -> None:
        from repro.core import measures as _measures

        self.store = store
        self.subject = subject
        self.table = store.table()
        self.lock = threading.RLock()
        self.metrics = MetricsRegistry()
        self.engine = AnalysisEngine()
        self.started_at = time.time()
        self._upload_counter = 0
        self.steering_enabled = steering
        self.refit_runs = refit_runs
        self.watchlist_k = watchlist_k
        self.steering_measure = measure or _measures.DEFAULT_MEASURE
        self.stopping = stopping or StoppingPolicy()
        self.steering_doc: Optional[SteeringDocument] = None
        self._refit_at_runs = -1

        store.recover()
        committed = tuple((e.seed_start, e.seed_range.stop) for e in store.manifest.shards)
        self.batcher = ReportBatcher(
            batch_runs=batch_runs, max_buffered=max_buffered, committed=committed
        )
        if store.n_shards:
            self.live_stats = store.sufficient_stats()
        else:
            self.live_stats = SufficientStats.zeros(self.table.n_predicates)
        # Per-site observation totals over the *committed* population,
        # the input to the steering refit's adaptive-rate fit.  Seeded
        # from the recovered shards before WAL replay (replay commits
        # batches, which increment these).
        self._site_totals = store.site_totals()
        # Those were the daemon's last shard reads: from here on it
        # scores and refits from the live statistics.
        store.forget_headers()
        self._replay_wal()
        if self.steering_enabled:
            self._refit_steering()

    # ------------------------------------------------------------------
    # Write-ahead ack log
    # ------------------------------------------------------------------
    @property
    def wal_path(self) -> str:
        """Path of the ingest write-ahead log."""
        return os.path.join(self.store.directory, WAL_NAME)

    def _wal_append(self, reports: List[RunReport]) -> None:
        """Make ``reports`` durable before they are acknowledged."""
        # An append, not a whole-file replace: rewriting the log per upload
        # would cost its whole length, and a torn final line is a report
        # never acknowledged, which _replay_wal drops.
        with open(self.wal_path, "a", encoding="utf-8") as handle:
            for report in reports:
                handle.write(report.to_line())
            handle.flush()
            os.fsync(handle.fileno())

    def _wal_compact(self) -> None:
        """Rewrite the WAL to exactly the still-pending reports.

        Run after a commit: the manifest save returns only once durable,
        so the reports this drops are already in a committed shard.
        """
        data = "".join(
            report.to_line() for report in self.batcher.pending_reports()
        ).encode()
        atomic_write_bytes_via(self.wal_path, lambda handle: handle.write(data))

    def _replay_wal(self) -> None:
        """Re-queue acknowledged-but-uncommitted reports after a restart.

        Tolerates a torn final line (a crash mid-append: that report was
        never acknowledged, so dropping it is correct) and skips records
        whose seeds already sit inside committed manifest ranges.
        """
        if not os.path.exists(self.wal_path):
            return
        replayed = 0
        with open(self.wal_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                spec = json.loads(line)
                report = report_from_wire(
                    spec,
                    self.table.n_sites,
                    self.table.n_predicates,
                    list(self.subject.bug_ids),
                )
            except (json.JSONDecodeError, ProtocolError) as exc:
                if index == len(lines) - 1:
                    self.store.log_event("serve-wal-torn-tail", detail=str(exc))
                    continue
                self.store.log_event(
                    "serve-wal-bad-record", line=index, detail=str(exc)
                )
                continue
            if self.batcher.offer(report) == "queued":
                replayed += 1
        if replayed:
            self.store.log_event("serve-wal-replay", reports=replayed)
            self.metrics.inc("serve.wal_replayed", replayed)
        self._wal_compact()
        self._commit_ready()

    # ------------------------------------------------------------------
    # Steering: the daemon refits rates + watchlist from committed runs
    # ------------------------------------------------------------------
    def _refit_steering(self) -> None:
        """Refit the steering document from the committed snapshot.

        Pure in the snapshot: the document is a function of the manifest
        (digested into ``manifest_sha``) plus the fit knobs, so a
        restarted daemon over the same store re-serves the same
        document (kill -9 acceptance contract).
        """
        with self.metrics.timer("serve.steering_refit"):
            document = fit_steering(
                self.store,
                self.store.manifest.subject,
                self._site_totals,
                watchlist_k=self.watchlist_k,
                measure=self.steering_measure,
                policy=self.stopping,
                stats=self.live_stats,
            )
        self.steering_doc = document
        self._refit_at_runs = self.store.n_runs
        save_steering(self.store.directory, document)
        self.metrics.inc("serve.steering_refits")
        self.metrics.gauge("serve.steering_epoch", float(document.epoch))
        self.metrics.gauge("serve.steering_converged", float(document.converged))
        self.store.log_event(
            "serve-steer",
            epoch=document.epoch,
            version=document.version,
            converged=document.converged,
            watchlist=len(document.watchlist),
        )

    def _maybe_refit_steering(self) -> None:
        if not self.steering_enabled:
            return
        if self.store.n_runs - self._refit_at_runs >= self.refit_runs:
            self._refit_steering()

    def _log_batch_steering(self, filename: str, seed_start: int, records) -> None:
        """Append one batch's steering provenance to the store-local log.

        Skipped entirely when steering is disabled: an unsteered daemon's
        store directory stays byte-for-byte the pre-steering layout.
        """
        if not self.steering_enabled:
            return
        versions = sorted({r.steering for r in records if r.steering is not None})
        path = os.path.join(self.store.directory, STEERING_LOG_NAME)
        record = {
            "filename": filename,
            "seed_start": seed_start,
            "n_runs": len(records),
            "versions": versions,
        }
        # An append, not a whole-file replace (see _wal_append): the
        # log is provenance only, read by nothing that scores or commits.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def steering_payload(self) -> Optional[dict]:
        """``GET /steering`` document, or None when steering is disabled."""
        with self.lock:
            if not self.steering_enabled:
                return None
            if self.steering_doc is None:
                self._refit_steering()
            self.metrics.inc("serve.steering_requests")
            return self.steering_doc.to_wire()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_body(
        self, body: bytes, content_encoding: Optional[str] = None
    ) -> Tuple[int, dict]:
        """Handle one ``POST /reports`` body.

        Returns:
            ``(http_status, response_document)``.  200 responses carry
            ``accepted`` and ``duplicate`` seed lists; 400 responses the
            protocol ``error`` code and ``detail`` (the payload is
            quarantined); 503 means the buffer is full -- retry later.
        """
        with self.lock:
            self.metrics.inc("serve.requests")
            self.metrics.inc("serve.bytes_received", len(body))
            with self.metrics.timer("serve.ingest"):
                with _obs_span("serve.ingest", bytes=len(body)):
                    return self._ingest_locked(body, content_encoding)

    def _ingest_locked(self, body: bytes, content_encoding: Optional[str]) -> Tuple[int, dict]:
        try:
            payload = decode_body(body, content_encoding)
            reports = validate_payload(
                payload,
                subject=self.store.manifest.subject,
                table_sha=self.store.manifest.table_sha,
                n_sites=self.table.n_sites,
                n_predicates=self.table.n_predicates,
                bug_ids=list(self.subject.bug_ids),
            )
        except ProtocolError as exc:
            self.metrics.inc("serve.reports_rejected")
            self._quarantine_upload(body, exc)
            return 400, {"error": exc.reason, "detail": exc.detail}

        accepted: List[RunReport] = []
        duplicate: List[int] = []
        try:
            for report in reports:
                if self.batcher.offer(report) == "queued":
                    accepted.append(report)
                else:
                    duplicate.append(report.seed)
        except BatcherFull as exc:
            # Roll back this request's partial acceptance: nothing was
            # WAL-logged yet, so un-queue what we just offered and let
            # the client retry the whole batch after a commit drains us.
            for report in accepted:
                self.batcher.discard(report.seed)
            self.metrics.inc("serve.requests_throttled")
            return 503, {"error": "buffer-full", "detail": str(exc)}

        if accepted:
            # Durability point: fsync the ack log *before* acknowledging,
            # so an acked report survives any kill until its shard commits.
            self._wal_append(accepted)
        self.metrics.inc("serve.reports_queued", len(accepted))
        self.metrics.inc("serve.reports_duplicate", len(duplicate))
        self.metrics.gauge("serve.queue_depth", float(self.batcher.queue_depth))
        response = {
            "accepted": [r.seed for r in accepted],
            "duplicate": duplicate,
        }
        self._commit_ready()
        return 200, response

    def _quarantine_upload(self, body: bytes, error: ProtocolError) -> None:
        """Park a rejected payload in the store's quarantine with a reason."""
        self._upload_counter += 1
        name = f"upload-{os.getpid()}-{self._upload_counter:06d}.json"
        path = os.path.join(self.store.directory, name)
        atomic_write_bytes_via(path, lambda handle: handle.write(body))
        self.store.quarantine_file(name, f"upload-{error.reason}", error.detail)

    # ------------------------------------------------------------------
    # Batch commits
    # ------------------------------------------------------------------
    def _commit_ready(self) -> None:
        for seed_start, records in self.batcher.take_ready():
            self._commit_batch(seed_start, records)

    def _commit_batch(self, seed_start: int, records: List[RunReport]) -> None:
        reports = ReportSet.from_runs(self.table, records)
        truth = GroundTruth.from_runs(self.subject.bug_ids, records)
        with self.metrics.timer("serve.commit_batch"):
            with _obs_span("serve.commit_batch", seed_start=seed_start, runs=len(records)):
                shard_path = self.store.append_shard(reports, truth, seed_start=seed_start)
        self.live_stats.add(SufficientStats.from_reports(reports))
        for record in records:
            for site, count in record.site_obs.items():
                self._site_totals[site] += count
        self.batcher.mark_committed(seed_start, len(records))
        self._wal_compact()
        self._log_batch_steering(os.path.basename(shard_path), seed_start, records)
        self.metrics.inc("serve.batches_committed")
        self.metrics.inc("serve.reports_committed", len(records))
        self.metrics.gauge("serve.queue_depth", float(self.batcher.queue_depth))
        self.store.log_event(
            "serve-commit",
            seed_start=seed_start,
            n_runs=reports.n_runs,
            num_failing=reports.num_failing,
        )
        self._maybe_refit_steering()

    def flush(self) -> int:
        """Commit every pending report (partial tail batches included).

        Returns the number of reports committed.
        """
        with self.lock:
            committed = 0
            for seed_start, records in self.batcher.take_all():
                self._commit_batch(seed_start, records)
                committed += len(records)
            return committed

    # ------------------------------------------------------------------
    # Read endpoints
    # ------------------------------------------------------------------
    def scores_payload(
        self, k: Optional[int] = None, measure: Optional[str] = None
    ) -> dict:
        """Top-``k`` predicates by a registered measure over committed runs.

        ``measure`` defaults to the paper's Importance
        (:data:`repro.core.measures.DEFAULT_MEASURE`).  Computed from the
        live statistics through the exact ``analyze --stats-only`` path
        (:meth:`AnalysisEngine.score_stats <repro.core.engine.AnalysisEngine.score_stats>`
        with the same measure, ranked by :func:`~repro.core.ranking.rank`),
        so counts, floats and order agree bit for bit with the CLI run
        against the store directory at this moment.  ``measure`` echoes
        the registry name the lookup resolved to.  Each predicate entry
        carries the selected measure's value as ``score``;
        ``importance`` stays populated for schema compatibility with
        older clients.

        Raises:
            repro.core.measures.UnknownMeasureError: For unknown names
                (the HTTP layer maps it to a 400).
            ValueError: For a negative ``k``.
        """
        from repro.core import measures as _measures

        # Validate (and canonicalise) before taking the lock.
        measure_name = _measures.get(measure or _measures.DEFAULT_MEASURE).name
        if k is not None and k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        with self.lock:
            stats = self.live_stats
            n_runs = stats.num_failing + stats.num_successful
            document = {
                "schema": "repro-scores/v1",
                "subject": self.store.manifest.subject,
                "table_sha": self.store.manifest.table_sha,
                "n_runs": int(n_runs),
                "num_failing": int(stats.num_failing),
                "measure": measure_name,
                "predicates": [],
            }
            if n_runs == 0:
                return document
            scoring = self.engine.score_stats(stats, measure=measure_name)
            importance = importance_scores(scoring.scores).importance
            ranking = rank(
                self.table,
                scoring.scores,
                scoring.measure_values,
                candidates=scoring.pruning.kept,
                top=k,
            )
            document["predicates"] = [
                {
                    "index": entry.predicate.index,
                    "name": entry.predicate.name,
                    "score": entry.sort_key,
                    "importance": float(importance[entry.predicate.index]),
                    "increase": entry.row.increase,
                    "failure": entry.row.failure,
                    "context": entry.row.context,
                    "F": entry.row.F,
                    "S": entry.row.S,
                    "F_obs": entry.row.F_obs,
                    "S_obs": entry.row.S_obs,
                }
                for entry in ranking
            ]
            return document

    def manifest_payload(self) -> dict:
        """``GET /manifest`` document (``repro-federate/v1``).

        The daemon's committed membership, exactly as a federation merge
        node needs it for manifest-diff sync: pending batches and WAL
        tail are *not* included -- federation replicates only what the
        commit protocol has made durable.
        """
        from repro.federate.sources import MANIFEST_SCHEMA

        with self.lock:
            self.metrics.inc("serve.manifest_requests")
            return {
                "schema": MANIFEST_SCHEMA,
                "manifest": self.store.manifest.to_json(),
            }

    def shard_file(self, filename: str):
        """The on-disk path and entry of one *committed* shard.

        Returns ``(path, entry)`` when ``filename`` is in the manifest,
        else ``None``.  Lookup goes through the manifest rather than the
        filesystem, so the endpoint can never serve pending files,
        quarantined shards or anything outside the store (path
        traversal resolves to no manifest entry).
        """
        with self.lock:
            entry = self.store.manifest.find(filename)
            if entry is None:
                return None
            return os.path.join(self.store.directory, filename), entry

    def health_payload(self) -> dict:
        """``GET /healthz`` document."""
        with self.lock:
            document = {
                "status": "ok",
                "subject": self.store.manifest.subject,
                "n_shards": self.store.n_shards,
                "n_runs": self.store.n_runs,
                "queue_depth": self.batcher.queue_depth,
                "uptime_seconds": time.time() - self.started_at,
                "steering": self.steering_enabled,
            }
            if self.steering_enabled and self.steering_doc is not None:
                document["steering_epoch"] = self.steering_doc.epoch
                document["steering_version"] = self.steering_doc.version
                document["converged"] = self.steering_doc.converged
            return document

    def metrics_payload(self) -> dict:
        """``GET /metrics`` document (``repro-metrics/v1``)."""
        with self.lock:
            self.metrics.gauge("serve.queue_depth", float(self.batcher.queue_depth))
            return self.metrics.to_document()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> int:
        """Finish the session; with ``drain`` commit everything pending.

        Returns the number of reports committed by the final drain.
        """
        with self.lock:
            committed = self.flush() if drain else 0
            self.store.log_event(
                "serve-close",
                drained=committed,
                pending=self.batcher.queue_depth,
                n_runs=self.store.n_runs,
            )
            return committed


class _IngestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the :class:`CollectionService`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging goes through the store's event log instead

    def _send_json(self, status: int, document: dict) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler API)
        service: CollectionService = self.server.service  # type: ignore[attr-defined]
        if self.path == "/flush":
            committed = service.flush()
            self._send_json(200, {"committed": committed})
            return
        if self.path != "/reports":
            self._send_json(404, {"error": "not-found", "detail": self.path})
            return

        ordinal = self.server.next_post_ordinal()  # type: ignore[attr-defined]
        injector: FaultInjector = self.server.injector  # type: ignore[attr-defined]
        if injector.fires("net-slow", ordinal, 0):
            time.sleep(SLOW_SECONDS)
        if injector.fires("net-disconnect", ordinal, 0):
            # Abruptly drop the TCP connection before reading the body:
            # the client sees a reset mid-request and must retry.
            self.close_connection = True
            self.connection.close()
            return

        length = int(self.headers.get("Content-Length", "0"))
        body = self.rfile.read(length) if length else b""

        if injector.fires("net-500", ordinal, 0):
            self._send_json(500, {"error": "injected", "detail": f"net-500@{ordinal}"})
            return

        status, document = service.ingest_body(
            body, self.headers.get("Content-Encoding")
        )
        self._send_json(status, document)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        service: CollectionService = self.server.service  # type: ignore[attr-defined]
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send_json(200, service.health_payload())
            return
        if path == "/metrics":
            self._send_json(200, service.metrics_payload())
            return
        if path == "/scores":
            from repro.core.measures import UnknownMeasureError

            k: Optional[int] = None
            measure: Optional[str] = None
            for part in query.split("&"):
                if part.startswith("k="):
                    try:
                        k = int(part[2:])
                        if k < 0:
                            raise ValueError(part)
                    except ValueError:
                        self._send_json(400, {"error": "bad-query", "detail": part})
                        return
                elif part.startswith("measure="):
                    measure = part[len("measure="):]
            try:
                self._send_json(200, service.scores_payload(k=k, measure=measure))
            except UnknownMeasureError as exc:
                self._send_json(400, {"error": "unknown-measure", "detail": str(exc)})
            return
        if path == "/steering":
            document = service.steering_payload()
            if document is None:
                self._send_json(
                    404, {"error": "not-found", "detail": "steering disabled"}
                )
            else:
                self._send_json(200, document)
            return
        if path == "/manifest":
            self._send_json(200, service.manifest_payload())
            return
        if path.startswith("/shards/"):
            self._send_shard(service, path[len("/shards/"):])
            return
        self._send_json(404, {"error": "not-found", "detail": path})

    def _send_shard(self, service: CollectionService, filename: str) -> None:
        """Stream one committed shard's bytes (``GET /shards/<name>``)."""
        located = service.shard_file(filename)
        if located is None:
            self._send_json(
                404, {"error": "not-found", "detail": f"no committed shard {filename}"}
            )
            return
        path, entry = located
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            self._send_json(
                410, {"error": "unreadable", "detail": f"{filename}: {exc}"}
            )
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(data)))
        self.send_header("X-Repro-Sha256", entry.sha256)
        self.end_headers()
        self.wfile.write(data)
        service.metrics.inc("serve.shards_served")
        service.metrics.inc("serve.shard_bytes_served", len(data))


class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True


class FeedbackServer:
    """The networked front end: a threaded HTTP server over one service.

    Args:
        service: The :class:`CollectionService` to expose.
        host: Bind address.
        port: Bind port; 0 picks a free one (see :attr:`port`).
        faults: Optional :class:`~repro.store.faults.FaultInjector`
            carrying ``net-*`` faults, fired by POST ordinal.
    """

    def __init__(
        self,
        service: CollectionService,
        host: str = "127.0.0.1",
        port: int = 0,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.service = service
        self._http = _ThreadingServer((host, port), _IngestHandler)
        self._http.service = service  # type: ignore[attr-defined]
        self._http.injector = faults or FaultInjector()  # type: ignore[attr-defined]
        # The counter must not reach back to ``self``: a cycle through
        # ``self._http`` would keep a closed server, its service and its
        # store alive until the next full collection.
        ordinals = itertools.count()
        ordinal_lock = threading.Lock()

        def next_post_ordinal() -> int:
            with ordinal_lock:
                return next(ordinals)

        self._http.next_post_ordinal = next_post_ordinal  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "FeedbackServer":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        self.service.store.log_event(
            "serve-start", host=self.host, port=self.port
        )
        return self

    def close(self, drain: bool = True) -> int:
        """Graceful shutdown: stop accepting, then drain and commit.

        Returns the number of reports the final drain committed.
        """
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        return self.service.close(drain=drain)
