"""CollectionService + FeedbackServer behaviour: ingest, commit, WAL, HTTP."""

from __future__ import annotations

import hashlib
import json
import os
import socket
import urllib.error
import urllib.request

import pytest

from repro.core.engine import AnalysisEngine
from repro.core.importance import importance_scores
from repro.serve import (
    ReportSpool,
    RunReport,
    encode_batch,
    run_and_spool,
)
from repro.serve.protocol import MAX_BODY_BYTES
from repro.serve.server import WAL_NAME
from repro.store.shards import QUARANTINE_DIR

from .conftest import make_service


def _synthetic(seed: int, failed: bool = False) -> RunReport:
    return RunReport(
        seed=seed,
        failed=failed,
        site_obs={0: 1},
        pred_true={},
        stack=("boom",) if failed else None,
        bugs=(),
    )


def _raw_post(server, content_length: str) -> tuple:
    """POST /reports headers with a given ``Content-Length`` and no body
    over a raw socket; return ``(status, document)`` once the server
    closes the connection."""
    request = (
        "POST /reports HTTP/1.1\r\n"
        f"Host: {server.host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _post_reports(service, reports, store):
    body, headers = encode_batch(
        reports, store.manifest.subject, store.manifest.table_sha
    )
    return service.ingest_body(body, headers.get("Content-Encoding"))


class TestIngestCommit:
    def test_full_batch_commits_a_shard(self, ccrypt_service):
        store, service = ccrypt_service  # batch_runs=20
        status, doc = _post_reports(
            service, [_synthetic(s) for s in range(20)], store
        )
        assert status == 200
        assert doc["accepted"] == list(range(20))
        assert doc["duplicate"] == []
        assert store.n_shards == 1
        assert store.n_runs == 20
        assert service.batcher.queue_depth == 0

    def test_partial_batch_stays_queued(self, ccrypt_service):
        store, service = ccrypt_service
        status, _ = _post_reports(
            service, [_synthetic(s) for s in range(5)], store
        )
        assert status == 200
        assert store.n_shards == 0
        assert service.batcher.queue_depth == 5

    def test_duplicates_acknowledged(self, ccrypt_service):
        store, service = ccrypt_service
        _post_reports(service, [_synthetic(s) for s in range(20)], store)
        status, doc = _post_reports(
            service, [_synthetic(s) for s in range(18, 22)], store
        )
        assert status == 200
        assert doc["duplicate"] == [18, 19]
        assert doc["accepted"] == [20, 21]

    def test_flush_commits_partial_tail(self, ccrypt_service):
        store, service = ccrypt_service
        _post_reports(service, [_synthetic(s) for s in range(7)], store)
        assert service.flush() == 7
        assert store.n_runs == 7
        assert service.batcher.queue_depth == 0

    def test_close_drains(self, ccrypt_service):
        store, service = ccrypt_service
        _post_reports(service, [_synthetic(s) for s in range(3)], store)
        assert service.close(drain=True) == 3
        assert store.n_runs == 3


class TestRejection:
    def test_bad_payload_quarantined(self, ccrypt_service):
        store, service = ccrypt_service
        body, headers = encode_batch(
            [_synthetic(0)], store.manifest.subject, "0" * 64
        )
        status, doc = service.ingest_body(body, headers.get("Content-Encoding"))
        assert status == 400
        assert doc["error"] == "table-mismatch"
        qdir = os.path.join(store.directory, QUARANTINE_DIR)
        uploads = [n for n in os.listdir(qdir) if n.startswith("upload-")]
        payloads = [n for n in uploads if not n.endswith(".reason.json")]
        reasons = [n for n in uploads if n.endswith(".reason.json")]
        assert len(payloads) == 1 and len(reasons) == 1
        with open(os.path.join(qdir, reasons[0]), encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["reason"] == "upload-table-mismatch"

    def test_seed_beyond_int64_is_refused_before_it_is_queued(self, ccrypt_service):
        """Regression: a full batch at seed 2**63 was acked and queued,
        then its commit raised ``OverflowError`` on every later request,
        at shutdown and on each WAL replay.  It is now a 400, and the
        next batch commits."""
        store, service = ccrypt_service  # batch_runs=20
        status, doc = _post_reports(
            service, [_synthetic(2**63 + s) for s in range(20)], store
        )
        assert status == 400
        assert doc["error"] == "bad-report"
        assert service.batcher.queue_depth == 0
        status, doc = _post_reports(
            service, [_synthetic(s) for s in range(20)], store
        )
        assert status == 200
        assert store.n_runs == 20

    def test_garbage_body_rejected(self, ccrypt_service):
        store, service = ccrypt_service
        status, doc = service.ingest_body(b"{nope", None)
        assert status == 400
        assert doc["error"] == "bad-json"
        assert store.n_runs == 0

    def test_buffer_full_returns_503_and_rolls_back(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        store, service = make_service(
            tmp_path / "store",
            ccrypt_subject,
            ccrypt_program,
            full_plan,
            batch_runs=100,
            max_buffered=10,
        )
        status, _ = _post_reports(
            service, [_synthetic(s) for s in range(10)], store
        )
        assert status == 200
        status, doc = _post_reports(
            service, [_synthetic(s) for s in range(10, 15)], store
        )
        assert status == 503
        assert doc["error"] == "buffer-full"
        # The partially offered batch was rolled back whole.
        assert service.batcher.queue_depth == 10
        # And nothing of it leaked into the WAL.
        with open(service.wal_path, encoding="utf-8") as handle:
            seeds = [json.loads(line)["seed"] for line in handle if line.strip()]
        assert seeds == list(range(10))


class TestMetrics:
    def test_committed_counters_match_store(self, ccrypt_service):
        store, service = ccrypt_service
        _post_reports(service, [_synthetic(s) for s in range(47)], store)
        doc = service.metrics_payload()
        counters = doc["counters"]
        assert counters["serve.reports_committed"] == store.n_runs == 40
        assert counters["serve.batches_committed"] == store.n_shards == 2
        assert counters["serve.reports_queued"] == 47
        assert doc["gauges"]["serve.queue_depth"] == 7.0
        service.flush()
        counters = service.metrics_payload()["counters"]
        assert counters["serve.reports_committed"] == store.n_runs == 47


class TestScores:
    def test_empty_store_scores(self, ccrypt_service):
        store, service = ccrypt_service
        doc = service.scores_payload()
        assert doc["schema"] == "repro-scores/v1"
        assert doc["n_runs"] == 0
        assert doc["predicates"] == []

    def test_scores_bitwise_match_analyze(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        store, service = make_service(
            tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan
        )
        spool = ReportSpool(str(tmp_path / "spool"))
        run_and_spool(ccrypt_subject, ccrypt_program, full_plan, spool, 60)
        reports = [spool.load(seed) for seed in spool.pending_seeds()]
        _post_reports(service, reports, store)
        assert store.n_runs == 60

        live = service.scores_payload(k=10)
        engine = AnalysisEngine()
        scoring = engine.score_stats(store.sufficient_stats())
        imp = importance_scores(scoring.scores)
        order = sorted(
            scoring.pruning.kept_indices.tolist(),
            key=lambda i: imp.importance[i],
            reverse=True,
        )[:10]
        assert [p["index"] for p in live["predicates"]] == order
        for entry in live["predicates"]:
            i = entry["index"]
            # Floats must agree bit for bit with the analyze path.
            assert entry["importance"] == float(imp.importance[i])
            assert entry["increase"] == float(scoring.scores.increase[i])
            assert entry["failure"] == float(scoring.scores.failure[i])
            assert entry["context"] == float(scoring.scores.context[i])
            assert entry["F"] == int(scoring.scores.F[i])
            assert entry["S"] == int(scoring.scores.S[i])
            assert entry["F_obs"] == int(scoring.scores.F_obs[i])
            assert entry["S_obs"] == int(scoring.scores.S_obs[i])
        assert live["n_runs"] == 60
        assert live["num_failing"] == store.sufficient_stats().num_failing

    def test_measure_echoed_under_its_registry_name(self, ccrypt_service):
        store, service = ccrypt_service
        assert service.scores_payload(measure="IMPORTANCE")["measure"] == "importance"
        reports = [_synthetic(seed, failed=seed % 2 == 0) for seed in range(8)]
        _post_reports(service, reports, store)
        service.flush()
        assert store.n_runs == 8
        for asked, name in (("IMPORTANCE", "importance"), (" Ochiai ", "ochiai")):
            doc = service.scores_payload(measure=asked)
            assert doc["measure"] == name
            assert doc == service.scores_payload(measure=name)



class TestWalRestart:
    def test_acked_reports_survive_restart(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        store, service = make_service(
            tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan
        )
        _post_reports(service, [_synthetic(s) for s in range(27)], store)
        assert store.n_runs == 20  # one full batch committed
        assert service.batcher.queue_depth == 7
        # Simulate a SIGKILL: no drain, no close -- just reopen the store.
        store2, service2 = make_service(
            tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan
        )
        assert store2.n_runs == 20
        assert service2.batcher.queue_depth == 7
        # The replayed reports still commit and dedup normally.
        _post_reports(
            service2, [_synthetic(s) for s in range(25, 40)], store2
        )
        assert store2.n_runs == 40
        assert service2.batcher.queue_depth == 0

    def test_torn_tail_tolerated(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        store, service = make_service(
            tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan
        )
        _post_reports(service, [_synthetic(s) for s in range(3)], store)
        with open(os.path.join(store.directory, WAL_NAME), "a") as handle:
            handle.write('{"seed": 99, "fail')  # crash mid-append
        store2, service2 = make_service(
            tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan
        )
        assert service2.batcher.queue_depth == 3
        events = [r["event"] for r in store2.read_log()]
        assert "serve-wal-torn-tail" in events

    def test_wal_compacted_after_commit(self, ccrypt_service):
        store, service = ccrypt_service
        _post_reports(service, [_synthetic(s) for s in range(23)], store)
        with open(service.wal_path, encoding="utf-8") as handle:
            seeds = [json.loads(line)["seed"] for line in handle if line.strip()]
        assert seeds == [20, 21, 22]  # committed prefix compacted away


class TestDurableWrites:
    def test_manifest_is_durable_before_the_wal_is_compacted(
        self, ccrypt_service, monkeypatch
    ):
        """The compaction drops the committed reports from the WAL, so
        the commit point -- the manifest's new bytes and the directory
        entry naming them -- must be on disk before it replaces the log."""
        store, service = ccrypt_service
        _post_reports(service, [_synthetic(s) for s in range(3)], store)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        _post_reports(service, [_synthetic(s) for s in range(3, 20)], store)
        monkeypatch.undo()
        assert store.n_shards == 1
        committed = events.index(("replace", "manifest.json"))
        compacted = events.index(("replace", WAL_NAME))
        assert ("fsync", os.stat(store.manifest_path).st_ino) in events[:committed]
        assert ("fsync", os.stat(store.directory).st_ino) in events[
            committed:compacted
        ]

    def test_written_bytes_are_pinned(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        """The manifest, steering document, WAL and spool files hold
        exactly these bytes for these inputs, however they are written."""

        def report(seed):
            failed = seed % 4 == 1
            return RunReport(
                seed=seed,
                failed=failed,
                site_obs={0: 1, 3: seed % 3 + 1},
                pred_true={1: 1} if failed else {},
                stack=("boom",) if failed else None,
                bugs=(),
            )

        store, service = make_service(
            tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan,
            refit_runs=20,
        )
        try:
            _post_reports(service, [report(s) for s in range(23)], store)
        finally:
            service.close(drain=False)
        spool = ReportSpool(str(tmp_path / "spool"))
        spool.save(report(5))
        spool.save(report(6))
        spool.reject(6, "bad-report", "site index out of range")
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
            for name in (
                "store/manifest.json",
                "store/steering.json",
                f"store/{WAL_NAME}",
                "spool/report-00000005.json",
                "spool/rejected/report-00000006.json.reason.json",
            )
        }
        assert digests == {
            "store/manifest.json": "30f56cf29a742e7b",
            "store/steering.json": "cb7fc78ea29a5e2a",
            f"store/{WAL_NAME}": "366420e303eeed8d",
            "spool/report-00000005.json": "3b1d854d25205e28",
            "spool/rejected/report-00000006.json.reason.json": "e403b03722860bd3",
        }


class TestHttpEndpoints:
    def test_healthz(self, ccrypt_server):
        store, service, server = ccrypt_server
        with urllib.request.urlopen(server.url + "/healthz", timeout=5) as resp:
            doc = json.loads(resp.read())
        assert doc["status"] == "ok"
        assert doc["subject"] == store.manifest.subject
        assert doc["queue_depth"] == 0

    def test_post_and_scores_over_http(self, ccrypt_server):
        store, service, server = ccrypt_server
        body, headers = encode_batch(
            [_synthetic(s, failed=s == 3) for s in range(20)],
            store.manifest.subject,
            store.manifest.table_sha,
        )
        request = urllib.request.Request(
            server.url + "/reports", data=body, headers=headers, method="POST"
        )
        with urllib.request.urlopen(request, timeout=5) as resp:
            doc = json.loads(resp.read())
        assert len(doc["accepted"]) == 20
        with urllib.request.urlopen(server.url + "/scores?k=3", timeout=5) as resp:
            scores = json.loads(resp.read())
        assert scores["n_runs"] == 20
        assert len(scores["predicates"]) <= 3

    def test_metrics_endpoint(self, ccrypt_server):
        _, _, server = ccrypt_server
        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as resp:
            doc = json.loads(resp.read())
        assert doc["schema"] == "repro-metrics/v1"

    def test_unknown_paths_404(self, ccrypt_server):
        _, _, server = ccrypt_server
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            request = urllib.request.Request(
                server.url + path,
                data=b"" if method == "POST" else None,
                method=method,
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=5)
            assert err.value.code == 404

    def test_bad_scores_query_400(self, ccrypt_server):
        _, _, server = ccrypt_server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/scores?k=banana", timeout=5)
        assert err.value.code == 400

    def test_bad_content_length_refused_before_the_body_is_read(self, ccrypt_server):
        """A ``Content-Length`` that is not a non-negative integer, or is
        past the body limit, gets one JSON 400 naming its reason; the
        refusal is counted and quarantined, and the next upload is
        accepted."""
        store, service, server = ccrypt_server
        assert 10**12 > MAX_BODY_BYTES
        for value, reason in (
            ("abc", "bad-length"),
            ("-5", "bad-length"),
            (str(10**12), "too-large"),
        ):
            status, doc = _raw_post(server, value)
            assert (status, doc["error"]) == (400, reason), value
        assert service.metrics.counter("serve.reports_rejected") == 3
        qdir = os.path.join(store.directory, QUARANTINE_DIR)
        reasons = []
        for name in sorted(os.listdir(qdir)):
            if name.endswith(".reason.json"):
                with open(os.path.join(qdir, name), encoding="utf-8") as handle:
                    reasons.append(json.load(handle)["reason"])
        assert sorted(reasons) == ["upload-bad-length"] * 2 + ["upload-too-large"]

        body, headers = encode_batch(
            [_synthetic(0)], store.manifest.subject, store.manifest.table_sha
        )
        request = urllib.request.Request(
            server.url + "/reports", data=body, headers=headers, method="POST"
        )
        with urllib.request.urlopen(request, timeout=5) as resp:
            assert json.loads(resp.read())["accepted"] == [0]
