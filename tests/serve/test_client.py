"""Client-side tests: the disk spool, the retrying drain loop and the
submit session whose rounds compose them."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core.stopping import StoppingPolicy
from repro.serve import (
    FeedbackServer,
    ReportSpool,
    RunReport,
    UploadError,
    drain_spool,
    fetch_scores,
    run_and_spool,
    submit_session,
    watched_from_scores,
)
from repro.serve.client import REJECTED_DIR, SPOOL_PATTERN
from repro.serve.steering import STEERING_LOG_NAME, fetch_steering
from repro.store import ShardStore
from repro.store.faults import FaultInjector, parse_faults

from .conftest import make_service

FAST_RETRY = dict(backoff_base=0.01, backoff_cap=0.05, jitter=0.0)


def _report(seed: int) -> RunReport:
    return RunReport(
        seed=seed,
        failed=False,
        site_obs={0: 1},
        pred_true={},
        stack=None,
        bugs=(),
    )


def _fill(spool: ReportSpool, n: int) -> None:
    for seed in range(n):
        spool.save(_report(seed))


def _drain(spool, server, store, faults=None, **kwargs):
    kwargs = {**FAST_RETRY, **kwargs}
    return drain_spool(
        spool,
        server.url,
        store.manifest.subject,
        store.manifest.table_sha,
        faults=FaultInjector(parse_faults(faults)) if faults else None,
        **kwargs,
    )


class TestSpool:
    def test_round_trip(self, tmp_path):
        spool = ReportSpool(str(tmp_path))
        report = RunReport(
            seed=12,
            failed=True,
            site_obs={3: 2, 1: 1},
            pred_true={7: 2},
            stack=("f", "g"),
            bugs=("bug1",),
        )
        spool.save(report)
        assert spool.pending_seeds() == [12]
        assert spool.load(12) == report

    def test_save_is_atomic(self, tmp_path):
        spool = ReportSpool(str(tmp_path))
        spool.save(_report(1))
        # A stray temp file (crash mid-write) is never listed as pending.
        stray = os.path.join(str(tmp_path), SPOOL_PATTERN.format(seed=2) + ".tmp")
        with open(stray, "w") as handle:
            handle.write("{torn")
        assert spool.pending_seeds() == [1]

    @pytest.mark.parametrize(
        "report, sha",
        [
            (
                RunReport(
                    seed=12,
                    failed=True,
                    site_obs={3: 2, 1: 1},
                    pred_true={7: 2},
                    stack=("f", "g"),
                    bugs=("bug1",),
                    steering="v3",
                ),
                "59144e56f64e9236115b56e553c64a30107b43101b4b349100d5b7cf86d005ac",
            ),
            (_report(13), "0ee44e7a17ec34c0eef4dc548f341096e7a5a9fdb2dbe80468cb3286812d2705"),
        ],
        ids=["stack-and-steering", "neither"],
    )
    def test_save_bytes_are_pinned(self, tmp_path, report, sha):
        spool = ReportSpool(str(tmp_path))
        with open(spool.save(report), "rb") as handle:
            data = handle.read()
        assert data == (json.dumps(report.to_wire(), sort_keys=True) + "\n").encode()
        assert hashlib.sha256(data).hexdigest() == sha

    def test_corrupt_entry_raises_on_load(self, tmp_path):
        spool = ReportSpool(str(tmp_path))
        path = spool.save(_report(4))
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(ValueError):
            spool.load(4)

    def test_remove_is_idempotent(self, tmp_path):
        spool = ReportSpool(str(tmp_path))
        spool.save(_report(5))
        spool.remove(5)
        spool.remove(5)
        assert len(spool) == 0

    def test_reject_moves_with_reason(self, tmp_path):
        spool = ReportSpool(str(tmp_path))
        spool.save(_report(9))
        spool.reject(9, "table-mismatch", "stale client")
        assert spool.pending_seeds() == []
        rejected = os.path.join(str(tmp_path), REJECTED_DIR)
        name = SPOOL_PATTERN.format(seed=9)
        assert os.path.exists(os.path.join(rejected, name))
        with open(os.path.join(rejected, name + ".reason.json")) as handle:
            assert json.load(handle)["reason"] == "table-mismatch"


class TestRunAndSpool:
    def test_spools_deterministic_reports(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        one = ReportSpool(str(tmp_path / "one"))
        two = ReportSpool(str(tmp_path / "two"))
        run_and_spool(ccrypt_subject, ccrypt_program, full_plan, one, 10, seed=5)
        run_and_spool(ccrypt_subject, ccrypt_program, full_plan, two, 10, seed=5)
        assert one.pending_seeds() == two.pending_seeds() == list(range(5, 15))
        for seed in one.pending_seeds():
            assert one.load(seed) == two.load(seed)


class TestDrain:
    def test_plain_drain(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 25)
        result = _drain(spool, server, store, batch_size=10)
        assert sorted(result.accepted) == list(range(25))
        assert result.duplicate == []
        assert result.retries == 0
        assert len(spool) == 0
        assert store.n_runs == 20  # one full batch committed, 5 queued
        assert service.batcher.queue_depth == 5

    def test_redelivery_is_idempotent(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 8)
        _drain(spool, server, store)
        _fill(spool, 8)  # client crashed after upload, re-spooled, re-sent
        result = _drain(spool, server, store)
        assert sorted(result.duplicate) == list(range(8))
        assert result.accepted == []
        assert service.batcher.queue_depth == 8

    def test_net_refuse_retries(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 6)
        result = _drain(
            spool, server, store, faults="net-refuse@0,net-refuse@0#1", batch_size=6
        )
        assert sorted(result.accepted) == list(range(6))
        assert result.retries == 2
        assert len(spool) == 0

    def test_net_refuse_exhausts_budget(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 3)
        faults = ",".join(f"net-refuse@0#{a}" for a in range(3))
        with pytest.raises(UploadError):
            _drain(spool, server, store, faults=faults, max_attempts=3)
        # Nothing acknowledged, nothing lost.
        assert spool.pending_seeds() == [0, 1, 2]

    def test_server_500_retries(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 4)
        server._http.injector = FaultInjector(parse_faults("net-500@0"))
        result = _drain(spool, server, store, batch_size=4)
        assert sorted(result.accepted) == list(range(4))
        assert result.retries == 1
        assert len(spool) == 0

    def test_server_disconnect_retries(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 4)
        server._http.injector = FaultInjector(parse_faults("net-disconnect@0"))
        result = _drain(spool, server, store, batch_size=4)
        assert sorted(result.accepted) == list(range(4))
        assert result.retries >= 1
        assert len(spool) == 0

    def test_server_slow_response_times_out_then_delivers(
        self, tmp_path, ccrypt_server
    ):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 4)
        server._http.injector = FaultInjector(parse_faults("net-slow@0"))
        # SLOW_SECONDS is 1.5, so a 0.5s timeout fires; the slow request
        # still lands server-side, making the retry a duplicate ack.
        result = _drain(spool, server, store, batch_size=4, timeout=0.5)
        assert result.retries >= 1
        assert sorted(result.accepted + result.duplicate) == list(range(4))
        assert len(spool) == 0
        assert service.batcher.queue_depth == 4

    def test_permanent_rejection_moves_to_rejected(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 2)
        result = drain_spool(
            spool, server.url, store.manifest.subject, "0" * 64, **FAST_RETRY
        )
        assert sorted(result.rejected) == [0, 1]
        assert result.accepted == []
        assert spool.pending_seeds() == []
        rejected = os.path.join(spool.directory, REJECTED_DIR)
        reason_path = os.path.join(
            rejected, SPOOL_PATTERN.format(seed=0) + ".reason.json"
        )
        with open(reason_path) as handle:
            assert json.load(handle)["reason"] == "table-mismatch"
        assert store.n_runs == 0

    def test_damaged_spool_entry_is_set_aside(self, tmp_path, ccrypt_server):
        """Regression: one torn ``report-*.json`` made every drain raise
        ``JSONDecodeError``, so nothing uploaded, ever."""
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 4)
        path = spool._path(1)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        result = _drain(spool, server, store, batch_size=4)
        assert sorted(result.accepted) == [0, 2, 3]
        assert result.rejected == [1]
        assert spool.pending_seeds() == []
        rejected = os.path.join(spool.directory, REJECTED_DIR)
        name = SPOOL_PATTERN.format(seed=1)
        assert os.path.exists(os.path.join(rejected, name))
        with open(os.path.join(rejected, name + ".reason.json")) as handle:
            assert json.load(handle)["reason"] == "bad-spool-entry"
        assert service.batcher.queue_depth == 3

    def test_spool_entry_naming_another_seed_is_set_aside(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 2)
        os.replace(spool._path(1), spool._path(5))
        result = _drain(spool, server, store)
        assert result.accepted == [0]
        assert result.rejected == [5]
        assert spool.pending_seeds() == []

    def test_dead_server_gives_up_with_spool_intact(self, tmp_path, ccrypt_service):
        store, service = ccrypt_service
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 3)
        with pytest.raises(UploadError):
            drain_spool(
                spool,
                "http://127.0.0.1:9",  # discard port: nothing listens
                store.manifest.subject,
                store.manifest.table_sha,
                max_attempts=2,
                timeout=0.5,
                **FAST_RETRY,
            )
        assert spool.pending_seeds() == [0, 1, 2]

    def test_max_batches_stops_early(self, tmp_path, ccrypt_server):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        _fill(spool, 10)
        result = _drain(spool, server, store, batch_size=3, max_batches=2)
        assert len(result.accepted) == 6
        assert spool.pending_seeds() == [6, 7, 8, 9]


class TestScoresClient:
    def test_fetch_and_watch(self, tmp_path, ccrypt_server, ccrypt_subject,
                             ccrypt_program, full_plan):
        store, service, server = ccrypt_server
        spool = ReportSpool(str(tmp_path / "spool"))
        run_and_spool(ccrypt_subject, ccrypt_program, full_plan, spool, 40)
        _drain(spool, server, store, batch_size=40)
        doc = fetch_scores(server.url, k=5)
        assert doc["n_runs"] == 40
        assert 0 < len(doc["predicates"]) <= 5
        watched = watched_from_scores(doc, k=3)
        assert 0 < len(watched) <= 3
        for index, importance in watched.items():
            assert isinstance(index, int)
            assert 0.0 <= importance <= 1.0


def _steering_requests(service) -> int:
    return int(service.metrics.counter("serve.steering_requests"))


def _steering_log(store_dir):
    with open(os.path.join(str(store_dir), STEERING_LOG_NAME)) as handle:
        return handle.read().splitlines()


#: A two-round steered ccrypt session at seeds 0..39 (``batch_runs ==
#: refit_runs == 20``, default stopping policy), as committed by the
#: three separate submit loops the session replaced: round two runs
#: under the epoch-20 refit, so these bytes pin the steered plan too.
TWO_ROUND_SHARDS = [
    ("shard-00000000.npz",
     "8bd1d3df65a097f773503aa1d5aebd0d55c52c137396d78813c9e228a082ce47"),
    ("shard-00000020.npz",
     "0ce44c26b3be905c2939b0e31b77466bdfc0ee2f3afcb3025d8b850c5f468215"),
]
TWO_ROUND_STEERING_LOG = [
    '{"filename": "shard-00000000.npz", "n_runs": 20, "seed_start": 0, '
    '"versions": ["eb7bb05b94c4/0"]}',
    '{"filename": "shard-00000020.npz", "n_runs": 20, "seed_start": 20, '
    '"versions": ["fd35a36a97e3/20"]}',
]


class TestSubmitSession:
    """Every client mode is rounds of one fetch -> run -> spool -> drain loop."""

    def _serve(self, tmp_path, subject, program, plan, **service_kwargs):
        store, service = make_service(
            tmp_path / "store", subject, program, plan,
            batch_runs=20, refit_runs=20, **service_kwargs,
        )
        return store, service, FeedbackServer(service, port=0).start()

    def test_unsteered_round_fetches_nothing(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        store, service, server = self._serve(
            tmp_path, ccrypt_subject, ccrypt_program, full_plan
        )
        try:
            session = submit_session(
                ccrypt_subject, ccrypt_program, full_plan, server.url,
                str(tmp_path / "spool"), n_runs=25, seed=0, **FAST_RETRY,
            )
            assert _steering_requests(service) == 0
        finally:
            server.close(drain=True)
        assert sorted(session.accepted) == list(range(25))
        assert (session.rounds, session.runs) == (1, 25)
        assert (session.converged, session.final_epoch) == (False, None)
        assert _steering_log(tmp_path / "store") == [
            '{"filename": "shard-00000000.npz", "n_runs": 20, "seed_start": 0, '
            '"versions": []}',
            '{"filename": "shard-00000020.npz", "n_runs": 5, "seed_start": 20, '
            '"versions": []}',
        ]

    def test_until_converged_drains_to_verdict(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        """The closed loop ends itself: steered rounds run until the
        daemon's CI-based stopping rule flips ``converged``.  R rounds
        make R + 1 steering requests: the fetch that opens a round both
        decides convergence and supplies the round's plan."""
        policy = StoppingPolicy(min_runs=60, min_failing=5, epsilon=1.0, top_k=3)
        store, service, server = self._serve(
            tmp_path, ccrypt_subject, ccrypt_program, full_plan, stopping=policy
        )
        try:
            session = submit_session(
                ccrypt_subject, ccrypt_program, full_plan, server.url,
                str(tmp_path / "spool"), n_runs=20, until_converged=True,
                max_rounds=10, **FAST_RETRY,
            )
            requests = _steering_requests(service)
            health = service.health_payload()
        finally:
            server.close(drain=True)
        assert session.converged
        assert session.rounds >= 3  # min_runs=60 at 20 runs a round
        assert requests == session.rounds + 1
        assert session.runs == 20 * session.rounds == session.final_epoch
        assert sorted(session.accepted) == list(range(session.runs))
        assert health["steering"] is True
        assert health["converged"] is True
        assert health["steering_epoch"] == session.final_epoch

    def test_two_round_session_commits_pinned_bytes(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        store, service, server = self._serve(
            tmp_path, ccrypt_subject, ccrypt_program, full_plan
        )
        try:
            session = submit_session(
                ccrypt_subject, ccrypt_program, full_plan, server.url,
                str(tmp_path / "spool"), n_runs=20, until_converged=True,
                max_rounds=2, **FAST_RETRY,
            )
            requests = _steering_requests(service)
        finally:
            server.close(drain=True)
        assert (session.rounds, session.runs) == (2, 40)
        assert (session.converged, session.final_epoch) == (False, 40)
        assert requests == 3  # two rounds, plus the fetch that ends the budget
        committed = ShardStore.open(str(tmp_path / "store")).manifest.shards
        assert [(e.filename, e.sha256) for e in committed] == TWO_ROUND_SHARDS
        assert _steering_log(tmp_path / "store") == TWO_ROUND_STEERING_LOG

    def test_steered_round_runs_against_converged_daemon(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        """``--steered`` is one round whatever the document says; only
        ``until_converged`` stops on the flag."""
        policy = StoppingPolicy(min_runs=60, min_failing=5, epsilon=1.0, top_k=3)
        store, service, server = self._serve(
            tmp_path, ccrypt_subject, ccrypt_program, full_plan, stopping=policy
        )
        try:
            submit_session(
                ccrypt_subject, ccrypt_program, full_plan, server.url,
                str(tmp_path / "spool"), n_runs=60, **FAST_RETRY,
            )
            document = fetch_steering(server.url)
            assert document.converged
            session = submit_session(
                ccrypt_subject, ccrypt_program, full_plan, server.url,
                str(tmp_path / "spool"), n_runs=20, seed=60, steered=True,
                **FAST_RETRY,
            )
        finally:
            server.close(drain=True)
        assert sorted(session.accepted) == list(range(60, 80))
        assert (session.rounds, session.runs) == (1, 20)
        assert (session.converged, session.final_epoch) == (True, 60)
        assert ShardStore.open(str(tmp_path / "store")).n_runs == 80
        last = json.loads(_steering_log(tmp_path / "store")[-1])
        assert (last["seed_start"], last["versions"]) == (60, [document.version])
