"""Differential acceptance: networked collection == local sharded collection.

The service's contract is that a population collected client -> HTTP ->
:class:`CollectionService` -> :class:`ShardStore` is **bit-identical** to
the same seeds collected locally by
:func:`repro.harness.parallel.run_trials_sharded`:

* sufficient statistics -- integer equality, all five subjects;
* scores -- bitwise float equality (``tobytes``), all five subjects;
* engine scoring and pruning over both stores agree bitwise;
* both stores reproduce their ``tests/golden`` digests -- table
  signature, statistics, scores, shard bytes and ``analyze`` stdout --
  for every golden key (full-sampling keys in the default lane, uniform
  ones in the slow lane);
* the identity survives injected network faults (client-side refusals,
  server 500s, dropped connections, slow responses that force timeout
  retries) and a server kill/restart mid-stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import AnalysisEngine
from repro.core.scores import compute_scores
from repro.harness.parallel import run_trials_sharded
from repro.serve import FeedbackServer, ReportSpool
from repro.serve.client import drain_spool, run_and_spool
from repro.store import ShardStore
from repro.store.faults import FaultInjector, parse_faults

from tests.golden import CHUNK, SUBJECT_RUNS, GoldenCase, assert_golden_store

from .conftest import make_service

BATCH_RUNS = CHUNK  # server shard size == local chunk_size, so layouts match

_SCORE_FIELDS = (
    "F",
    "S",
    "F_obs",
    "S_obs",
    "failure",
    "context",
    "increase",
    "increase_se",
    "increase_lo",
    "increase_hi",
    "pf",
    "ps",
    "z",
    "z_defined",
    "defined",
)

FAST_RETRY = dict(backoff_base=0.01, backoff_cap=0.05, jitter=0.0)


def _subject(name):
    from repro.cli import SUBJECTS

    return SUBJECTS[name]()


def _local_store(directory, subject, n_runs, plan):
    run_trials_sharded(
        subject,
        n_runs,
        plan,
        str(directory),
        seed=0,
        jobs=2,
        chunk_size=BATCH_RUNS,
    )
    return ShardStore.open(str(directory))


def _assert_stores_identical(served: ShardStore, local: ShardStore):
    served_stats = served.sufficient_stats()
    local_stats = local.sufficient_stats()
    for field in ("F", "S", "F_obs", "S_obs"):
        np.testing.assert_array_equal(
            getattr(served_stats, field), getattr(local_stats, field)
        )
    assert served_stats.num_failing == local_stats.num_failing
    assert served_stats.num_successful == local_stats.num_successful

    served_reports, _ = served.load_merged()
    local_reports, _ = local.load_merged()
    served_scores = compute_scores(served_reports)
    local_scores = compute_scores(local_reports)
    for field in _SCORE_FIELDS:
        assert (
            getattr(served_scores, field).tobytes()
            == getattr(local_scores, field).tobytes()
        ), field

    engine = AnalysisEngine()
    got = engine.score_stats(engine.store_stats(served))
    want = engine.score_stats(engine.store_stats(local))
    for field in _SCORE_FIELDS:
        assert (
            getattr(got.scores, field).tobytes()
            == getattr(want.scores, field).tobytes()
        ), field
    np.testing.assert_array_equal(got.pruning.kept, want.pruning.kept)


def _check_networked_collection(tmp_path, name, n_runs, mode):
    case = GoldenCase(name, mode, n_runs)
    subject = _subject(name)
    plan = case.plan()
    program = subject.build_program()

    local = _local_store(tmp_path / "local", subject, n_runs, plan)

    store, service = make_service(
        tmp_path / "served", subject, program, plan, batch_runs=BATCH_RUNS
    )
    server = FeedbackServer(service, port=0).start()
    try:
        spool = ReportSpool(str(tmp_path / "spool"))
        run_and_spool(subject, program, plan, spool, n_runs, seed=0)
        result = drain_spool(
            spool,
            server.url,
            subject.name,
            program.table.signature(),
            batch_size=17,  # deliberately misaligned with BATCH_RUNS
            **FAST_RETRY,
        )
        assert sorted(result.accepted) == list(range(n_runs))
    finally:
        server.close(drain=True)

    served = ShardStore.open(str(tmp_path / "served"))
    assert served.n_runs == local.n_runs == n_runs
    _assert_stores_identical(served, local)
    assert_golden_store(case.key, local)
    assert_golden_store(case.key, served)


@pytest.mark.parametrize("name,n_runs", SUBJECT_RUNS)
def test_networked_collection_bit_identical(tmp_path, name, n_runs):
    _check_networked_collection(tmp_path, name, n_runs, "full")


@pytest.mark.slow
@pytest.mark.parametrize("name,n_runs", SUBJECT_RUNS)
def test_networked_uniform_collection_bit_identical(tmp_path, name, n_runs):
    _check_networked_collection(tmp_path, name, n_runs, "uniform")


def test_bit_identical_under_network_faults(
    tmp_path, ccrypt_subject, ccrypt_program, full_plan
):
    """The full fault matrix at once: refused connections on batch 1,
    a 500 on the third POST, a dropped connection on the fourth, and a
    slow first POST that forces a client timeout + duplicate-acked
    retry.  None of it may change a bit of the result."""
    n_runs = 60
    local = _local_store(tmp_path / "local", ccrypt_subject, n_runs, full_plan)

    store, service = make_service(
        tmp_path / "served", ccrypt_subject, ccrypt_program, full_plan,
        batch_runs=BATCH_RUNS,
    )
    server_faults = FaultInjector(
        parse_faults("net-500@2,net-disconnect@3,net-slow@0")
    )
    server = FeedbackServer(service, port=0, faults=server_faults).start()
    try:
        spool = ReportSpool(str(tmp_path / "spool"))
        run_and_spool(ccrypt_subject, ccrypt_program, full_plan, spool, n_runs)
        result = drain_spool(
            spool,
            server.url,
            ccrypt_subject.name,
            ccrypt_program.table.signature(),
            batch_size=13,
            timeout=0.8,  # < SLOW_SECONDS: the net-slow POST times out
            faults=FaultInjector(parse_faults("net-refuse@1")),
            **FAST_RETRY,
        )
        assert result.retries >= 4
        # The slow POST still landed server-side, so its retry is
        # acknowledged as duplicates -- at-least-once made exact.
        acked = sorted(result.accepted + result.duplicate)
        assert acked == sorted(set(acked))
        assert set(result.accepted) | set(result.duplicate) == set(range(n_runs))
        assert len(spool) == 0
    finally:
        server.close(drain=True)

    served = ShardStore.open(str(tmp_path / "served"))
    assert served.n_runs == n_runs
    _assert_stores_identical(served, local)


def test_bit_identical_across_server_restart(
    tmp_path, ccrypt_subject, ccrypt_program, full_plan
):
    """Kill the server mid-stream (no drain), restart over the same
    store directory, finish the upload: WAL replay makes the final
    population identical to an uninterrupted local collection."""
    n_runs = 60
    local = _local_store(tmp_path / "local", ccrypt_subject, n_runs, full_plan)

    spool = ReportSpool(str(tmp_path / "spool"))
    run_and_spool(ccrypt_subject, ccrypt_program, full_plan, spool, n_runs)

    store, service = make_service(
        tmp_path / "served", ccrypt_subject, ccrypt_program, full_plan,
        batch_runs=BATCH_RUNS,
    )
    server = FeedbackServer(service, port=0).start()
    drain_args = (spool, server.url, ccrypt_subject.name,
                  ccrypt_program.table.signature())
    try:
        # First session: two batches of 17, then the "machine dies" --
        # the HTTP loop stops with NO drain and NO graceful close.
        drain_spool(*drain_args, batch_size=17, max_batches=2, **FAST_RETRY)
        assert len(spool) == n_runs - 34
    finally:
        server._http.shutdown()
        server._http.server_close()

    committed_before = ShardStore.open(str(tmp_path / "served")).n_runs
    assert committed_before < n_runs  # some acked reports were WAL-only

    # Restart: a fresh service over the same directory replays the WAL.
    store2, service2 = make_service(
        tmp_path / "served", ccrypt_subject, ccrypt_program, full_plan,
        batch_runs=BATCH_RUNS,
    )
    server2 = FeedbackServer(service2, port=0).start()
    try:
        result = drain_spool(
            spool, server2.url, ccrypt_subject.name,
            ccrypt_program.table.signature(), batch_size=17, **FAST_RETRY,
        )
        assert len(spool) == 0
        assert set(result.accepted) | set(result.duplicate) == set(
            range(34, n_runs)
        )
    finally:
        server2.close(drain=True)

    served = ShardStore.open(str(tmp_path / "served"))
    assert served.n_runs == n_runs
    recovered = served.recover()
    assert recovered == ([], [])
    audit = served.audit()
    assert audit.runs_lost == 0
    _assert_stores_identical(served, local)
