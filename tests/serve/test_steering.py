"""Steering acceptance: the closed loop, proven end to end.

The daemon's contract for closed-loop adaptive collection:

* **provenance** -- every committed batch records exactly the steering
  version the producing client fetched (all five subjects);
* **safety** -- served rates never leave ``[MIN_ADAPTIVE_RATE, 1.0]``;
* **durability** -- an abrupt daemon death (no drain, no close) followed
  by a restart re-serves a steering document refit from the recovered
  store, identical to an offline refit over the same snapshot;
* **compat** -- unsteered collection stays bit-identical to the
  pre-steering protocol in both directions (old client/new server and
  new client/old server);
* **differential** -- a steered client whose rates were pinned to an
  offline-trained table produces byte-identical reports to local
  ``sampling="adaptive"`` collection over the same seeds.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.stopping import StoppingPolicy
from repro.harness.experiment import build_plan
from repro.instrument.sampling import MIN_ADAPTIVE_RATE, SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.serve import FeedbackServer, ReportSpool
from repro.serve.client import run_and_spool, submit_session
from repro.serve.steering import (
    STEERING_LOG_NAME,
    STEERING_NAME,
    fetch_steering,
    fit_steering,
)
from repro.store import ShardStore

from .conftest import make_service

FAST_RETRY = dict(backoff_base=0.01, backoff_cap=0.05, jitter=0.0)

SUBJECT_NAMES = ["moss", "ccrypt", "bc", "exif", "rhythmbox"]


def _subject(name):
    from repro.cli import SUBJECTS

    return SUBJECTS[name]()


def _read_steering_log(store_dir):
    path = os.path.join(str(store_dir), STEERING_LOG_NAME)
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.mark.parametrize("name", SUBJECT_NAMES)
def test_every_batch_carries_producing_version(tmp_path, name):
    """Two steered rounds; every committed batch's provenance log entry
    names exactly the steering version its producing client fetched."""
    subject = _subject(name)
    program = instrument_source(subject.source(), subject.name)
    store, service = make_service(
        tmp_path / "store", subject, program, SamplingPlan.full(),
        batch_runs=8, refit_runs=8,
    )
    server = FeedbackServer(service, port=0).start()
    round_versions = []
    try:
        for round_index in range(2):
            document = fetch_steering(server.url)
            round_versions.append(document.version)
            result = submit_session(
                subject, program, SamplingPlan.full(), server.url,
                str(tmp_path / f"spool{round_index}"),
                n_runs=24, seed=round_index * 24, steered=True, **FAST_RETRY,
            )
            assert len(result.accepted) == 24
    finally:
        server.close(drain=True)

    # Epochs advanced between rounds, so the two fetched versions differ.
    assert round_versions[0] != round_versions[1]
    entries = _read_steering_log(tmp_path / "store")
    assert len(entries) == 48 // 8
    for i, entry in enumerate(entries):
        assert entry["versions"] == [round_versions[i // 3]]
        assert entry["n_runs"] == 8
        assert entry["filename"]


def test_served_rates_never_below_floor(tmp_path, ccrypt_subject, ccrypt_program):
    store, service = make_service(
        tmp_path / "store", ccrypt_subject, ccrypt_program, SamplingPlan.full(),
        batch_runs=50, refit_runs=50,
    )
    server = FeedbackServer(service, port=0).start()
    try:
        submit_session(
            ccrypt_subject, ccrypt_program, SamplingPlan.full(), server.url,
            str(tmp_path / "spool"), n_runs=150, **FAST_RETRY,
        )
        document = fetch_steering(server.url)
    finally:
        server.close(drain=True)

    rates = np.asarray(document.rates)
    assert rates.size == ccrypt_program.table.n_sites
    assert float(rates.min()) >= MIN_ADAPTIVE_RATE
    assert float(rates.max()) <= 1.0

    # Push the fit hard enough that hot sites actually hit the floor:
    # a sub-run sample target clips every reached site's rate to the
    # minimum rather than below it.
    reopened = ShardStore.open(str(tmp_path / "store"))
    totals = np.zeros(ccrypt_program.table.n_sites, dtype=np.int64)
    for reports, _ in reopened.iter_reports():
        totals += np.asarray(reports.site_counts.sum(axis=0)).ravel().astype(np.int64)
    forced = fit_steering(
        reopened, ccrypt_subject.name, totals, target_samples=0.5,
    )
    forced_rates = np.asarray(forced.rates)
    reached = totals > 0
    assert float(forced_rates.min()) >= MIN_ADAPTIVE_RATE
    assert np.any(forced_rates[reached] == MIN_ADAPTIVE_RATE)


def test_restart_reserves_refit_from_recovered_store(
    tmp_path, ccrypt_subject, ccrypt_program, full_plan
):
    """Kill the daemon abruptly mid-stream (no drain, no graceful close);
    a restart over the same directory must serve a steering document
    identical to an offline refit of the recovered snapshot."""
    n_runs = 60
    spool = ReportSpool(str(tmp_path / "spool"))
    run_and_spool(ccrypt_subject, ccrypt_program, full_plan, spool, n_runs)

    store, service = make_service(
        tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan,
        batch_runs=20, refit_runs=20,
    )
    server = FeedbackServer(service, port=0).start()
    try:
        from repro.serve.client import drain_spool

        drain_spool(
            spool, server.url, ccrypt_subject.name,
            ccrypt_program.table.signature(), batch_size=17, max_batches=2,
            **FAST_RETRY,
        )
    finally:
        # The machine dies: no drain, no close(), buffered reports lost
        # to everything but the WAL.
        server._http.shutdown()
        server._http.server_close()

    store2, service2 = make_service(
        tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan,
        batch_runs=20, refit_runs=20,
    )
    server2 = FeedbackServer(service2, port=0).start()
    try:
        document = fetch_steering(server2.url)
        # The restart refit over exactly the committed snapshot: one
        # full batch; the WAL-replayed tail (14 runs) is re-queued but
        # stays pending until the next full batch or a drain.
        snapshot = ShardStore.open(str(tmp_path / "store"))
        assert snapshot.n_runs == 20
        assert document.epoch == snapshot.n_runs
        assert document.converged is False
        totals = np.zeros(ccrypt_program.table.n_sites, dtype=np.int64)
        for reports, _ in snapshot.iter_reports():
            totals += (
                np.asarray(reports.site_counts.sum(axis=0)).ravel().astype(np.int64)
            )
        offline = fit_steering(
            snapshot, ccrypt_subject.name, totals, policy=StoppingPolicy(),
        )
        assert json.dumps(document.to_wire(), sort_keys=True) == json.dumps(
            offline.to_wire(), sort_keys=True
        )
    finally:
        server2.close(drain=True)

    # The drain committed the replayed tail (14 runs, below the refit
    # cadence of 20, so the persisted document keeps the restart fit).
    final = ShardStore.open(str(tmp_path / "store"))
    assert final.n_runs == 34  # nothing acknowledged was lost
    with open(os.path.join(str(tmp_path / "store"), STEERING_NAME)) as handle:
        persisted = json.load(handle)
    assert persisted == document.to_wire()


class TestCompat:
    def test_old_server_falls_back_unstamped(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        """A steering-disabled server 404s `/steering`; the steered
        client falls back to its local plan and the collected store is
        bit-identical to the pre-steering protocol."""
        store, service = make_service(
            tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan,
            batch_runs=20, steering=False,
        )
        server = FeedbackServer(service, port=0).start()
        try:
            assert fetch_steering(server.url) is None
            assert service.health_payload()["steering"] is False
            result = submit_session(
                ccrypt_subject, ccrypt_program, full_plan, server.url,
                str(tmp_path / "spool"), n_runs=40, steered=True, **FAST_RETRY,
            )
            assert sorted(result.accepted) == list(range(40))
        finally:
            server.close(drain=True)
        # No steering document, no provenance log, no stamped batches.
        assert not os.path.exists(os.path.join(str(tmp_path / "store"), STEERING_NAME))
        assert not os.path.exists(
            os.path.join(str(tmp_path / "store"), STEERING_LOG_NAME)
        )

    def test_unstamped_spool_bytes_identical_to_pre_steering(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        """`run_and_spool` without a steering version writes wire bytes
        with no trace of the steering field -- the exact pre-steering
        client output."""
        spool = ReportSpool(str(tmp_path / "spool"))
        run_and_spool(ccrypt_subject, ccrypt_program, full_plan, spool, 5)
        for seed in spool.pending_seeds():
            with open(spool._path(seed), "r", encoding="utf-8") as handle:
                spec = json.load(handle)
            assert "steering" not in spec

    def test_old_client_against_steering_server(
        self, tmp_path, ccrypt_subject, ccrypt_program, full_plan
    ):
        """A pre-steering client (an unsteered session, no stamp)
        is accepted unchanged; its batches log an empty version list."""
        store, service = make_service(
            tmp_path / "store", ccrypt_subject, ccrypt_program, full_plan,
            batch_runs=20, refit_runs=20,
        )
        server = FeedbackServer(service, port=0).start()
        try:
            result = submit_session(
                ccrypt_subject, ccrypt_program, full_plan, server.url,
                str(tmp_path / "spool"), n_runs=40, **FAST_RETRY,
            )
            assert sorted(result.accepted) == list(range(40))
        finally:
            server.close(drain=True)
        entries = _read_steering_log(tmp_path / "store")
        assert len(entries) == 2
        assert all(entry["versions"] == [] for entry in entries)


def test_pinned_rates_bit_identical_to_local_adaptive(
    tmp_path, ccrypt_subject, ccrypt_program
):
    """The acceptance differential: pin the daemon's rates to the
    offline-trained adaptive table (by committing the training
    population), then collect steered.  Every steered report must be
    byte-identical to the local ``sampling="adaptive"`` report for the
    same seed, modulo only the provenance stamp."""
    training_runs = 40
    n_runs = 50
    # Local side: the paper's offline training at the experiment's
    # canonical training seed base.
    local_plan = build_plan(
        ccrypt_subject, ccrypt_program, "adaptive",
        training_runs=training_runs, seed=0,
    )

    # Server side: commit the *same* training population (same seeds,
    # full sampling), so the refit sees identical mean reach counts.
    store, service = make_service(
        tmp_path / "store", ccrypt_subject, ccrypt_program, SamplingPlan.full(),
        batch_runs=training_runs, refit_runs=training_runs,
    )
    server = FeedbackServer(service, port=0).start()
    try:
        submit_session(
            ccrypt_subject, ccrypt_program, SamplingPlan.full(), server.url,
            str(tmp_path / "train-spool"), n_runs=training_runs,
            seed=777_000, **FAST_RETRY,
        )
        document = fetch_steering(server.url)
    finally:
        server.close(drain=True)

    # Identical training evidence -> bitwise identical rate tables,
    # surviving the JSON wire round trip.
    steered_plan = SamplingPlan.from_steering(document)
    np.testing.assert_array_equal(steered_plan.site_rates, local_plan.site_rates)

    local_spool = ReportSpool(str(tmp_path / "local-spool"))
    run_and_spool(ccrypt_subject, ccrypt_program, local_plan, local_spool, n_runs)
    steered_spool = ReportSpool(str(tmp_path / "steered-spool"))
    run_and_spool(
        ccrypt_subject, ccrypt_program, steered_plan, steered_spool, n_runs,
        steering_version=document.version,
    )
    assert local_spool.pending_seeds() == steered_spool.pending_seeds()
    for seed in local_spool.pending_seeds():
        with open(local_spool._path(seed), "rb") as handle:
            local_bytes = handle.read()
        with open(steered_spool._path(seed), "r", encoding="utf-8") as handle:
            steered_spec = json.load(handle)
        assert steered_spec.pop("steering") == document.version
        local_spec = json.loads(local_bytes)
        assert steered_spec == local_spec
        # Byte-level: re-canonicalising the stamped report without its
        # stamp reproduces the local file exactly.
        assert (
            json.dumps(steered_spec, sort_keys=True) + "\n"
        ).encode() == local_bytes
