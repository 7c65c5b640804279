"""Fleet-scale differential acceptance matrix.

Every cell of {2, 3, 5 daemons} x {clean, kill+restart, net-fault}
runs real spooling clients against real in-process daemons over
disjoint seed ranges, federates the daemon stores into one, and asserts
the merged store is *bitwise* equal -- shard digests, raw bytes,
statistics, every scores column -- to a single daemon ingesting the
identical 120 reports alone, and that both reproduce the ``tiny/full``
golden digests (``tests/golden``).  This is the paper's fleet story
made falsifiable: sharding ingestion across machines (and crashing some
of them) must be invisible in the analysis.
"""

import os
import shutil

import numpy as np
import pytest

from repro.core.engine import AnalysisEngine
from repro.federate import LocalSource, cross_audit, federate_stores
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.serve import FeedbackServer, ReportSpool, drain_spool, run_and_spool
from repro.serve.client import SPOOL_PATTERN
from repro.serve.server import CollectionService
from repro.store import ShardStore
from repro.store.faults import Fault, FaultInjector

from tests.federate.conftest import assert_federated_equals_baseline
from tests.golden import CHUNK, assert_golden_store
from tests.harness.test_runner import TinySubject

pytestmark = pytest.mark.slow

#: Total runs per cell; every daemon range is a multiple of BATCH_RUNS,
#: so daemon shard boundaries coincide with the single-daemon baseline.
TOTAL_RUNS = 120
BATCH_RUNS = CHUNK

#: The golden key every cell's merged store must reproduce.
GOLDEN_KEY = "tiny/full/seeds-0-120/chunk-20"

#: Daemon seed ranges per fleet size (half-open, batch-aligned).
RANGES = {
    2: [(0, 60), (60, 120)],
    3: [(0, 40), (40, 80), (80, 120)],
    5: [(0, 40), (40, 60), (60, 80), (80, 100), (100, 120)],
}

#: Deterministic fast retries for every drain in the matrix.
FAST_RETRY = dict(backoff_base=0.01, backoff_cap=0.05, jitter=0.0)


@pytest.fixture(scope="module")
def tiny():
    subject = TinySubject()
    program = instrument_source(subject.source(), subject.name)
    return subject, program, SamplingPlan.full()


@pytest.fixture(scope="module")
def wire_spool(tiny, tmp_path_factory):
    """All 120 wire reports, spooled once and copied per cell."""
    subject, program, plan = tiny
    spool = ReportSpool(str(tmp_path_factory.mktemp("wire") / "spool"))
    run_and_spool(subject, program, plan, spool, TOTAL_RUNS, seed=0)
    return spool


def _spool_subset(parent, source_spool, lo, hi):
    """A fresh spool holding copies of the reports for seeds [lo, hi)."""
    spool = ReportSpool(str(parent))
    for seed in range(lo, hi):
        name = SPOOL_PATTERN.format(seed=seed)
        shutil.copy(
            os.path.join(source_spool.directory, name),
            os.path.join(spool.directory, name),
        )
    return spool


def _make_daemon(directory, tiny, faults=None):
    """A live daemon over a fresh store."""
    subject, program, plan = tiny
    store = ShardStore.create(str(directory), subject.name, program.table, plan)
    service = CollectionService(store, subject, batch_runs=BATCH_RUNS)
    server = FeedbackServer(service, faults=faults).start()
    return store, service, server


def _drain(spool, server, tiny, **kwargs):
    subject, program, _ = tiny
    return drain_spool(
        spool,
        server.url,
        subject.name,
        program.table.signature(),
        batch_size=10,
        **FAST_RETRY,
        **kwargs,
    )


@pytest.fixture(scope="module")
def baseline(tiny, wire_spool, tmp_path_factory):
    """A single daemon ingesting all 120 reports -- the ground truth."""
    root = tmp_path_factory.mktemp("baseline")
    store, service, server = _make_daemon(root / "store", tiny)
    spool = _spool_subset(root / "spool", wire_spool, 0, TOTAL_RUNS)
    result = _drain(spool, server, tiny)
    assert len(result.accepted) == TOTAL_RUNS
    server.close(drain=True)
    assert store.n_shards == TOTAL_RUNS // BATCH_RUNS
    store = ShardStore.open(store.directory)
    assert_golden_store(GOLDEN_KEY, store)
    return store


def _kill_and_restart(index, store, service, server, spool, tiny):
    """SIGKILL-equivalent on daemon ``index``: drop the socket and the
    in-memory service mid-drain, then recover from disk (WAL replay)."""
    _drain(spool, server, tiny, max_batches=2)
    server._http.shutdown()
    server._http.server_close()

    reopened = ShardStore.open(store.directory)
    service = CollectionService(reopened, tiny[0], batch_runs=BATCH_RUNS)
    server = FeedbackServer(service).start()
    return reopened, service, server


SCENARIOS = ["clean", "kill-restart", "net-fault"]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("n_daemons", sorted(RANGES))
class TestFleetMatrix:
    def test_federated_fleet_equals_single_daemon(
        self, tmp_path, tiny, wire_spool, baseline, n_daemons, scenario
    ):
        daemons = []
        for i, (lo, hi) in enumerate(RANGES[n_daemons]):
            server_faults = None
            if scenario == "net-fault" and i == 0:
                server_faults = FaultInjector(
                    (
                        Fault("net-500", chunk=1),
                        Fault("net-disconnect", chunk=3),
                        Fault("net-slow", chunk=5),
                    )
                )
            store, service, server = _make_daemon(
                tmp_path / f"daemon-{i}", tiny, faults=server_faults
            )
            spool = _spool_subset(tmp_path / f"spool-{i}", wire_spool, lo, hi)
            daemons.append([store, service, server, spool, (lo, hi)])

        for i, daemon in enumerate(daemons):
            store, service, server, spool, (lo, hi) = daemon
            client_faults = None
            if scenario == "kill-restart" and i == 0:
                store, service, server = _kill_and_restart(
                    i, store, service, server, spool, tiny
                )
                daemon[0], daemon[1], daemon[2] = store, service, server
            if scenario == "net-fault" and i == 0:
                client_faults = FaultInjector((Fault("net-refuse", chunk=0),))
            result = _drain(spool, server, tiny, faults=client_faults)
            assert not result.rejected
            assert spool.pending_seeds() == []

        stores = []
        for store, service, server, spool, (lo, hi) in daemons:
            server.close(drain=True)
            reopened = ShardStore.open(store.directory)
            assert reopened.n_runs == hi - lo
            assert reopened.audit().clean
            stores.append(reopened)

        # Federate the fleet and compare against the lone daemon.
        dest = ShardStore.create_like(
            str(tmp_path / "merged"), stores[0].manifest
        )
        sources = [LocalSource(s.directory) for s in stores]
        report = federate_stores(sources, dest)
        assert report.clean
        assert report.runs_merged == TOTAL_RUNS
        assert_federated_equals_baseline(dest, baseline)
        assert_golden_store(GOLDEN_KEY, dest)
        assert cross_audit(dest, sources).clean

        # And the merge-free analysis path agrees too: summing the
        # daemon stores in place is the same population.
        engine = AnalysisEngine()
        merged = sum(
            (store.sufficient_stats() for store in stores[1:]),
            stores[0].sufficient_stats(),
        )
        direct = engine.store_stats(baseline)
        np.testing.assert_array_equal(merged.F, direct.F)
        np.testing.assert_array_equal(merged.S, direct.S)
        np.testing.assert_array_equal(merged.F_obs, direct.F_obs)
        np.testing.assert_array_equal(merged.S_obs, direct.S_obs)
        assert merged.num_failing == direct.num_failing
        assert merged.num_successful == direct.num_successful


class TestBaselineSanity:
    def test_baseline_matches_serial_collection(self, tmp_path, tiny, baseline):
        """The networked baseline is itself the serial collection."""
        from repro.harness.parallel import run_trials_sharded

        subject, program, plan = tiny
        serial = run_trials_sharded(
            subject, TOTAL_RUNS, plan, str(tmp_path / "serial"), seed=0, jobs=2,
            chunk_size=BATCH_RUNS,
        )
        assert [
            (e.filename, e.sha256) for e in serial.manifest.shards
        ] == [(e.filename, e.sha256) for e in baseline.manifest.shards]
        assert_golden_store(GOLDEN_KEY, serial)
