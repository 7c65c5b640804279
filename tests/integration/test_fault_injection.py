"""Acceptance tests for fault-tolerant sharded collection.

The pinned property: SIGKILL one worker and corrupt one shard
mid-collection; the run completes, quarantines exactly the bad shard,
retries the lost seed range, and the final ``Importance`` scores are
bit-identical to an uninjected run with the same seeds.
"""

import numpy as np
import pytest

from repro.core.io import Archive
from repro.core.importance import importance_scores
from repro.core.scores import SufficientStats
from repro.store import Fault, StaleManifestError

from tests.conftest import collect_tiny_store

#: 120 trials in 4 chunks of 30, under genuine (uniform) sampling so the
#: retried chunks must reproduce the sampler decision stream exactly.
_N_RUNS = 120
_CHUNK = 30


def _collect(tmp_path, name, faults=()):
    return collect_tiny_store(
        tmp_path / name,
        n_runs=_N_RUNS,
        chunk_size=_CHUNK,
        faults=faults,
    )


class TestKillAndCorruptAcceptance:
    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("fault-acceptance")
        faults = (Fault("kill-worker", chunk=1), Fault("flip-bytes", chunk=2))
        injected = _collect(tmp_path, "injected", faults=faults)
        clean = _collect(tmp_path, "clean")
        return injected, clean

    def test_run_completes_despite_faults(self, stores):
        injected, _ = stores
        assert injected.n_shards == _N_RUNS // _CHUNK
        assert injected.n_runs == _N_RUNS
        report = injected.last_collection
        assert report.worker_deaths == 1
        assert report.corrupt_shards == 1
        assert report.retries == 2
        assert report.attempts == report.n_chunks + report.retries

    def test_exactly_the_bad_shard_is_quarantined(self, stores):
        injected, _ = stores
        records = injected.quarantined()
        assert len(records) == 1
        (record,) = records
        assert record["reason"] == "failed-verification"
        # flip-bytes hit chunk 2, whose seed range starts at 60.
        assert record["seed_start"] == 2 * _CHUNK
        assert "checksum mismatch" in record["detail"]

    def test_lost_seed_ranges_were_retried(self, stores):
        injected, _ = stores
        events = injected.read_log()
        retried = [e for e in events if e["event"] == "chunk-retry"]
        assert {e["chunk"] for e in retried} == {1, 2}
        # Both chunks eventually committed.
        committed = [e for e in events if e["event"] == "commit"]
        assert len(committed) == _N_RUNS // _CHUNK

    def test_importance_bit_identical_to_uninjected_run(self, stores):
        injected, clean = stores
        a = importance_scores(injected.sufficient_stats().to_scores())
        b = importance_scores(clean.sufficient_stats().to_scores())
        np.testing.assert_array_equal(a.importance, b.importance)
        np.testing.assert_array_equal(a.sensitivity, b.sensitivity)
        np.testing.assert_array_equal(a.lo, b.lo)
        np.testing.assert_array_equal(a.hi, b.hi)

    def test_merged_population_identical_to_uninjected_run(self, stores):
        injected, clean = stores
        a, a_truth = injected.load_merged()
        b, b_truth = clean.load_merged()
        assert a.failed.tolist() == b.failed.tolist()
        assert (a.true_counts != b.true_counts).nnz == 0
        assert (a.site_counts != b.site_counts).nnz == 0
        assert a.stacks == b.stacks
        assert a_truth.occurrences == b_truth.occurrences


class TestGracefulDegradation:
    def test_post_commit_loss_is_quarantined_not_fatal(self, tmp_path):
        """stale-manifest deletes a committed shard; audit() downgrades
        the loss to a quarantine record and scoring proceeds over the
        survivors, bit-identical to a clean collection of just those
        seed ranges."""
        store = _collect(
            tmp_path, "stale", faults=(Fault("stale-manifest", chunk=1),)
        )
        with pytest.raises(StaleManifestError, match="audit"):
            store.sufficient_stats()

        audit = store.audit()
        assert [r.reason for r in audit.quarantined] == ["missing-file"]
        assert audit.runs_lost == _CHUNK
        assert store.n_runs == _N_RUNS - _CHUNK

        # Survivors score exactly like the same shards of a clean run.
        clean = _collect(tmp_path, "clean")
        expected = None
        for entry, path in zip(clean.manifest.shards, clean.shard_paths()):
            if entry.seed_start == _CHUNK:  # the lost range
                continue
            F, S, F_obs, S_obs, nf, ns = Archive(path).stats()
            part = SufficientStats(F, S, F_obs, S_obs, nf, ns)
            # v3 stats are read-only mmap views; seed a writable copy.
            expected = part.materialized() if expected is None else expected.add(part)
        got = store.sufficient_stats()
        np.testing.assert_array_equal(got.F, expected.F)
        np.testing.assert_array_equal(got.S, expected.S)
        np.testing.assert_array_equal(got.F_obs, expected.F_obs)
        np.testing.assert_array_equal(got.S_obs, expected.S_obs)
        assert got.num_failing == expected.num_failing
        assert got.num_successful == expected.num_successful

    def test_duplicate_upload_surfaces_as_orphan_never_counts(self, tmp_path):
        """duplicate-shard lands an unregistered copy in the directory;
        it is reported by audit but never double-counted."""
        store = _collect(
            tmp_path, "dup", faults=(Fault("duplicate-shard", chunk=0),)
        )
        assert store.n_runs == _N_RUNS  # the copy was never counted
        audit = store.audit()
        assert audit.quarantined == []
        assert audit.orphans == ["shard-00000000-dup.npz"]
        # Scores are unaffected by the orphan's presence.
        clean = _collect(tmp_path, "clean")
        np.testing.assert_array_equal(
            importance_scores(store.sufficient_stats().to_scores()).importance,
            importance_scores(clean.sufficient_stats().to_scores()).importance,
        )
