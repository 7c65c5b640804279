"""One predicate table per store open, and the integrity seam around it.

A shard store decodes at most one predicate table per open: readers pass
the store's table to :func:`repro.core.io.load_reports`, which reuses it
whenever an archive's recorded ``table_sha`` names it.  These tests pin
the decode count, the field-by-field equivalence of the shared-table
read with a plain decode, and that a foreign table is rejected with a
typed error rather than swapped in or mixed with the store's.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.io as core_io
from repro.core.engine import AnalysisEngine
from repro.core.io import file_sha256, load_reports, save_reports
from repro.harness.parallel import run_trials_sharded
from repro.instrument.sampling import SamplingPlan
from repro.serve import CollectionService
from repro.store import ShardIntegrityError, ShardStore
from repro.subjects.ccrypt import CcryptSubject

from tests.conftest import build_synthetic_store
from tests.helpers import make_reports


@pytest.fixture(scope="module")
def ccrypt():
    subject = CcryptSubject()
    return subject, subject.build_program()


@pytest.fixture
def ccrypt_store(tmp_path, ccrypt):
    """A three-shard full-sampling ccrypt store with ground truth."""
    subject, _ = ccrypt
    directory = str(tmp_path / "store")
    run_trials_sharded(
        subject, 60, SamplingPlan.full(), directory, seed=0, jobs=1, chunk_size=20
    )
    return directory


@pytest.fixture
def decodes(monkeypatch):
    """Count calls of the archive table decoder."""
    calls = []
    original = core_io._table_from_json

    def counting(text):
        calls.append(1)
        return original(text)

    monkeypatch.setattr(core_io, "_table_from_json", counting)
    return calls


def _splice_foreign_table(store, index):
    """Overwrite shard ``index`` with a foreign-table archive, re-digested
    so the checksum still passes and only the table is wrong."""
    path = store.shard_paths()[index]
    entry = store.manifest.shards[index]
    alien = make_reports(9, [(True, {0}, None)] * entry.n_runs)
    save_reports(path, alien)
    store.manifest.shards[index] = dataclasses.replace(entry, sha256=file_sha256(path))
    store.manifest.save(store.manifest_path)


class TestDecodeCount:
    def test_daemon_restart_decodes_no_table(self, ccrypt_store, ccrypt, decodes):
        subject, program = ccrypt
        store = ShardStore.open_or_create(
            ccrypt_store, subject.name, program.table, SamplingPlan.full()
        )
        assert store.n_shards >= 3
        service = CollectionService(store, subject, batch_runs=20)
        try:
            assert decodes == []
        finally:
            service.close()

    def test_open_audit_analyze_decodes_one_table(self, ccrypt_store, decodes):
        store = ShardStore.open(ccrypt_store)
        assert store.n_shards >= 3
        assert store.audit().clean
        AnalysisEngine().analyze_store(store)
        store.load_merged()
        assert len(decodes) == 1

    def test_table_first_then_reads_decode_one_table(self, ccrypt_store, decodes):
        store = ShardStore.open(ccrypt_store)
        table = store.table()
        reports, _ = store.load_merged()
        assert reports.table is table
        assert len(decodes) == 1


def _assert_same_read(path, table):
    """``load_reports(path, table=table)`` equals a plain decode, field by field."""
    shared, shared_truth = load_reports(path, table=table)
    plain, plain_truth = load_reports(path)
    assert shared.table is table
    assert plain.table is not table
    assert plain.table.sites == table.sites
    assert plain.table.predicates == table.predicates
    np.testing.assert_array_equal(shared.failed, plain.failed)
    for attr in ("site_counts", "true_counts"):
        a, b = getattr(shared, attr), getattr(plain, attr)
        assert a.shape == b.shape
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.indptr, b.indptr)
    assert shared.stacks == plain.stacks
    np.testing.assert_array_equal(shared.seeds, plain.seeds)
    if plain_truth is None:
        assert shared_truth is None
    else:
        assert shared_truth.bug_ids == plain_truth.bug_ids
        assert shared_truth.occurrences == plain_truth.occurrences


class TestSharedTableEquivalence:
    def test_shared_read_equals_plain_decode(self, tmp_path):
        built, _ = build_synthetic_store(tmp_path / "store", k=3, n_runs=24, n_preds=5)
        store = ShardStore.open(built.directory)
        for path in store.shard_paths():
            _assert_same_read(path, store.table())

    def test_shared_read_equals_plain_decode_with_truth(self, ccrypt_store):
        store = ShardStore.open(ccrypt_store)
        for path in store.shard_paths():
            _assert_same_read(path, store.table())

    def test_merged_population_shares_the_store_table(self, ccrypt_store):
        store = ShardStore.open(ccrypt_store)
        reports, _ = store.load_merged()
        assert reports.table is store.table()
        assert reports.table.signature() == store.manifest.table_sha

    def test_other_signature_is_decoded_not_reused(self, tmp_path):
        store, _ = build_synthetic_store(tmp_path / "store", n_preds=4)
        path = str(tmp_path / "alien.npz")
        alien = make_reports(9, [(True, {0}, None)] * 4)
        save_reports(path, alien)
        reports, _ = load_reports(path, table=store.table())
        assert reports.table is not store.table()
        assert reports.table.signature() == alien.table.signature()


class TestForeignTable:
    def test_load_merged_rejects_spliced_shard(self, ccrypt_store):
        _splice_foreign_table(ShardStore.open(ccrypt_store), 1)
        store = ShardStore.open(ccrypt_store)
        with pytest.raises(ShardIntegrityError) as err:
            store.load_merged()
        assert err.value.filename == store.manifest.shards[1].filename

    def test_wording_matches_streamed_stats(self, ccrypt_store):
        _splice_foreign_table(ShardStore.open(ccrypt_store), 1)
        store = ShardStore.open(ccrypt_store)
        with pytest.raises(ShardIntegrityError) as streamed:
            store.sufficient_stats()
        with pytest.raises(ShardIntegrityError) as read:
            store.load_merged()
        assert read.value.detail == streamed.value.detail

    def test_foreign_first_shard_never_becomes_the_store_table(self, ccrypt_store):
        _splice_foreign_table(ShardStore.open(ccrypt_store), 0)
        store = ShardStore.open(ccrypt_store)
        with pytest.raises(ShardIntegrityError):
            store.load_merged()
        with pytest.raises(ShardIntegrityError):
            store.table()

    def test_service_refuses_spliced_store(self, ccrypt_store, ccrypt):
        subject, program = ccrypt
        _splice_foreign_table(ShardStore.open(ccrypt_store), 2)
        store = ShardStore.open_or_create(
            ccrypt_store, subject.name, program.table, SamplingPlan.full()
        )
        with pytest.raises(ShardIntegrityError):
            CollectionService(store, subject, batch_runs=20)

    def test_audit_still_quarantines_table_mismatch(self, ccrypt_store):
        _splice_foreign_table(ShardStore.open(ccrypt_store), 1)
        store = ShardStore.open(ccrypt_store)
        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["table-mismatch"]
        reports, _ = store.load_merged()
        assert reports.n_runs == store.n_runs == 40
