"""One header parse per committed shard per store, never a stale one.

A :class:`~repro.store.ShardStore` keeps the header bytes it last parsed
for each committed shard together with their parse, and reuses the
parse only when a later read slices the very same bytes.  These tests
pin the parse count of the two hot paths (``open`` + ``audit`` +
``analyze_store``, and a daemon restart) and that rewritten or damaged
bytes are read afresh rather than served from the memo.
"""

import dataclasses
import os
import shutil

import numpy as np
import pytest

import repro.core.io as core_io
from repro.core.engine import AnalysisEngine
from repro.core.io import file_sha256, load_reports
from repro.harness.parallel import run_trials_sharded
from repro.instrument.sampling import SamplingPlan
from repro.serve import CollectionService
from repro.store import ShardCorruptionError, ShardStore
from repro.subjects.ccrypt import CcryptSubject


@pytest.fixture(scope="module")
def ccrypt():
    subject = CcryptSubject()
    return subject, subject.build_program()


def _collect(directory, ccrypt, seed, n_runs):
    subject, _ = ccrypt
    run_trials_sharded(
        subject, n_runs, SamplingPlan.full(), str(directory), seed=seed, jobs=1,
        chunk_size=20,
    )
    return str(directory)


@pytest.fixture
def ccrypt_store(tmp_path, ccrypt):
    """A three-shard full-sampling ccrypt store with ground truth."""
    return _collect(tmp_path / "store", ccrypt, seed=0, n_runs=60)


@pytest.fixture
def parses(monkeypatch):
    """Count calls of the archive header parser."""
    calls = []
    original = core_io._parse_header

    def counting(raw):
        calls.append(1)
        return original(raw)

    monkeypatch.setattr(core_io, "_parse_header", counting)
    return calls


def _site_totals_by_reports(store):
    totals = np.zeros(store.table().n_sites, dtype=np.int64)
    for path in store.shard_paths():
        totals += load_reports(path)[0].site_coverage()
    return totals


def _assert_stats_equal(a, b):
    for name in ("F", "S", "F_obs", "S_obs"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert (a.num_failing, a.num_successful) == (b.num_failing, b.num_successful)


class TestParseCount:
    def test_open_audit_analyze_parses_each_header_once(self, ccrypt_store, parses):
        store = ShardStore.open(ccrypt_store)
        assert store.n_shards == 3
        assert store.audit().clean
        AnalysisEngine().analyze_store(store)
        assert len(parses) == store.n_shards

    def test_daemon_restart_parses_each_header_once(self, ccrypt_store, ccrypt, parses):
        subject, program = ccrypt
        store = ShardStore.open_or_create(
            ccrypt_store, subject.name, program.table, SamplingPlan.full()
        )
        service = CollectionService(store, subject, batch_runs=20)
        try:
            assert len(parses) == store.n_shards
            # The daemon reads no shard after its restart, so it keeps
            # no header copies for its lifetime.
            assert store._headers == {}
        finally:
            service.close()

    def test_every_read_after_the_first_reuses_the_parse(self, ccrypt_store, parses):
        store = ShardStore.open(ccrypt_store)
        store.sufficient_stats()
        store.site_totals()
        store.load_merged()
        store.load_columns(np.ones(store.table().n_predicates, dtype=bool))
        assert len(parses) == store.n_shards

    def test_a_new_store_parses_again(self, ccrypt_store, parses):
        ShardStore.open(ccrypt_store).sufficient_stats()
        ShardStore.open(ccrypt_store).sufficient_stats()
        assert len(parses) == 2 * 3


class TestStaleness:
    def test_rewritten_shard_is_read_fresh(self, tmp_path, ccrypt_store, ccrypt, parses):
        """Shard 1 is replaced by another seed range's bytes (same table,
        same run count) and its entry's digest and failing count are
        rewritten between two reads of one store: the second read must
        see the new bytes, not the memo."""
        other = _collect(tmp_path / "other", ccrypt, seed=100, n_runs=20)
        parses.clear()  # the collector checks its staged shards
        store = ShardStore.open(ccrypt_store)
        before = store.sufficient_stats()
        sites_before = store.site_totals()
        assert len(parses) == 3

        path = store.shard_paths()[1]
        swapped = ShardStore.open(other)
        shutil.copyfile(swapped.shard_paths()[0], path)
        store.manifest.shards[1] = dataclasses.replace(
            store.manifest.shards[1],
            sha256=file_sha256(path),
            num_failing=swapped.manifest.shards[0].num_failing,
        )
        store.manifest.save(store.manifest_path)
        parses.clear()

        assert store.audit().clean
        after = store.sufficient_stats()
        sites_after = store.site_totals()
        assert len(parses) == 1  # only the rewritten header
        fresh = ShardStore.open(ccrypt_store)
        _assert_stats_equal(after, fresh.sufficient_stats())
        np.testing.assert_array_equal(sites_after, _site_totals_by_reports(fresh))
        assert not np.array_equal(after.F, before.F)
        assert not np.array_equal(sites_after, sites_before)

    def test_flipped_header_byte_is_corruption_on_the_next_read(self, ccrypt_store):
        store = ShardStore.open(ccrypt_store)
        store.sufficient_stats()
        store.site_totals()
        path = store.shard_paths()[2]
        with open(path, "r+b") as handle:
            handle.seek(16)  # the header's opening brace
            assert handle.read(1) == b"{"
            handle.seek(16)
            handle.write(b"}")
        for read in (store.sufficient_stats, store.site_totals, store.load_merged):
            with pytest.raises(ShardCorruptionError) as err:
                read()
            assert err.value.filename == os.path.basename(path)

    def test_quarantine_drops_the_memo_entry(self, ccrypt_store):
        store = ShardStore.open(ccrypt_store)
        store.sufficient_stats()
        path = store.shard_paths()[0]
        with open(path, "r+b") as handle:
            handle.seek(16)
            handle.write(b"}")
        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["checksum-mismatch"]
        assert path not in store._headers
        assert store.n_shards == 2
