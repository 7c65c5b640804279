"""A daemon restart seeds its steering refit from the site columns.

``CollectionService`` reads each committed shard's site-matrix CSR
sections (``ShardStore.site_totals``) instead of loading whole report
sets.  The totals must equal the per-run ``site_coverage`` sums exactly,
for every subject and shard layout; a shard whose count matrices are out
of range must stop the restart with a typed error; and the steering
document written at restart must be the one the full reports give.
"""

import dataclasses
import gc
import os
import weakref

import numpy as np
import pytest

from repro.core.io import file_sha256, load_reports
from repro.harness.runner import run_trials
from repro.instrument.sampling import SamplingPlan
from repro.serve import CollectionService, FeedbackServer
from repro.serve.steering import STEERING_NAME, fit_steering, save_steering
from repro.store import ShardCorruptionError, ShardStore
from repro.subjects.bc import BcSubject
from repro.subjects.ccrypt import CcryptSubject
from repro.subjects.exif import ExifSubject
from repro.subjects.moss import MossSubject
from repro.subjects.rhythmbox import RhythmboxSubject

from tests.helpers import (
    archive_header,
    poke_archive_array,
    rewrite_archive_header,
    split_reports,
)

SUBJECTS = {
    "bc": BcSubject,
    "ccrypt": CcryptSubject,
    "exif": ExifSubject,
    "moss": MossSubject,
    "rhythmbox": RhythmboxSubject,
}

N_RUNS = 21


@pytest.fixture(scope="module")
def populations():
    """``name -> (subject, program, reports)``, built on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            subject = SUBJECTS[name]()
            program = subject.build_program()
            reports, _ = run_trials(subject, program, N_RUNS, SamplingPlan.full())
            cache[name] = (subject, program, reports)
        return cache[name]

    return get


def _store(directory, subject, program, reports, k):
    store = ShardStore.create(
        str(directory), subject.name, program.table, SamplingPlan.full()
    )
    seed = 0
    for part in split_reports(reports, k):
        store.append_shard(part, seed_start=seed)
        seed += part.n_runs
    return store


def _restart(directory, subject, program, **kwargs):
    store = ShardStore.open_or_create(
        str(directory), subject.name, program.table, SamplingPlan.full()
    )
    return CollectionService(store, subject, batch_runs=N_RUNS, **kwargs)


def _coverage_totals(store):
    totals = np.zeros(store.table().n_sites, dtype=np.int64)
    for path in store.shard_paths():
        totals += load_reports(path)[0].site_coverage()
    return totals


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_restart_site_totals_equal_site_coverage(tmp_path, populations, name, k):
    subject, program, reports = populations(name)
    store = _store(tmp_path / "store", subject, program, reports, k)
    assert store.n_shards == k
    want = _coverage_totals(ShardStore.open(store.directory))
    np.testing.assert_array_equal(want, reports.site_coverage())

    service = _restart(tmp_path / "store", subject, program, steering=False)
    try:
        assert service._site_totals.dtype == np.int64
        np.testing.assert_array_equal(service._site_totals, want)
    finally:
        service.close()


@pytest.mark.parametrize(
    "section, value",
    [
        ("sites_indices", 10**6),
        ("sites_indices", -1),
        ("preds_indices", 10**6),
        ("sites_indptr", 10**6),
    ],
    ids=["site-index-past-end", "negative-site-index", "predicate-index-past-end",
         "site-indptr-decreases"],
)
def test_restart_refuses_out_of_range_sections(tmp_path, populations, section, value):
    """The statistics stream reads no matrix section, so the site-column
    read is the restart's first sight of them: it must raise a typed
    error, even when the damaged shard carries a matching digest."""
    subject, program, reports = populations("ccrypt")
    store = _store(tmp_path / "store", subject, program, reports, 3)
    path = store.shard_paths()[1]
    poke_archive_array(path, section, 3, value)
    store.manifest.shards[1] = dataclasses.replace(
        store.manifest.shards[1], sha256=file_sha256(path)
    )
    store.manifest.save(store.manifest_path)
    with pytest.raises(ShardCorruptionError) as err:
        _restart(tmp_path / "store", subject, program)
    assert err.value.filename == os.path.basename(path)


def _widen_site_matrix(path):
    rows, cols = archive_header(path)["sites_shape"]
    rewrite_archive_header(path, sites_shape=[rows, cols + 1])


def _float_site_counts(path):
    arrays = archive_header(path)["arrays"]
    spec = arrays["sites_data"]
    arrays["sites_data"] = {**spec, "dtype": f"<f{np.dtype(spec['dtype']).itemsize}"}
    rewrite_archive_header(path, arrays=arrays)


@pytest.mark.parametrize(
    "damage, match",
    [(_widen_site_matrix, "site matrix has"), (_float_site_counts, "not integers")],
    ids=["site-column-count", "float-site-counts"],
)
def test_site_totals_refuse_a_malformed_site_matrix(tmp_path, populations, damage, match):
    """A site matrix that passes the CSR checks but is not the table's --
    another column count, or counts that are not integers -- cannot be
    summed into the store's site totals, by a reader or at a restart."""
    subject, program, reports = populations("ccrypt")
    store = _store(tmp_path / "store", subject, program, reports, 3)
    path = store.shard_paths()[1]
    damage(path)
    store.manifest.shards[1] = dataclasses.replace(
        store.manifest.shards[1], sha256=file_sha256(path)
    )
    store.manifest.save(store.manifest_path)
    with pytest.raises(ShardCorruptionError, match=match) as err:
        ShardStore.open(store.directory).site_totals()
    assert err.value.filename == os.path.basename(path)
    with pytest.raises(ShardCorruptionError, match=match) as err:
        _restart(tmp_path / "store", subject, program)
    assert err.value.filename == os.path.basename(path)


def test_restart_over_an_unchanged_store_keeps_the_steering_file(tmp_path, populations):
    """The restart refits the document the last daemon persisted; the
    file already holding those bytes is not rewritten."""
    subject, program, reports = populations("ccrypt")
    store = _store(tmp_path / "store", subject, program, reports, 3)
    _restart(tmp_path / "store", subject, program, refit_runs=N_RUNS).close()
    path = os.path.join(store.directory, STEERING_NAME)
    before = os.stat(path)
    with open(path, "rb") as handle:
        persisted = handle.read()
    _restart(tmp_path / "store", subject, program, refit_runs=N_RUNS).close()
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    with open(path, "rb") as handle:
        assert handle.read() == persisted


def test_restart_steering_document_equals_full_read_refit(tmp_path, populations):
    subject, program, reports = populations("ccrypt")
    store = _store(tmp_path / "store", subject, program, reports, 3)
    service = _restart(tmp_path / "store", subject, program, refit_runs=N_RUNS)
    service.close()
    with open(os.path.join(store.directory, STEERING_NAME), "rb") as handle:
        restarted = handle.read()

    snapshot = ShardStore.open(store.directory)
    document = fit_steering(
        snapshot,
        subject.name,
        _coverage_totals(snapshot),
        watchlist_k=service.watchlist_k,
        measure=service.steering_measure,
        policy=service.stopping,
    )
    offline = tmp_path / "offline"
    offline.mkdir()
    with open(save_steering(str(offline), document), "rb") as handle:
        assert handle.read() == restarted


def test_closed_daemon_releases_its_store(tmp_path, populations):
    """A closed server, its service and its store are freed as soon as
    the caller drops them, not at the next full garbage collection."""
    subject, program, reports = populations("ccrypt")
    _store(tmp_path / "store", subject, program, reports, 3)
    service = _restart(tmp_path / "store", subject, program)
    server = FeedbackServer(service, port=0).start()
    store = weakref.ref(service.store)
    server.close(drain=False)
    gc.disable()
    try:
        del server, service
        assert store() is None
    finally:
        gc.enable()
