"""Corruption-handling tests: archive-loader fuzzing, the commit
protocol's crash windows, audit reason codes, and fault-spec parsing.

Every way a shard directory can be damaged must surface as a typed error
or a quarantine record -- never a silent mis-count.
"""

import builtins
import dataclasses
import errno
import json
import os
import pickle
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.io import (
    Archive,
    ArchiveCorruptError,
    ArchiveError,
    ArchiveVersionError,
    file_sha256,
    load_reports,
    save_reports,
)
from repro.core.scores import SufficientStats
from repro.federate import FederationFetchError, LocalSource
from repro.store import (
    DuplicateSeedRangeError,
    Fault,
    FaultInjector,
    ShardCorruptionError,
    ShardIntegrityError,
    ShardStore,
    StaleManifestError,
    StoreError,
    parse_faults,
)
from repro.store.errors import ManifestError, ShardCheckError
from repro.store.faults import damage_flip_bytes, damage_truncate, parse_fault
from repro.store.manifest import ShardEntry, ShardManifest
from repro.store.shards import PENDING_SUFFIX, check_shard, shard_filename

from tests.conftest import build_synthetic_store, collect_tiny_store
from tests.helpers import make_population as _population
from tests.helpers import (
    archive_header,
    make_reports,
    poke_archive_array,
    rewrite_archive_header,
    shorten_archive_stats,
)


def _build_store(tmp_path, k=3, n_runs=24, n_preds=4, seed=0):
    """A store of ``k`` seeded shards plus the monolithic population."""
    return build_synthetic_store(
        tmp_path / "store", k=k, n_runs=n_runs, n_preds=n_preds, seed=seed
    )


def read_stats(path):
    """The statistics stream's read of the archive at ``path``."""
    return Archive(path).stats()


def read_table(path):
    """The predicate-table read of the archive at ``path``."""
    return Archive(path).table()


def _shard_stats(path):
    F, S, F_obs, S_obs, nf, ns = read_stats(path)
    # v3 stats come back as read-only file-mapping views; materialize so
    # the accumulating .add() calls below may mutate in place.
    return SufficientStats(F, S, F_obs, S_obs, nf, ns).materialized()


def _assert_stats_equal(a, b):
    np.testing.assert_array_equal(a.F, b.F)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.F_obs, b.F_obs)
    np.testing.assert_array_equal(a.S_obs, b.S_obs)
    assert a.num_failing == b.num_failing
    assert a.num_successful == b.num_successful


class TestLoaderFuzz:
    """The archive loader must turn every damage class into a typed error."""

    def _archive(self, tmp_path, n_runs=12):
        whole = _population(n_runs=n_runs)
        path = str(tmp_path / "reports.npz")
        save_reports(path, whole)
        return path

    @pytest.mark.parametrize("loader", [load_reports, read_stats])
    def test_truncated_archive(self, tmp_path, loader):
        path = self._archive(tmp_path)
        damage_truncate(path, keep_fraction=0.5)
        with pytest.raises(ArchiveCorruptError):
            loader(path)

    @pytest.mark.parametrize("loader", [load_reports, read_stats])
    def test_flipped_bytes(self, tmp_path, loader):
        path = self._archive(tmp_path)
        # Invert nearly the whole body so every member is damaged.
        damage_flip_bytes(path, n_bytes=os.path.getsize(path) - 64)
        with pytest.raises(ArchiveCorruptError):
            loader(path)

    @pytest.mark.parametrize("loader", [load_reports, read_stats])
    def test_garbage_bytes(self, tmp_path, loader):
        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as fh:
            fh.write(b"this is not a zip archive at all" * 8)
        with pytest.raises(ArchiveCorruptError):
            loader(path)

    @pytest.mark.parametrize("loader", [load_reports, read_stats])
    def test_empty_file(self, tmp_path, loader):
        path = str(tmp_path / "empty.npz")
        open(path, "wb").close()
        with pytest.raises(ArchiveCorruptError):
            loader(path)

    @pytest.mark.parametrize("loader", [load_reports, read_stats])
    def test_missing_file(self, tmp_path, loader):
        with pytest.raises(FileNotFoundError):
            loader(str(tmp_path / "absent.npz"))

    @pytest.mark.parametrize("loader", [load_reports, read_stats])
    def test_unsupported_version(self, tmp_path, loader):
        path = self._archive(tmp_path)
        rewrite_archive_header(path, format_version=99)
        with pytest.raises(ArchiveVersionError, match="version 99"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_reports, read_table, read_stats])
    def test_npz_archive_refused(self, tmp_path, loader):
        """A retired v1/v2 ``.npz`` archive is a version error, not
        corruption: its runs must be re-collected."""
        path = str(tmp_path / "legacy.npz")
        with open(path, "wb") as fh:
            np.savez_compressed(fh, format_version=np.asarray([2]))
        with pytest.raises(ArchiveVersionError, match="no longer read.*re-collect"):
            loader(path)

    def test_typed_errors_remain_value_errors(self):
        """Back-compat: pre-existing callers catch ValueError."""
        assert issubclass(ArchiveError, ValueError)
        assert issubclass(ArchiveCorruptError, ArchiveError)
        assert issubclass(ArchiveVersionError, ArchiveError)

    def test_corruption_cause_is_preserved(self, tmp_path):
        path = self._archive(tmp_path)
        damage_truncate(path, keep_fraction=0.3)
        with pytest.raises(ArchiveCorruptError) as info:
            load_reports(path)
        assert info.value.__cause__ is not None


def _reshape_section(path, name, shape):
    """Declare ``shape`` for section ``name`` (bytes unchanged)."""
    arrays = archive_header(path)["arrays"]
    spec = arrays[name]
    itemsize = np.dtype(spec["dtype"]).itemsize
    arrays[name] = {**spec, "shape": shape, "nbytes": int(np.prod(shape)) * itemsize}
    rewrite_archive_header(path, arrays=arrays)


def _retype_section(path, name, dtype):
    arrays = archive_header(path)["arrays"]
    arrays[name] = {**arrays[name], "dtype": dtype}
    rewrite_archive_header(path, arrays=arrays)


class TestCsrSections:
    """Count-matrix sections that do not describe their matrix are
    corruption: scipy does not check them, and reading such a matrix
    crashes the interpreter or raises a bare IndexError."""

    def _archive(self, tmp_path):
        path = str(tmp_path / "reports.npz")
        save_reports(path, _population(n_runs=12))
        return path

    @pytest.mark.parametrize(
        "damage, match, stats_match",
        [
            (lambda p, h: poke_archive_array(p, "preds_indices", 0, 4), "outside", None),
            (lambda p, h: poke_archive_array(p, "sites_indices", 0, -5), "outside", None),
            (lambda p, h: poke_archive_array(p, "preds_indptr", 0, 1), "spans", None),
            (lambda p, h: poke_archive_array(p, "preds_indptr", 12, 0), "spans", None),
            (
                lambda p, h: poke_archive_array(p, "preds_indptr", 6, 10**6),
                "decreases",
                None,
            ),
            (
                lambda p, h: rewrite_archive_header(p, preds_shape=[13, 4]),
                "entries for 13 rows",
                "matrices of 12 and 13 rows",
            ),
            (
                lambda p, h: rewrite_archive_header(p, preds_shape=[12, -1]),
                "invalid shape",
                "for a matrix of -1 predicate columns",
            ),
            (
                lambda p, h: _reshape_section(
                    p, "preds_data", [h["arrays"]["preds_data"]["shape"][0] - 1]
                ),
                "values but",
                None,
            ),
            (
                lambda p, h: _reshape_section(
                    p, "preds_indices", h["arrays"]["preds_indices"]["shape"] + [1]
                ),
                "one-dimensional",
                None,
            ),
            (lambda p, h: _retype_section(p, "preds_indices", "<f4"), "not integers", None),
            (lambda p, h: _reshape_section(p, "failed", [11]), "run count", None),
            (
                lambda p, h: shorten_archive_stats(p),
                "statistic section",
                "statistic section",
            ),
        ],
        ids=["index-past-end", "negative-index", "indptr-start", "indptr-end",
             "indptr-decreases", "indptr-length", "negative-shape",
             "data-length", "two-dimensional", "float-indices", "outcome-count",
             "stats-length"],
    )
    def test_malformed_sections_are_corruption(self, tmp_path, damage, match, stats_match):
        path = self._archive(tmp_path)
        damage(path, archive_header(path))
        with pytest.raises(ArchiveCorruptError, match=match):
            load_reports(path)
        if stats_match is None:
            # The statistics stream reads only the leading pages.
            read_stats(path)
        else:
            # A header that contradicts itself is refused by the
            # statistics stream too: its checks read the header only.
            with pytest.raises(ArchiveCorruptError, match=stats_match):
                read_stats(path)

    def test_column_read_checks_masks_against_the_archive(self, tmp_path):
        """A header whose matrix shape disagrees with its own table
        cannot be indexed by masks over that table."""
        path = self._archive(tmp_path)
        header = archive_header(path)
        rewrite_archive_header(path, preds_shape=[12, 5])
        keep = np.ones(4, dtype=bool)
        assert header["preds_shape"] == [12, 4]
        with pytest.raises(ArchiveCorruptError, match="column mask"):
            Archive(path).columns(keep, keep)


@pytest.fixture(scope="module")
def rhythmbox_store(tmp_path_factory):
    from repro.harness.parallel import run_trials_sharded
    from repro.instrument.sampling import SamplingPlan
    from repro.subjects.rhythmbox import RhythmboxSubject

    directory = str(tmp_path_factory.mktemp("rhythmbox") / "store")
    run_trials_sharded(
        RhythmboxSubject(), 60, SamplingPlan.full(), directory, jobs=1, chunk_size=20
    )
    return directory


#: ``preds_indices`` values a hostile source can commit under a valid
#: digest: one past the last column, far past it, and negative.
_HOSTILE_INDICES = ["n_predicates", 10**9, -5]


def _hostile_store(rhythmbox_store, tmp_path, value):
    """A copy of the rhythmbox store whose second shard holds ``value``
    as a predicate column index, re-digested so only the check on the
    sections can catch it."""
    directory = str(tmp_path / "store")
    shutil.copytree(rhythmbox_store, directory)
    store = ShardStore.open(directory)
    if value == "n_predicates":
        value = store.table().n_predicates
    entry = store.manifest.shards[1]
    path = os.path.join(directory, entry.filename)
    poke_archive_array(path, "preds_indices", 7, value)
    store.manifest.shards[1] = dataclasses.replace(entry, sha256=file_sha256(path))
    store.manifest.save(store.manifest_path)
    return directory, entry.filename


@pytest.mark.parametrize("value", _HOSTILE_INDICES, ids=["one-past", "huge", "negative"])
class TestHostileColumnIndex:
    def test_load_reports_raises(self, rhythmbox_store, tmp_path, value):
        directory, filename = _hostile_store(rhythmbox_store, tmp_path, value)
        with pytest.raises(ArchiveCorruptError, match="outside"):
            load_reports(os.path.join(directory, filename))

    def test_audit_quarantines_unreadable(self, rhythmbox_store, tmp_path, value):
        directory, filename = _hostile_store(rhythmbox_store, tmp_path, value)
        report = ShardStore.open(directory).audit()
        assert [(r.filename, r.reason) for r in report.quarantined] == [
            (filename, "unreadable")
        ]

    def test_analyze_store_raises(self, rhythmbox_store, tmp_path, value):
        """In a child interpreter: reading the unchecked matrix used to
        abort the process, which would take the test run with it."""
        directory, filename = _hostile_store(rhythmbox_store, tmp_path, value)
        script = textwrap.dedent(
            """
            import sys
            from repro.core.engine import AnalysisEngine
            from repro.store import ShardCorruptionError, ShardStore
            try:
                AnalysisEngine().analyze_store(ShardStore.open(sys.argv[1]))
            except ShardCorruptionError as exc:
                print(exc.reason, exc.filename)
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", script, directory],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["unreadable", filename]


class TestCommitProtocol:
    """The manifest append is the commit point; every crash window on
    either side of it is repaired by recover()."""

    def test_crash_before_commit_rolls_back(self, tmp_path):
        store, whole = _build_store(tmp_path)
        staged = os.path.join(store.directory, shard_filename(99) + PENDING_SUFFIX)
        save_reports(staged, _population(n_runs=4, seed=9))

        reopened = ShardStore.open(store.directory)
        forward, back = reopened.recover()
        assert forward == []
        assert back == [shard_filename(99) + PENDING_SUFFIX]
        assert not os.path.exists(staged)
        assert reopened.n_runs == whole.n_runs  # range was never counted

    def test_crash_after_commit_rolls_forward(self, tmp_path):
        store, whole = _build_store(tmp_path, n_runs=24)
        part = _population(n_runs=4, seed=9)
        filename = shard_filename(24)
        staged = os.path.join(store.directory, filename + PENDING_SUFFIX)
        save_reports(staged, part)
        # Simulate dying between the manifest append and the rename.
        store.register_shard(
            ShardEntry(
                n_runs=part.n_runs,
                num_failing=part.num_failing,
                seed_start=24,
                sha256=file_sha256(staged),
            )
        )

        reopened = ShardStore.open(store.directory)
        forward, back = reopened.recover()
        assert forward == [filename] and back == []
        assert os.path.exists(os.path.join(store.directory, filename))
        assert not os.path.exists(staged)
        assert reopened.audit().clean
        assert reopened.n_runs == whole.n_runs + part.n_runs

    def test_interrupted_append_never_counts(self, tmp_path, monkeypatch):
        """An append that dies at the commit point leaves the store's
        counts unchanged and only an uncommitted pending file behind."""
        store, whole = _build_store(tmp_path)

        def crash(entry):
            raise RuntimeError("simulated crash at the commit point")

        monkeypatch.setattr(store, "register_shard", crash)
        with pytest.raises(RuntimeError, match="commit point"):
            store.append_shard(_population(n_runs=4, seed=5, first_seed=24), seed_start=24)
        monkeypatch.undo()

        reopened = ShardStore.open(store.directory)
        assert reopened.n_runs == whole.n_runs
        _, back = reopened.recover()
        assert back == [shard_filename(24) + PENDING_SUFFIX]
        # The seed range is free again: the append can simply be retried.
        reopened._table = whole.table
        reopened.append_shard(_population(n_runs=4, seed=5, first_seed=24), seed_start=24)
        assert reopened.n_runs == whole.n_runs + 4

    def test_commit_without_pending_file_rejected(self, tmp_path):
        store, _ = _build_store(tmp_path)
        with pytest.raises(FileNotFoundError, match="pending"):
            store.commit_shard(
                ShardEntry(seed_start=99, n_runs=1, num_failing=0, sha256="0" * 64)
            )

    def test_recover_is_idempotent(self, tmp_path):
        store, _ = _build_store(tmp_path)
        assert store.recover() == ([], [])
        assert store.recover() == ([], [])

    def test_overlapping_registration_rejected(self, tmp_path):
        store, _ = _build_store(tmp_path, k=3, n_runs=24)  # shards at 0, 8, 16
        with pytest.raises(DuplicateSeedRangeError, match="double-count"):
            store.append_shard(_population(n_runs=8, seed=2, first_seed=4), seed_start=4)

    def test_store_errors_share_a_base(self):
        for exc in (
            ShardCorruptionError("f", "d"),
            ShardIntegrityError("f", "d"),
            DuplicateSeedRangeError("d"),
            StaleManifestError("d"),
        ):
            assert isinstance(exc, StoreError)


class TestAuditQuarantine:
    """audit() turns every damage class into the right reason code and
    scoring over the survivors stays exact."""

    def test_flipped_shard_quarantined_by_checksum(self, tmp_path):
        store, _ = _build_store(tmp_path)
        paths = store.shard_paths()
        survivors = _shard_stats(paths[0]).add(_shard_stats(paths[2]))
        damage_flip_bytes(paths[1], n_bytes=32)

        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["checksum-mismatch"]
        assert report.runs_lost == 8
        assert store.n_shards == 2
        name = os.path.basename(paths[1])
        assert os.path.exists(os.path.join(store.quarantine_dir, name))
        assert not os.path.exists(paths[1])
        _assert_stats_equal(store.sufficient_stats(), survivors)

    def test_missing_shard_quarantined(self, tmp_path):
        store, _ = _build_store(tmp_path)
        os.unlink(store.shard_paths()[0])
        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["missing-file"]
        assert store.n_shards == 2
        store.sufficient_stats()  # analysis proceeds over survivors

    def test_unreadable_shard_under_matching_digest_quarantined(self, tmp_path):
        """A truncated shard whose entry was re-digested to match it
        passes the checksum and is caught by readability."""
        store, _ = _build_store(tmp_path)
        path = store.shard_paths()[1]
        damage_truncate(path, keep_fraction=0.4)
        store.manifest.shards[1] = dataclasses.replace(
            store.manifest.shards[1], sha256=file_sha256(path)
        )
        store.manifest.save(store.manifest_path)
        report = ShardStore.open(store.directory).audit()
        assert [r.reason for r in report.quarantined] == ["unreadable"]

    def test_entry_without_digest_refused_at_open(self, tmp_path):
        """A manifest entry with no digest cannot be checked, so no
        opener accepts it: the manifest check refuses it, typed."""
        store, _ = _build_store(tmp_path)
        with open(store.manifest_path) as fh:
            document = json.load(fh)
        del document["shards"][1]["sha256"]
        with open(store.manifest_path, "w") as fh:
            json.dump(document, fh)
        with pytest.raises(ManifestError) as info:
            ShardStore.open(store.directory)
        assert (info.value.field, info.value.entry) == (
            "sha256", repr(shard_filename(8))
        )

    def test_npz_shard_quarantined_unreadable(self, tmp_path):
        """A retired ``.npz`` archive planted under a committed shard's
        name is quarantined as unreadable; the survivors still score."""
        store, _ = _build_store(tmp_path)
        paths = store.shard_paths()
        survivors = _shard_stats(paths[0]).add(_shard_stats(paths[2]))
        with open(paths[1], "wb") as fh:
            np.savez_compressed(fh, format_version=np.asarray([2]))
        store.manifest.shards[1] = dataclasses.replace(
            store.manifest.shards[1], sha256=file_sha256(paths[1])
        )
        store.manifest.save(store.manifest_path)
        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["unreadable"]
        assert "no longer read" in report.quarantined[0].detail
        _assert_stats_equal(store.sufficient_stats(), survivors)

    def test_alien_table_quarantined(self, tmp_path):
        store, _ = _build_store(tmp_path, n_preds=4)
        path = store.shard_paths()[1]
        alien = make_reports(9, [(True, {0}, None)] * 8)
        save_reports(path, alien)
        store.manifest.shards[1] = dataclasses.replace(
            store.manifest.shards[1], sha256=file_sha256(path)
        )
        store.manifest.save(store.manifest_path)
        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["table-mismatch"]

    def test_run_count_disagreement_quarantined(self, tmp_path):
        store, _ = _build_store(tmp_path)
        entry = store.manifest.shards[1]
        store.manifest.shards[1] = dataclasses.replace(entry, n_runs=entry.n_runs + 1)
        store.manifest.save(store.manifest_path)
        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["count-mismatch"]

    def test_duplicate_seed_range_quarantined(self, tmp_path):
        """A manifest that somehow carries overlapping ranges (e.g. two
        racing sessions) keeps the first and quarantines the second."""
        store, _ = _build_store(tmp_path, k=3, n_runs=24)
        first = store.manifest.shards[0]
        dup_name = shard_filename(4)
        shutil.copyfile(
            store.shard_paths()[0], os.path.join(store.directory, dup_name)
        )
        store.manifest.shards.append(dataclasses.replace(first, seed_start=4))
        store.manifest.save(store.manifest_path)

        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["duplicate-seed-range"]
        assert [r.filename for r in report.quarantined] == [dup_name]
        assert store.manifest.find(first.filename) is not None

    def test_orphan_files_reported_never_counted(self, tmp_path):
        store, _ = _build_store(tmp_path)
        orphan = "shard-99999999.npz"
        shutil.copyfile(
            store.shard_paths()[0], os.path.join(store.directory, orphan)
        )
        before = store.n_runs
        report = store.audit()
        assert report.quarantined == []
        assert report.orphans == [orphan]
        assert store.n_runs == before

    def test_reason_record_is_machine_readable(self, tmp_path):
        store, _ = _build_store(tmp_path)
        damage_flip_bytes(store.shard_paths()[1], n_bytes=32)
        store.audit()
        records = store.quarantined()
        assert len(records) == 1
        (record,) = records
        assert record["reason"] == "checksum-mismatch"
        assert record["seed_start"] == 8
        assert record["n_runs"] == 8
        assert record["quarantined_at"] > 0
        reason_path = os.path.join(
            store.quarantine_dir, record["filename"] + ".reason.json"
        )
        with open(reason_path) as fh:
            assert json.load(fh) == record

    def test_audit_is_idempotent(self, tmp_path):
        store, _ = _build_store(tmp_path)
        damage_flip_bytes(store.shard_paths()[1], n_bytes=32)
        first = store.audit()
        assert not first.clean
        second = store.audit()
        assert second.clean
        assert second.checked == 2

    def test_failed_manifest_save_keeps_the_first_reason(self, tmp_path, monkeypatch):
        """An audit that dies saving the trimmed manifest has moved
        nothing, so the re-audit records the damage, not a missing file."""
        store, _ = _build_store(tmp_path)
        name = store.manifest.shards[1].filename
        damage_flip_bytes(store.shard_paths()[1], n_bytes=32)

        def crash(self, path):
            raise OSError(errno.EIO, "crash while saving the manifest")

        monkeypatch.setattr(ShardManifest, "save", crash)
        with pytest.raises(OSError, match="crash while saving"):
            store.audit()
        monkeypatch.undo()

        report = ShardStore.open(store.directory).audit()
        assert [(r.filename, r.reason) for r in report.quarantined] == [
            (name, "checksum-mismatch")
        ]
        assert [r["reason"] for r in store.quarantined()] == ["checksum-mismatch"]
        assert os.path.exists(os.path.join(store.quarantine_dir, name))

    def test_crash_after_manifest_save_finishes_the_move(self, tmp_path, monkeypatch):
        """An audit that dies after the manifest save leaves its shard
        unregistered beside its reason file; the next audit moves it
        into quarantine instead of reporting an orphan."""
        store, _ = _build_store(tmp_path)
        name = store.manifest.shards[1].filename
        damage_flip_bytes(store.shard_paths()[1], n_bytes=32)

        def crash(self, filename):
            raise OSError(errno.EIO, "crash before the move")

        monkeypatch.setattr(ShardStore, "_move_to_quarantine", crash)
        with pytest.raises(OSError, match="crash before the move"):
            store.audit()
        monkeypatch.undo()

        reopened = ShardStore.open(store.directory)
        assert reopened.n_shards == 2
        report = reopened.audit()
        assert report.clean and report.orphans == []
        assert [r["reason"] for r in store.quarantined()] == ["checksum-mismatch"]
        assert sorted(os.listdir(store.quarantine_dir)) == [
            name, f"{name}.reason.json"
        ]

    def test_clean_store_audits_clean(self, tmp_path):
        store, whole = _build_store(tmp_path)
        report = store.audit()
        assert report.clean and report.checked == 3
        assert store.n_runs == whole.n_runs

    def test_short_statistics_quarantined_unreadable(self, tmp_path):
        """Statistic columns one entry short of the table, under a
        matching digest: the shard must not count, and no survivor's
        statistics may be combined with it."""
        store, _ = _build_store(tmp_path)
        paths = store.shard_paths()
        survivors = _shard_stats(paths[0]).add(_shard_stats(paths[2]))
        shorten_archive_stats(paths[1])
        store.manifest.shards[1] = dataclasses.replace(
            store.manifest.shards[1], sha256=file_sha256(paths[1])
        )
        store.manifest.save(store.manifest_path)
        with pytest.raises(ShardCorruptionError, match="statistic section") as err:
            store.sufficient_stats()
        assert err.value.filename == store.manifest.shards[1].filename
        report = store.audit()
        assert [r.reason for r in report.quarantined] == ["unreadable"]
        _assert_stats_equal(store.sufficient_stats(), survivors)

    @pytest.mark.parametrize("field", ["stacks_json", "metas_json"])
    def test_misaligned_run_columns_are_unreadable(self, tmp_path, field):
        """A header whose stacks or run metadata are one entry short of
        its runs, under a matching digest: the whole-set read refuses
        the shard as ``unreadable``.  The statistics stream and the
        audit read neither column, so they still pass it."""
        store, _ = _build_store(tmp_path)
        path = store.shard_paths()[1]
        column = json.loads(archive_header(path)[field])
        rewrite_archive_header(path, **{field: json.dumps(column[:-1])})
        store.manifest.shards[1] = dataclasses.replace(
            store.manifest.shards[1], sha256=file_sha256(path)
        )
        store.manifest.save(store.manifest_path)
        with pytest.raises(ShardCorruptionError, match=field) as err:
            store.load_merged()
        assert (err.value.filename, err.value.reason) == (
            store.manifest.shards[1].filename, "unreadable"
        )
        assert store.audit().clean

    def test_failing_count_lie_refused_by_the_stream(self, tmp_path, capsys):
        """A header that moves one run from successful to failing, under
        a matching digest, would stream NumF 6 over runs of which 5
        failed; the statistics stream refuses it without an audit."""
        store, whole = _build_store(tmp_path, k=2)
        assert whole.num_failing == 5
        store.manifest.shards[1] = _lie_about_failing(store, store.manifest.shards[1])
        store.manifest.save(store.manifest_path)
        headers = [archive_header(path) for path in store.shard_paths()]
        assert sum(h["num_failing"] for h in headers) == 6
        with pytest.raises(ShardCorruptionError, match="outcome column holds 5") as err:
            store.sufficient_stats()
        assert (err.value.filename, err.value.reason) == (
            store.manifest.shards[1].filename, "unreadable"
        )
        assert main(["analyze", store.directory, "--stats-only", "--no-audit"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            f"error: shard {store.manifest.shards[1].filename} is corrupt: "
        )

    def test_torn_reason_write_leaves_no_reason_file(self, tmp_path, monkeypatch):
        """A write that fails part-way (a full disk) while a quarantine
        reason file is written leaves nothing under the reason file's
        name, so quarantined() still loads the records already there."""
        store, _ = _build_store(tmp_path)
        store.quarantine_file("shard-x000009.npz", "unreadable", "first")
        real_open = builtins.open

        class Torn:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def write(self, data):
                self._handle.write(data[: max(1, len(data) // 2)])
                raise OSError(errno.ENOSPC, "No space left on device")

        def tearing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if ".reason.json" in os.fspath(file) and "w" in mode:
                return Torn(handle)
            return handle

        filename = store.manifest.shards[1].filename
        monkeypatch.setattr(builtins, "open", tearing_open)
        with pytest.raises(OSError, match="No space left"):
            store.quarantine_file(filename, "unreadable", "second")
        monkeypatch.undo()
        assert sorted(os.listdir(store.quarantine_dir)) == [
            filename, "shard-x000009.npz.reason.json"
        ]
        assert [r["detail"] for r in store.quarantined()] == ["first"]

    def test_store_errors_keep_their_type(self, tmp_path, monkeypatch):
        """Only archive reads are turned into shard errors: a ValueError
        of the store's own work on what a read returns passes as is."""
        store, _ = _build_store(tmp_path)

        def refuse(self, other):
            raise ValueError("accumulator refused")

        monkeypatch.setattr(SufficientStats, "add", refuse)
        with pytest.raises(ValueError, match="accumulator refused"):
            store.sufficient_stats()

    def test_streaming_reads_point_at_audit(self, tmp_path):
        store, _ = _build_store(tmp_path)
        os.unlink(store.shard_paths()[1])
        with pytest.raises(StaleManifestError, match="audit"):
            store.sufficient_stats()
        with pytest.raises(StaleManifestError, match="audit"):
            store.load_merged()


def _lie_about_count(store, entry):
    return dataclasses.replace(entry, n_runs=entry.n_runs + 1)


def _entry_lies_about_failing(store, entry):
    return dataclasses.replace(entry, num_failing=entry.num_failing + 1)


def _truncate_under_digest(store, entry):
    path = os.path.join(store.directory, entry.filename)
    damage_truncate(path, keep_fraction=0.4)
    return dataclasses.replace(entry, sha256=file_sha256(path))


def _plant_foreign_table(store, entry):
    path = os.path.join(store.directory, entry.filename)
    save_reports(path, make_reports(9, [(True, {0}, None)] * entry.n_runs))
    return dataclasses.replace(entry, sha256=file_sha256(path))


def _lie_about_failing(store, entry):
    """Move one run from successful to failing in the header alone."""
    path = os.path.join(store.directory, entry.filename)
    header = archive_header(path)
    rewrite_archive_header(
        path,
        num_failing=header["num_failing"] + 1,
        num_successful=header["num_successful"] - 1,
    )
    return dataclasses.replace(entry, sha256=file_sha256(path))


def _shorten_entry_stats(store, entry):
    path = os.path.join(store.directory, entry.filename)
    shorten_archive_stats(path)
    return dataclasses.replace(entry, sha256=file_sha256(path))


def _in_place(damage):
    def apply(store, entry):
        damage(os.path.join(store.directory, entry.filename))
        return entry

    return apply


class TestOneShardCheck:
    """audit(), ingest_shard_bytes and the collector refuse a shard
    through the same check, so each damage kind gets one reason code
    wherever it is caught."""

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (_in_place(damage_flip_bytes), "checksum-mismatch"),
            (
                _in_place(lambda p: damage_truncate(p, keep_fraction=0.4)),
                "checksum-mismatch",
            ),
            (_truncate_under_digest, "unreadable"),
            (_plant_foreign_table, "table-mismatch"),
            (_lie_about_count, "count-mismatch"),
            (_in_place(os.unlink), "missing-file"),
            (_lie_about_failing, "unreadable"),
            (_shorten_entry_stats, "unreadable"),
            (_entry_lies_about_failing, "count-mismatch"),
        ],
        ids=["flipped", "truncated", "truncated-redigested", "foreign-table",
             "count-lie", "missing", "failing-count-lie", "short-statistics",
             "entry-failing-count-lie"],
    )
    def test_audit_and_ingest_agree(self, tmp_path, damage, reason):
        store, _ = _build_store(tmp_path)
        entry = damage(store, store.manifest.shards[1])
        store.manifest.shards[1] = entry
        store.manifest.save(store.manifest_path)

        with pytest.raises(ShardCheckError) as checked:
            check_shard(
                os.path.join(store.directory, entry.filename),
                entry,
                store.manifest.table_sha,
            )
        assert checked.value.reason == reason

        # The replication path: fetch the source's bytes, then ingest.
        dest = ShardStore.create_like(str(tmp_path / "dest"), store.manifest)
        with pytest.raises((ShardCheckError, FederationFetchError)) as pulled:
            dest.ingest_shard_bytes(LocalSource(store.directory).fetch(entry), entry)
        assert pulled.value.reason == reason
        assert sorted(os.listdir(dest.directory)) == ["manifest.json"]
        assert ShardStore.open(dest.directory).manifest.shards == []

        report = store.audit()
        assert [(r.filename, r.reason) for r in report.quarantined] == [
            (entry.filename, reason)
        ]

    @pytest.mark.parametrize(
        "read",
        [
            lambda store: store.sufficient_stats(),
            lambda store: store.site_totals(),
            lambda store: store.load_merged(),
            lambda store: store.load_columns(np.ones(store.table().n_predicates, bool)),
        ],
        ids=["sufficient_stats", "site_totals", "load_merged", "load_columns"],
    )
    def test_every_read_applies_the_entry_run_counts(self, tmp_path, read):
        """Regression: an entry claiming more runs (and failing runs)
        than its intact shard holds was refused by ``load_columns`` and
        ``audit`` only; the streamed statistics, the site totals and the
        merged population went on scoring the shard's own runs under the
        entry's counts."""
        store, _ = _build_store(tmp_path)
        last = store.manifest.shards[-1]
        store.manifest.shards[-1] = dataclasses.replace(
            last, n_runs=last.n_runs + 1, num_failing=last.num_failing + 1
        )
        store.manifest.save(store.manifest_path)
        reopened = ShardStore.open(store.directory)
        with pytest.raises(ShardIntegrityError) as info:
            read(reopened)
        assert (info.value.reason, info.value.filename) == ("count-mismatch", last.filename)

    def test_errors_pickle_with_their_reason(self):
        for exc in (
            ShardCorruptionError("f", "d"),
            ShardIntegrityError("f", "d", reason="count-mismatch"),
            StaleManifestError("d"),
        ):
            clone = pickle.loads(pickle.dumps(exc))
            assert (type(clone), clone.reason, clone.detail, str(clone)) == (
                type(exc), exc.reason, exc.detail, str(exc)
            )
        assert DuplicateSeedRangeError("d").reason == "duplicate-seed-range"

    def test_collector_quarantine_detail_is_the_check_detail(self, tmp_path):
        store = collect_tiny_store(
            tmp_path / "store", n_runs=60, chunk_size=20,
            faults=(Fault("flip-bytes", chunk=1),),
        )
        (record,) = store.quarantined()
        assert record["reason"] == "failed-verification"
        # The retried chunk reproduced the healthy bytes, so its committed
        # entry is what the damaged staged file had to match.
        entry = store.manifest.find(shard_filename(20))
        with pytest.raises(ShardIntegrityError) as checked:
            check_shard(
                os.path.join(store.quarantine_dir, record["filename"]),
                entry,
                store.manifest.table_sha,
            )
        assert checked.value.reason == "checksum-mismatch"
        assert record["detail"] == checked.value.detail


class TestCollectionLog:
    def test_torn_final_line_is_dropped(self, tmp_path):
        store, _ = _build_store(tmp_path)
        store.log_event("first", n=1)
        logged = store.read_log()
        with open(store.collection_log_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "quar')
        assert store.read_log() == logged

    def test_bad_line_before_the_last_raises(self, tmp_path):
        store, _ = _build_store(tmp_path)
        with open(store.collection_log_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "quar\n')
        store.log_event("after", n=1)
        with pytest.raises(json.JSONDecodeError):
            store.read_log()


class TestFaultSpecs:
    def test_parse_round_trip(self):
        fault = parse_fault("flip-bytes@2#1")
        assert fault == Fault("flip-bytes", chunk=2, attempt=1)
        assert parse_fault(fault.spec()) == fault

    def test_defaults(self):
        assert parse_fault("kill-worker") == Fault("kill-worker", chunk=0, attempt=0)
        assert parse_fault("kill-worker@3") == Fault("kill-worker", chunk=3)

    def test_comma_separated_list(self):
        faults = parse_faults("kill-worker@0, flip-bytes@2#1 ,truncate-shard@1")
        assert [f.kind for f in faults] == [
            "kill-worker",
            "flip-bytes",
            "truncate-shard",
        ]
        assert parse_faults(None) == ()
        assert parse_faults("") == ()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault("set-on-fire@0")

    def test_injector_fires_exactly_once(self):
        injector = FaultInjector([Fault("kill-worker", chunk=1, attempt=0)])
        assert injector.fires("kill-worker", 1, 0)
        assert not injector.fires("kill-worker", 1, 1)  # retry is healthy
        assert not injector.fires("kill-worker", 0, 0)
        assert not injector.fires("flip-bytes", 1, 0)
        assert bool(injector)
        assert not bool(FaultInjector())
