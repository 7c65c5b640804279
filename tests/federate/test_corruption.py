"""Corruption paths in federation: damaged sources degrade the merge
with an audited reason -- they are never replicated into the destination.
"""

import dataclasses
import json
import os

import pytest

from repro.federate import LocalSource, cross_audit, federate_stores
from repro.store import ShardStore
from repro.store.faults import damage_flip_bytes, damage_truncate

from tests.federate.conftest import (
    assert_federated_equals_baseline,
    distribute,
    shard_essence,
)

FAST = dict(backoff_base=0.001, backoff_cap=0.002, max_attempts=3)


def _skip_reason(dest, filename):
    path = os.path.join(dest.directory, "quarantine", f"{filename}.reason.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestDamagedSourceShards:
    @pytest.mark.parametrize(
        "damage", [damage_flip_bytes, lambda p: damage_truncate(p, keep_fraction=0.4)]
    )
    def test_damaged_shard_skipped_never_replicated(
        self, tmp_path, baseline_store, damage
    ):
        src = distribute(baseline_store, [tmp_path / "src"])[0]
        victim = src.manifest.shards[2]
        damage(os.path.join(src.directory, victim.filename))

        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        report = federate_stores([LocalSource(src.directory)], dest, **FAST)

        assert not report.clean
        assert [r.filename for r in report.skipped] == [victim.filename]
        assert report.skipped[0].reason == "checksum-mismatch"
        assert report.skipped[0].n_runs == victim.n_runs
        # The damaged bytes never reached the destination -- no file, no
        # pending file, no manifest entry; just the audited reason.
        assert dest.manifest.find(victim.filename) is None
        assert not os.path.exists(os.path.join(dest.directory, victim.filename))
        assert _skip_reason(dest, victim.filename)["reason"] == "checksum-mismatch"
        # Everything healthy still merged bit-exactly.
        expected = [
            e for e in shard_essence(baseline_store) if e[0] != victim.filename
        ]
        assert shard_essence(dest) == expected
        assert dest.audit().clean

    def test_healthy_duplicate_wins_over_damaged_copy(
        self, tmp_path, baseline_store
    ):
        # Source "a-src" (tried first: smaller label) holds a damaged
        # copy; "b-src" the healthy one.  Candidate rotation must land
        # every seed range, making the merge clean despite the damage.
        damaged = distribute(baseline_store, [tmp_path / "a-src"])[0]
        distribute(baseline_store, [tmp_path / "b-src"])
        victim = damaged.manifest.shards[0]
        damage_flip_bytes(os.path.join(damaged.directory, victim.filename))

        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        report = federate_stores(
            [
                LocalSource(str(tmp_path / "a-src")),
                LocalSource(str(tmp_path / "b-src")),
            ],
            dest,
            **FAST,
        )
        assert report.clean
        assert report.retries == 1
        assert_federated_equals_baseline(dest, baseline_store)
        # Provenance shows the fallback: the victim came from b-src.
        by_name = {e.filename: e.source for e in dest.manifest.shards}
        assert by_name[victim.filename] == str(tmp_path / "b-src")

    def test_quarantined_source_shard_not_replicated(
        self, tmp_path, baseline_store
    ):
        # A source that already audited its damage exports a manifest
        # without the bad shard; federation replicates the survivors and
        # cross_audit stays clean (nothing is "missing" -- the source no
        # longer claims the range).
        src = distribute(baseline_store, [tmp_path / "src"])[0]
        victim = src.manifest.shards[1]
        damage_flip_bytes(os.path.join(src.directory, victim.filename))
        audit = src.audit()
        assert [r.filename for r in audit.quarantined] == [victim.filename]

        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        source = LocalSource(src.directory)
        report = federate_stores([source], dest, **FAST)
        assert report.clean
        assert dest.manifest.find(victim.filename) is None
        assert shard_essence(dest) == [
            e for e in shard_essence(baseline_store) if e[0] != victim.filename
        ]
        assert cross_audit(dest, [source]).clean

    def test_missing_source_file_skipped_with_reason(
        self, tmp_path, baseline_store
    ):
        src = distribute(baseline_store, [tmp_path / "src"])[0]
        victim = src.manifest.shards[0]
        os.unlink(os.path.join(src.directory, victim.filename))

        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        report = federate_stores([LocalSource(src.directory)], dest, **FAST)
        assert [r.reason for r in report.skipped] == ["missing-file"]
        assert _skip_reason(dest, victim.filename)["reason"] == "missing-file"

    def test_count_mismatch_detected(self, tmp_path, baseline_store):
        # A source manifest lying about run counts (bytes intact, entry
        # wrong) is caught by the end-to-end verification, not trusted.
        src = distribute(baseline_store, [tmp_path / "src"])[0]
        victim = src.manifest.shards[0]
        src.manifest.shards[0] = dataclasses.replace(
            victim, n_runs=victim.n_runs - 1
        )
        src.manifest.save(src.manifest_path)

        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        report = federate_stores([LocalSource(src.directory)], dest, **FAST)
        assert [r.reason for r in report.skipped] == ["count-mismatch"]
        assert dest.manifest.find(victim.filename) is None

    def test_skips_surface_in_cross_audit(self, tmp_path, baseline_store):
        src = distribute(baseline_store, [tmp_path / "src"])[0]
        victim = src.manifest.shards[0]
        damage_flip_bytes(os.path.join(src.directory, victim.filename))

        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        source = LocalSource(src.directory)
        federate_stores([source], dest, **FAST)
        audit = cross_audit(dest, [source])
        # The destination itself is healthy, but the fleet is not fully
        # replicated: the skipped range shows up as missing.
        assert audit.dest.clean
        assert not audit.clean
        assert audit.sources[0].missing == [victim.filename]
