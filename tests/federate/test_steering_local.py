"""Steering artifacts are store-local: federation must never move them.

A steering document describes one daemon's live fit over its own
committed population; replicated into another store it would be a lie
about that store's evidence.  This holds by construction:

* a manifest entry is named by its seed (``shard-XXXXXXXX.npz``), so a
  source manifest that *lists* a store-local file fails the manifest
  check, typed, before any pull;
* a real federation of a steered store's directory copies only shard
  archives -- ``steering.json``, ``steering_log.jsonl`` and the ingest
  WAL stay behind even though they sit right next to the shards.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.federate import LocalSource, federate_stores
from repro.serve.server import WAL_NAME
from repro.serve.steering import STEERING_LOG_NAME, STEERING_NAME
from repro.store import ManifestError, ShardStore

from tests.conftest import build_synthetic_store

#: Files of a daemon's store directory that belong to that daemon alone.
STORE_LOCAL_FILES = frozenset({STEERING_NAME, STEERING_LOG_NAME, WAL_NAME})


@pytest.fixture()
def steered_store(tmp_path):
    """A store that looks like a steering daemon's directory: committed
    shards plus the three store-local files."""
    store, _ = build_synthetic_store(
        str(tmp_path / "steered"), k=3, n_runs=24, n_preds=4, seed=5
    )
    for name in sorted(STORE_LOCAL_FILES):
        with open(os.path.join(store.directory, name), "w", encoding="utf-8") as f:
            f.write("{}\n")
    return store


@pytest.mark.parametrize("name", sorted(STORE_LOCAL_FILES))
def test_manifest_listing_store_local_file_refused(tmp_path, steered_store, name):
    dest = ShardStore.create_like(str(tmp_path / "dest"), steered_store.manifest)
    with open(steered_store.manifest_path) as fh:
        document = json.load(fh)
    listed = dict(document["shards"][0], filename=name, seed_start=10_000)
    document["shards"].append(listed)
    with open(steered_store.manifest_path, "w") as fh:
        json.dump(document, fh)

    source = LocalSource(steered_store.directory)
    with pytest.raises(ManifestError) as excinfo:
        source.manifest()
    assert (excinfo.value.field, excinfo.value.entry) == ("filename", repr(name))
    with pytest.raises(ManifestError):
        federate_stores([source], dest)
    assert sorted(os.listdir(dest.directory)) == ["manifest.json"]
    assert ShardStore.open(dest.directory).manifest.shards == []


def test_federation_leaves_steering_files_behind(tmp_path, steered_store):
    dest = ShardStore.create_like(str(tmp_path / "dest"), steered_store.manifest)
    report = federate_stores([LocalSource(steered_store.directory)], dest)
    assert report.clean
    assert len(report.pulled) == steered_store.n_shards

    merged = ShardStore.open(dest.directory)
    assert merged.n_runs == steered_store.n_runs
    dest_files = set(os.listdir(dest.directory))
    assert not dest_files & STORE_LOCAL_FILES
    # ... while the source, of course, still has all three.
    assert STORE_LOCAL_FILES <= set(os.listdir(steered_store.directory))
