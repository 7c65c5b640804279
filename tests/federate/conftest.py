"""Shared federation-test machinery.

The recurring shape: one *baseline* store collected as a single daemon
would, the same shards distributed across a *fleet* of source stores,
and an assertion that federating the fleet reproduces the baseline bit
for bit.  Distribution goes through
:meth:`~repro.store.shards.ShardStore.ingest_shard_bytes` with the
baseline's own entries, so fleet shards are byte-identical to baseline
shards by construction -- exactly what N daemons collecting disjoint
seed ranges produce (archives are byte-deterministic; see
``test_acceptance_matrix`` for the end-to-end version where daemons
really collect).
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.core.engine import AnalysisEngine
from repro.store import ShardStore

from tests.conftest import build_synthetic_store

#: Every float/int column a PredicateScores carries; compared by exact
#: bytes in the differential assertions (mirrors tests/serve).
SCORE_FIELDS = (
    "F", "S", "F_obs", "S_obs", "failure", "context", "increase",
    "increase_se", "increase_lo", "increase_hi", "pf", "ps", "z",
    "z_defined", "defined",
)


def shard_essence(store):
    """The identity-defining view of a store's membership."""
    return [
        (e.filename, e.seed_start, e.n_runs, e.num_failing, e.sha256)
        for e in store.manifest.shards
    ]


def read_shard(store, filename: str) -> bytes:
    with open(os.path.join(store.directory, filename), "rb") as handle:
        return handle.read()


def distribute(baseline, directories, assign=None):
    """Spread a baseline store's shards across fresh stores.

    ``assign(index)`` maps shard ordinal to a directory ordinal
    (defaults to round-robin).  Returns the opened stores.  Provenance
    is intentionally *not* set: these stand in for daemons that
    collected the shards locally.
    """
    assign = assign or (lambda i: i % len(directories))
    stores = [
        ShardStore.create_like(str(d), baseline.manifest) for d in directories
    ]
    for i, entry in enumerate(baseline.manifest.shards):
        stores[assign(i)].ingest_shard_bytes(
            read_shard(baseline, entry.filename),
            dataclasses.replace(entry, source=None),
        )
    return stores


def assert_federated_equals_baseline(dest, baseline):
    """The PR's central claim: merged store == single-daemon store.

    Checks shard membership (names, seed ranges, digests), raw archive
    bytes, streamed sufficient statistics, and every scores column by
    exact bytes.
    """
    assert shard_essence(dest) == shard_essence(baseline)
    for entry in baseline.manifest.shards:
        assert read_shard(dest, entry.filename) == read_shard(
            baseline, entry.filename
        )
    engine = AnalysisEngine()
    stats_a = engine.store_stats(baseline)
    stats_b = engine.store_stats(dest)
    np.testing.assert_array_equal(stats_a.F, stats_b.F)
    np.testing.assert_array_equal(stats_a.S, stats_b.S)
    np.testing.assert_array_equal(stats_a.F_obs, stats_b.F_obs)
    np.testing.assert_array_equal(stats_a.S_obs, stats_b.S_obs)
    assert stats_a.num_failing == stats_b.num_failing
    assert stats_a.num_successful == stats_b.num_successful
    scoring_a = engine.score_stats(stats_a)
    scoring_b = engine.score_stats(stats_b)
    for field in SCORE_FIELDS:
        assert (
            getattr(scoring_a.scores, field).tobytes()
            == getattr(scoring_b.scores, field).tobytes()
        )
    assert scoring_a.pvalues.tobytes() == scoring_b.pvalues.tobytes()
    assert scoring_a.pruning.kept.tolist() == scoring_b.pruning.kept.tolist()


@pytest.fixture
def baseline_store(tmp_path):
    """A 6-shard synthetic baseline store (48 runs, seeds 0..47)."""
    store, _ = build_synthetic_store(
        tmp_path / "baseline", k=6, n_runs=48, n_preds=5, seed=11
    )
    return store
