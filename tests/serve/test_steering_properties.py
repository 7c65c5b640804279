"""Property-based steering laws: exact wire, pure refit, monotone stop.

Hypothesis drives the three invariants the steering acceptance suite
pins only pointwise:

* the rate table survives the JSON wire **bitwise** (a client applies
  exactly the floats the daemon fit, never a rounded cousin);
* the refit is a pure function of the committed snapshot -- same
  manifest digest, same document, byte for byte;
* the CI-based stopping verdict is monotone in evidence -- a converged
  population stays converged under any integer scaling of its counts
  (more of the same evidence can never un-converge a subject).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.stopping import StoppingPolicy, assess_stats
from repro.instrument.sampling import MIN_ADAPTIVE_RATE
from repro.serve.steering import (
    SteeringDocument,
    fit_steering,
    manifest_digest,
    steering_from_wire,
)
from repro.store import ShardStore
from repro.core.scores import SufficientStats

from tests.conftest import build_synthetic_store
from tests.helpers import make_reports

pytestmark = pytest.mark.property

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

rate_tables = st.lists(
    st.floats(
        min_value=MIN_ADAPTIVE_RATE,
        max_value=1.0,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=64,
)


@SETTINGS
@given(rates=rate_tables, epoch=st.integers(min_value=0, max_value=10**9))
def test_rate_table_wire_round_trip_is_exact(rates, epoch):
    document = SteeringDocument(
        subject="synthetic",
        table_sha="a" * 64,
        epoch=epoch,
        manifest_sha="b" * 64,
        n_runs=epoch,
        num_failing=0,
        rates=rates,
    )
    wire_text = json.dumps(document.to_wire(), sort_keys=True)
    decoded = steering_from_wire(json.loads(wire_text))
    # Bitwise equality, not approx: repr-based JSON floats round-trip.
    assert decoded.rates == rates
    assert decoded.version == document.version
    # A second trip changes nothing (the wire form is a fixed point).
    assert json.dumps(decoded.to_wire(), sort_keys=True) == wire_text


@pytest.fixture(scope="module")
def synthetic_store():
    root = tempfile.mkdtemp(prefix="steer-prop-")
    store, _ = build_synthetic_store(
        os.path.join(root, "baseline"), k=4, n_runs=48, n_preds=6, seed=11
    )
    yield store
    shutil.rmtree(root, ignore_errors=True)


@SETTINGS
@given(
    watchlist_k=st.integers(min_value=1, max_value=8),
    target_samples=st.floats(min_value=1.0, max_value=500.0),
)
def test_refit_is_deterministic_in_the_snapshot(
    synthetic_store, watchlist_k, target_samples
):
    """Same manifest digest -> byte-identical steering document."""
    store_a = ShardStore.open(synthetic_store.directory)
    store_b = ShardStore.open(synthetic_store.directory)
    assert manifest_digest(store_a.manifest) == manifest_digest(store_b.manifest)
    totals = store_a.load_merged()[0].site_counts.sum(axis=0)
    fits = [
        fit_steering(
            store,
            "synthetic",
            totals,
            watchlist_k=watchlist_k,
            target_samples=target_samples,
        )
        for store in (store_a, store_b)
    ]
    wires = [json.dumps(fit.to_wire(), sort_keys=True) for fit in fits]
    assert wires[0] == wires[1]
    assert fits[0].manifest_sha == manifest_digest(store_a.manifest)
    assert fits[0].epoch == store_a.n_runs


populations = st.lists(
    st.tuples(
        st.booleans(),
        st.sets(st.integers(min_value=0, max_value=3), max_size=4),
    ),
    min_size=20,
    max_size=60,
)


@SETTINGS
@given(
    population=populations,
    m=st.integers(min_value=2, max_value=8),
    epsilon=st.floats(min_value=0.02, max_value=1.0),
)
def test_converged_is_monotone_under_count_scaling(population, m, epsilon):
    runs = [(failed, preds, None) for failed, preds in population]
    stats = SufficientStats.from_reports(make_reports(5, runs))
    scaled = SufficientStats(
        F=stats.F * m,
        S=stats.S * m,
        F_obs=stats.F_obs * m,
        S_obs=stats.S_obs * m,
        num_failing=stats.num_failing * m,
        num_successful=stats.num_successful * m,
    )
    policy = StoppingPolicy(min_runs=10, min_failing=1, epsilon=epsilon)
    if assess_stats(stats, policy).converged:
        assert assess_stats(scaled, policy).converged
