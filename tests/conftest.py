"""Shared fixtures: small cached experiments for integration-level tests.

Experiments are expensive (they execute thousands of instrumented runs),
so each subject's small experiment is computed once per session and
shared by every test that needs it.
"""

from __future__ import annotations

import os
import random

import pytest


def pytest_collection_modifyitems(config, items):
    """Optional order shuffling for environments without pytest-randomly.

    CI runs the tier-1 lane under pytest-randomly with a per-commit
    seed; setting ``REPRO_TEST_SHUFFLE=<seed>`` reproduces that pressure
    anywhere (tests must not depend on collection order or on state
    leaked by an earlier test).  No-op when the variable is unset or a
    real pytest-randomly plugin is active.
    """
    seed = os.environ.get("REPRO_TEST_SHUFFLE")
    if not seed or config.pluginmanager.hasplugin("randomly"):
        return
    random.Random(int(seed)).shuffle(items)

from repro.core.elimination import DiscardStrategy
from repro.harness.experiment import Experiment, run_experiment
from repro.subjects.bc import BcSubject
from repro.subjects.ccrypt import CcryptSubject
from repro.subjects.exif import ExifSubject
from repro.subjects.moss import MossSubject
from repro.subjects.rhythmbox import RhythmboxSubject


@pytest.fixture(autouse=True)
def _obs_disabled():
    """Leave every test with observability off.

    Tests that configure ``repro.obs`` must not leak an enabled registry
    into unrelated tests -- the subsystem is process-global by design.
    """
    from repro import obs

    yield
    obs.shutdown()


# ----------------------------------------------------------------------
# Shared store builders (used by the store, integration and federate
# suites -- one definition instead of one copy per test module).
# ----------------------------------------------------------------------
def build_synthetic_store(
    directory,
    k=3,
    n_runs=24,
    n_preds=4,
    seed=0,
    seed_start=0,
):
    """A store of ``k`` seeded shards plus the monolithic population.

    Shards carry contiguous seed ranges starting at ``seed_start``, so
    federation suites can build seed-disjoint fleets by varying it.
    """
    from repro.instrument.sampling import SamplingPlan
    from repro.store import ShardStore

    from tests.helpers import make_population, split_reports

    whole = make_population(
        n_preds=n_preds, n_runs=n_runs, seed=seed, first_seed=seed_start
    )
    store = ShardStore.create(
        str(directory), "synthetic", whole.table, SamplingPlan.full()
    )
    offset = seed_start
    for part in split_reports(whole, k):
        store.append_shard(part, seed_start=offset)
        offset += part.n_runs
    return store, whole


def collect_tiny_store(
    directory,
    n_runs=120,
    chunk_size=30,
    seed=0,
    jobs=2,
    rate=0.5,
    faults=(),
):
    """Collect ``n_runs`` TinySubject trials into a sharded store.

    Genuine (uniform) sampling by default, so retried chunks must
    reproduce the sampler decision stream exactly.
    """
    from repro.harness.parallel import run_trials_sharded
    from repro.instrument.sampling import SamplingPlan

    from tests.harness.test_runner import TinySubject

    plan = SamplingPlan.full() if rate is None else SamplingPlan.uniform(rate)
    return run_trials_sharded(
        TinySubject(),
        n_runs,
        plan,
        str(directory),
        seed=seed,
        jobs=jobs,
        chunk_size=chunk_size,
        backoff_base=0.01,
        faults=faults,
    )


@pytest.fixture
def store_factory(tmp_path):
    """Build named synthetic stores under this test's tmp directory.

    ``factory(name, **kwargs)`` forwards to :func:`build_synthetic_store`
    and returns ``(store, whole_population)``.
    """

    def factory(name="store", **kwargs):
        return build_synthetic_store(tmp_path / name, **kwargs)

    return factory


def _small_experiment(subject, n_runs, training_runs=60, **kwargs):
    # Two collection workers: jobs > 1 collects with run_trials_sharded
    # into a temporary store, whose merged shards are bit-identical to
    # the serial runner (tests/harness/test_parallel.py, tests/golden),
    # and these session fixtures are the largest single cost of the
    # default lane.
    config = Experiment(
        subject=subject,
        n_runs=n_runs,
        sampling=kwargs.pop("sampling", "adaptive"),
        training_runs=training_runs,
        seed=kwargs.pop("seed", 0),
        strategy=kwargs.pop("strategy", DiscardStrategy.DISCARD_ALL),
        max_predictors=kwargs.pop("max_predictors", 15),
        jobs=kwargs.pop("jobs", 2),
        **kwargs,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def moss_experiment():
    """A 500-run adaptive-sampling MOSS experiment (Section 4.1 scale-down)."""
    return _small_experiment(MossSubject(), 500)


@pytest.fixture(scope="session")
def ccrypt_experiment():
    """A 400-run CCRYPT experiment."""
    return _small_experiment(CcryptSubject(), 400)


@pytest.fixture(scope="session")
def bc_experiment():
    """A 400-run BC experiment."""
    return _small_experiment(BcSubject(), 400)


@pytest.fixture(scope="session")
def exif_experiment():
    """A 1200-run EXIF experiment (its bugs are rarer)."""
    return _small_experiment(ExifSubject(), 1200)


@pytest.fixture(scope="session")
def rhythmbox_experiment():
    """A 500-run RHYTHMBOX experiment."""
    return _small_experiment(RhythmboxSubject(), 500)
