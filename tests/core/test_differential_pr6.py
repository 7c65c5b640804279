"""Differential suite for the raw-speed pass: fast paths change no bits.

Two independent equivalences, each across all five paper subjects:

* **Sampler fast path vs legacy dispatch** -- the inlined-countdown
  helpers (``Runtime(sampler="fast")``, the default) produce the exact
  run records the original ``_take``-dispatch helpers produce for the
  same seeds, under full, uniform and per-site plans;
* **Streamed vs monolithic** over 1- and 3-shard (memory-mapped) stores
  -- the shard-layout bit-identity contract extends to the zero-copy
  reader.

Float comparisons are bitwise (``tobytes``), not ``allclose``; weakening
any equality here to a tolerance is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scores import compute_scores
from repro.harness.runner import run_trials
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.store import ShardStore
from repro.subjects.bc import BcSubject
from repro.subjects.ccrypt import CcryptSubject
from repro.subjects.exif import ExifSubject
from repro.subjects.moss import MossSubject
from repro.subjects.rhythmbox import RhythmboxSubject

SUBJECTS = [MossSubject, CcryptSubject, BcSubject, ExifSubject, RhythmboxSubject]

SUBJECT_FIXTURES = [
    "moss_experiment",
    "ccrypt_experiment",
    "bc_experiment",
    "exif_experiment",
    "rhythmbox_experiment",
]

_SCORE_FIELDS = (
    "F",
    "S",
    "F_obs",
    "S_obs",
    "failure",
    "context",
    "increase",
    "increase_se",
    "increase_lo",
    "increase_hi",
    "z",
    "defined",
)


def _assert_scores_bitwise_equal(a, b, label=""):
    for name in _SCORE_FIELDS:
        lhs, rhs = getattr(a, name), getattr(b, name)
        assert np.asarray(lhs).tobytes() == np.asarray(rhs).tobytes(), (
            f"{label}: score field {name} differs"
        )
    assert a.num_failing == b.num_failing and a.num_successful == b.num_successful


def _assert_reports_identical(a, b, label=""):
    assert a.failed.tolist() == b.failed.tolist(), label
    assert (a.site_counts != b.site_counts).nnz == 0, label
    assert (a.true_counts != b.true_counts).nnz == 0, label
    assert a.stacks == b.stacks and a.metas == b.metas, label
    _assert_scores_bitwise_equal(compute_scores(a), compute_scores(b), label)


class TestSamplerFastPathDifferential:
    """The inlined fast-path helpers replay the legacy decision stream."""

    @pytest.mark.parametrize("subject_cls", SUBJECTS)
    def test_fast_equals_legacy_under_uniform_sampling(self, subject_cls):
        subject = subject_cls()
        plan = SamplingPlan.uniform(0.2)
        populations = {}
        for sampler in ("fast", "legacy"):
            program = instrument_source(subject.source(), subject.name)
            program.runtime.select_sampler(sampler)
            populations[sampler] = run_trials(subject, program, 60, plan, seed=11)
        reports_fast, truth_fast = populations["fast"]
        reports_legacy, truth_legacy = populations["legacy"]
        _assert_reports_identical(
            reports_fast, reports_legacy, f"{subject.name}/uniform"
        )
        assert truth_fast.occurrences == truth_legacy.occurrences

    @pytest.mark.parametrize("subject_cls", SUBJECTS)
    def test_fast_equals_legacy_under_full_observation(self, subject_cls):
        subject = subject_cls()
        populations = {}
        for sampler in ("fast", "legacy"):
            program = instrument_source(subject.source(), subject.name)
            program.runtime.select_sampler(sampler)
            populations[sampler] = run_trials(
                subject, program, 40, SamplingPlan.full(), seed=5
            )
        _assert_reports_identical(
            populations["fast"][0], populations["legacy"][0], f"{subject.name}/full"
        )

    def test_fast_equals_legacy_under_per_site_rates(self):
        subject = MossSubject()
        base = instrument_source(subject.source(), subject.name)
        n_sites = len(base.table.sites)
        rates = [0.05 + 0.9 * (i % 7) / 7 for i in range(n_sites)]
        plan = SamplingPlan.per_site(rates)
        populations = {}
        for sampler in ("fast", "legacy"):
            program = instrument_source(subject.source(), subject.name)
            program.runtime.select_sampler(sampler)
            populations[sampler] = run_trials(subject, program, 50, plan, seed=23)
        _assert_reports_identical(
            populations["fast"][0], populations["legacy"][0], "moss/per-site"
        )


def _v3_store(directory, experiment, n_shards=3):
    from repro.core.io import V3_MAGIC

    from tests.helpers import partition_bounds

    reports, truth = experiment.reports, experiment.truth
    store = ShardStore.create(
        str(directory), "differential", reports.table, SamplingPlan.full()
    )
    for lo, hi in partition_bounds(reports.n_runs, n_shards):
        mask = np.zeros(reports.n_runs, dtype=bool)
        mask[lo:hi] = True
        store.append_shard(reports.subset(mask), truth=truth.subset(mask), seed_start=lo)
    for path in store.shard_paths():
        with open(path, "rb") as fh:
            assert fh.read(len(V3_MAGIC)) == V3_MAGIC  # the store really is v3
    return ShardStore.open(store.directory)


class TestV3StoreParallelDifferential:
    """Zero-copy shard streaming is bit-identical at every shard layout."""

    @pytest.mark.parametrize("fixture", SUBJECT_FIXTURES)
    def test_streamed_scores_match_monolithic_over_v3_store(
        self, fixture, request, tmp_path
    ):
        experiment = request.getfixturevalue(fixture)
        expected = compute_scores(experiment.reports)
        for n_shards in (1, 3):
            store = _v3_store(tmp_path / f"store-{n_shards}", experiment, n_shards)
            _assert_scores_bitwise_equal(
                store.compute_scores(), expected, f"{fixture}/{n_shards}-shard-v3"
            )

    def test_v3_store_audit_recover_roundtrip(self, tmp_path, moss_experiment):
        """The commit protocol's verification path covers v3 shards."""
        store = _v3_store(tmp_path / "store", moss_experiment)
        assert store.audit().clean
        merged, _ = store.load_merged()
        _assert_scores_bitwise_equal(
            compute_scores(merged), compute_scores(moss_experiment.reports), "merged"
        )
