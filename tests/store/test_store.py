"""Tests for the sharded report store: merge exactness, incremental
scoring, manifests, and instrumentation-compatibility checking."""

import json

import numpy as np
import pytest

from repro.core.io import load_shard_stats
from repro.core.reports import ReportSet
from repro.core.scores import SufficientStats, compute_scores
from repro.core.truth import GroundTruth
from repro.instrument.sampling import SamplingPlan
from repro.store import ShardStore, plan_from_json, plan_to_json
from repro.store.manifest import ShardEntry, ShardManifest, config_digest
from repro.instrument.transform import InstrumentationConfig

from tests.conftest import build_synthetic_store
from tests.helpers import make_population, make_reports, make_table, split_reports

# Local names kept for the module's many call sites; the builders
# themselves live in tests.helpers so every suite shares one copy.
_population = make_population
_split = split_reports


def _assert_counters_equal(a, b):
    """Exact integer equality of all sufficient statistics."""
    np.testing.assert_array_equal(a.F, b.F)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.F_obs, b.F_obs)
    np.testing.assert_array_equal(a.S_obs, b.S_obs)
    assert a.num_failing == b.num_failing
    assert a.num_successful == b.num_successful


class TestReportSetMerge:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_merge_of_k_shards_equals_monolithic(self, k):
        whole = _population(n_preds=5, n_runs=30)
        merged = ReportSet.merge(_split(whole, k))
        assert merged.n_runs == whole.n_runs
        assert merged.failed.tolist() == whole.failed.tolist()
        assert (merged.true_counts != whole.true_counts).nnz == 0
        assert (merged.site_counts != whole.site_counts).nnz == 0
        assert merged.stacks == whole.stacks
        assert merged.metas == whole.metas

    @pytest.mark.parametrize("k", [2, 4])
    def test_merged_scores_exactly_equal(self, k):
        whole = _population(n_preds=6, n_runs=40, seed=3)
        merged = ReportSet.merge(_split(whole, k))
        _assert_counters_equal(compute_scores(merged), compute_scores(whole))

    def test_empty_merge_rejected(self):
        with pytest.raises(ValueError):
            ReportSet.merge([])

    def test_mismatched_tables_rejected(self):
        a = make_reports(3, [(True, {0}, None)])
        b = make_reports(4, [(False, {1}, None)])
        with pytest.raises(ValueError, match="different predicate table"):
            ReportSet.merge([a, b])


class TestSufficientStats:
    def test_shard_sum_equals_monolithic(self):
        whole = _population(n_preds=5, n_runs=36, seed=7)
        total = SufficientStats.zeros(whole.n_predicates)
        for part in _split(whole, 4):
            total.add(SufficientStats.from_reports(part))
        _assert_counters_equal(total, compute_scores(whole))

    def test_to_scores_bit_identical_to_compute_scores(self):
        whole = _population(n_preds=5, n_runs=36, seed=11)
        total = SufficientStats.zeros(whole.n_predicates)
        for part in _split(whole, 3):
            total = total + SufficientStats.from_reports(part)
        inc = total.to_scores()
        mono = compute_scores(whole)
        _assert_counters_equal(inc, mono)
        np.testing.assert_array_equal(inc.failure, mono.failure)
        np.testing.assert_array_equal(inc.context, mono.context)
        np.testing.assert_array_equal(inc.increase, mono.increase)
        np.testing.assert_array_equal(inc.increase_lo, mono.increase_lo)
        np.testing.assert_array_equal(inc.z, mono.z)
        np.testing.assert_array_equal(inc.defined, mono.defined)

    def test_predicate_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different tables"):
            SufficientStats.zeros(3).add(SufficientStats.zeros(4))


class TestShardStore:
    def _store(self, tmp_path, whole, k=3):
        table = whole.table
        store = ShardStore.create(
            str(tmp_path / "store"), "synthetic", table, SamplingPlan.full()
        )
        for part in _split(whole, k):
            store.append_shard(part)
        return store

    def test_append_and_reopen(self, tmp_path):
        whole = _population(n_runs=18)
        store = self._store(tmp_path, whole)
        assert store.n_shards == 3
        reopened = ShardStore.open(store.directory)
        assert reopened.n_runs == whole.n_runs
        assert reopened.num_failing == whole.num_failing

    def test_load_merged_equals_monolithic(self, tmp_path):
        whole = _population(n_preds=5, n_runs=30, seed=5)
        store = self._store(tmp_path, whole, k=4)
        merged, truth = ShardStore.open(store.directory).load_merged()
        assert truth is None
        assert merged.failed.tolist() == whole.failed.tolist()
        assert (merged.true_counts != whole.true_counts).nnz == 0
        assert (merged.site_counts != whole.site_counts).nnz == 0

    def test_incremental_scores_equal_monolithic(self, tmp_path):
        whole = _population(n_preds=6, n_runs=42, seed=9)
        store = self._store(tmp_path, whole, k=5)
        streaming = ShardStore.open(store.directory).sufficient_stats().to_scores()
        mono = compute_scores(whole)
        _assert_counters_equal(streaming, mono)
        np.testing.assert_array_equal(streaming.increase, mono.increase)

    def test_truth_merged_across_shards(self, tmp_path):
        whole = _population(n_runs=12)
        truth = GroundTruth(bug_ids=["b"])
        for failed in whole.failed:
            truth.add_run(["b"] if failed else [])
        store = ShardStore.create(
            str(tmp_path / "store"), "synthetic", whole.table, SamplingPlan.full()
        )
        parts = _split(whole, 3)
        offset = 0
        for part in parts:
            mask = np.zeros(whole.n_runs, dtype=bool)
            mask[offset : offset + part.n_runs] = True
            store.append_shard(part, truth=truth.subset(mask))
            offset += part.n_runs
        _, merged_truth = ShardStore.open(store.directory).load_merged()
        assert merged_truth is not None
        assert merged_truth.occurrences == truth.occurrences

    def test_mismatched_table_shard_rejected(self, tmp_path):
        whole = _population(n_runs=10)
        store = self._store(tmp_path, whole)
        alien = make_reports(9, [(True, {0}, None)])
        with pytest.raises(ValueError, match="different predicate table"):
            store.append_shard(alien)

    def test_open_or_create_rejects_other_subject(self, tmp_path):
        whole = _population(n_runs=10)
        store = self._store(tmp_path, whole)
        with pytest.raises(ValueError, match="subject"):
            ShardStore.open_or_create(
                store.directory, "other", whole.table, SamplingPlan.full()
            )

    def test_open_or_create_rejects_other_config(self, tmp_path):
        whole = _population(n_runs=10)
        store = self._store(tmp_path, whole)
        with pytest.raises(ValueError, match="configuration"):
            ShardStore.open_or_create(
                store.directory,
                "synthetic",
                whole.table,
                SamplingPlan.full(),
                config=InstrumentationConfig(scalar_pairs=False),
            )

    def test_empty_store_scoring_rejected(self, tmp_path):
        table = make_table(3)
        store = ShardStore.create(
            str(tmp_path / "s"), "synthetic", table, SamplingPlan.full()
        )
        with pytest.raises(ValueError):
            store.sufficient_stats()

    def test_duplicate_registration_rejected(self, tmp_path):
        whole = _population(n_runs=10)
        store = self._store(tmp_path, whole, k=1)
        entry = store.manifest.shards[0]
        with pytest.raises(ValueError, match="already registered"):
            store.register_shard(
                ShardEntry(entry.filename, entry.n_runs, entry.num_failing)
            )

    def test_stats_read_does_not_rebuild_matrices(self, tmp_path):
        """v2 shards expose their statistics without CSR reconstruction."""
        whole = _population(n_preds=4, n_runs=16)
        store = self._store(tmp_path, whole, k=2)
        path = store.shard_paths()[0]
        F, S, F_obs, S_obs, numf, nums, sha = load_shard_stats(path)
        assert sha == whole.table.signature()
        first, _ = next(iter(ShardStore.open(store.directory).iter_reports()))
        _assert_counters_equal(
            SufficientStats(F, S, F_obs, S_obs, numf, nums),
            compute_scores(first),
        )


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = ShardManifest(
            subject="moss",
            table_sha="ab" * 32,
            config_sha=config_digest(None),
            plan=plan_to_json(SamplingPlan.uniform(0.05)),
            shards=[ShardEntry("shard-00000000.npz", 100, 7, seed_start=0)],
        )
        path = str(tmp_path / "manifest.json")
        manifest.save(path)
        loaded = ShardManifest.load(path)
        assert loaded == manifest
        assert loaded.n_runs == 100 and loaded.num_failing == 7
        assert loaded.next_seed == 100

    def test_plan_round_trip_all_modes(self):
        for plan in (
            SamplingPlan.full(),
            SamplingPlan.uniform(0.25),
            SamplingPlan.per_site([0.5, 1.0, 0.01]),
        ):
            back = plan_from_json(json.loads(json.dumps(plan_to_json(plan))))
            assert back.mode == plan.mode
            if plan.mode == "uniform":
                assert back.rate == plan.rate
            if plan.mode == "per-site":
                np.testing.assert_array_equal(back.site_rates, plan.site_rates)

    def test_config_digest_stable_for_defaults(self):
        assert config_digest(None) == config_digest(InstrumentationConfig())
        assert config_digest(None) != config_digest(
            InstrumentationConfig(branches=False)
        )

    def test_newer_manifest_version_rejected(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "manifest_version": 99,
                    "subject": "x",
                    "table_sha": "0" * 64,
                    "config_sha": "0" * 64,
                    "plan": {"mode": "full"},
                    "shards": [],
                },
                fh,
            )
        with pytest.raises(ValueError, match="newer"):
            ShardManifest.load(path)

    @pytest.mark.parametrize("declared", [1, 2, None])
    def test_pre_v3_store_refused(self, tmp_path, declared):
        """A manifest declaring shard format 1 or 2 -- or none, as v1/v2
        stores' manifests may -- is a typed refusal from every opener."""
        from repro.store import StoreError, StoreVersionError

        store, whole = build_synthetic_store(tmp_path / "store")
        with open(store.manifest_path) as fh:
            document = json.load(fh)
        document.pop("format_version")
        if declared is not None:
            document["format_version"] = declared
        with open(store.manifest_path, "w") as fh:
            json.dump(document, fh)
        with pytest.raises(StoreVersionError, match="re-collect") as info:
            ShardStore.open(store.directory)
        assert isinstance(info.value, StoreError)
        with pytest.raises(StoreVersionError):
            ShardStore.open_or_create(
                store.directory, "synthetic", whole.table, SamplingPlan.full()
            )

    def test_manifest_records_format_3(self, tmp_path):
        store, _ = build_synthetic_store(tmp_path / "store")
        with open(store.manifest_path) as fh:
            assert json.load(fh)["format_version"] == 3
        with pytest.raises(TypeError):
            ShardStore.create(
                str(tmp_path / "v2"), "x", make_table(2), SamplingPlan.full(),
                format_version=2,
            )

    def test_open_without_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardStore.open(str(tmp_path))
