"""Tests for the sharded report store: merge exactness, incremental
scoring, manifests, and instrumentation-compatibility checking."""

import json
import os

import numpy as np
import pytest

from repro.core.elimination import DiscardStrategy, eliminate
from repro.core.io import file_sha256, load_shard_stats, save_reports
from repro.core.reports import ReportSet
from repro.core.scores import SufficientStats, compute_scores
from repro.core.truth import GroundTruth
from repro.instrument.sampling import SamplingPlan
from repro.store import (
    DuplicateSeedRangeError,
    ManifestError,
    ShardCorruptionError,
    ShardIntegrityError,
    ShardStore,
    StaleManifestError,
    plan_from_json,
    plan_to_json,
)
from repro.store.faults import damage_truncate
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
        seed = 0
        for part in _split(whole, k):
            store.append_shard(part, seed_start=seed)
            seed += part.n_runs
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
            store.append_shard(part, truth=truth.subset(mask), seed_start=offset)
            offset += part.n_runs
        _, merged_truth = ShardStore.open(store.directory).load_merged()
        assert merged_truth is not None
        assert merged_truth.occurrences == truth.occurrences

    def test_mismatched_table_shard_rejected(self, tmp_path):
        whole = _population(n_runs=10)
        store = self._store(tmp_path, whole)
        alien = make_reports(9, [(True, {0}, None)])
        with pytest.raises(ValueError, match="different predicate table"):
            store.append_shard(alien, seed_start=store.next_seed)

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
        with pytest.raises(DuplicateSeedRangeError, match="double-count"):
            store.register_shard(
                ShardEntry(entry.seed_start, entry.n_runs, entry.num_failing, "0" * 64)
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


class TestKeptColumns:
    """``ShardStore.load_columns``: a partial report set holding only the
    chosen predicates' columns, guarded against reads of the others."""

    KEPT = np.array([False, True, False, False, True, False])

    def _partial(self, tmp_path):
        store, whole = build_synthetic_store(tmp_path / "store", n_runs=30, n_preds=6)
        partial, _ = ShardStore.open(store.directory).load_columns(self.KEPT)
        return store, whole, partial

    def test_loaded_columns_read_like_the_whole(self, tmp_path):
        _, whole, partial = self._partial(tmp_path)
        assert partial.n_runs == whole.n_runs
        assert partial.n_predicates == whole.n_predicates
        for pred in np.flatnonzero(self.KEPT):
            np.testing.assert_array_equal(partial.true_mask(pred), whole.true_mask(pred))

    def test_unloaded_column_raises(self, tmp_path):
        _, _, partial = self._partial(tmp_path)
        with pytest.raises(ValueError, match="predicate 0 is not loaded"):
            partial.true_mask(0)
        with pytest.raises(ValueError, match="predicate 5 is not loaded"):
            partial.runs_where_true(5)

    def test_counts_only_loaded_columns(self, tmp_path):
        _, whole, partial = self._partial(tmp_path)
        got = SufficientStats.from_reports(partial)
        want = SufficientStats.from_reports(whole)
        for attr in ("F", "S", "F_obs", "S_obs"):
            np.testing.assert_array_equal(
                getattr(got, attr), np.where(self.KEPT, getattr(want, attr), 0)
            )
        assert (got.num_failing, got.num_successful) == (
            want.num_failing, want.num_successful,
        )

    def test_derived_sets_stay_partial(self, tmp_path):
        _, _, partial = self._partial(tmp_path)
        for derived in (
            partial.subset(np.arange(partial.n_runs) % 2 == 0),
            partial.relabelled(partial.failed),
        ):
            np.testing.assert_array_equal(derived.columns, self.KEPT)
            with pytest.raises(ValueError):
                derived.true_mask(0)

    def test_partial_set_cannot_be_saved(self, tmp_path):
        _, _, partial = self._partial(tmp_path)
        path = tmp_path / "partial.npz"
        with pytest.raises(ValueError, match="cannot save a partial"):
            save_reports(str(path), partial)
        assert not path.exists()

    def test_partial_set_cannot_be_merged(self, tmp_path):
        _, whole, partial = self._partial(tmp_path)
        for parts in ([partial], [whole, partial]):
            with pytest.raises(ValueError, match="cannot merge a partial"):
                ReportSet.merge(parts)

    def test_eliminate_refuses_unloaded_candidates(self, tmp_path):
        _, _, partial = self._partial(tmp_path)
        with pytest.raises(ValueError, match="not loaded"):
            eliminate(partial)
        with pytest.raises(ValueError, match="predicate 2 is not loaded"):
            eliminate(partial, candidates=self.KEPT | (np.arange(6) == 2))

    @pytest.mark.parametrize("strategy", list(DiscardStrategy))
    def test_eliminate_over_kept_columns_equals_whole(self, tmp_path, strategy):
        _, whole, partial = self._partial(tmp_path)
        got = eliminate(partial, candidates=self.KEPT, strategy=strategy)
        want = eliminate(whole, candidates=self.KEPT, strategy=strategy)
        assert got == want
        assert got.selected

    def test_empty_store_raises(self, tmp_path):
        store = ShardStore.create(
            str(tmp_path / "empty"), "synthetic", make_table(6), SamplingPlan.full()
        )
        with pytest.raises(ValueError, match="empty shard store"):
            store.load_columns(self.KEPT)

    def test_mask_length_must_match_the_table(self, tmp_path):
        store, _ = build_synthetic_store(tmp_path / "store", n_preds=6)
        with pytest.raises(ValueError, match="table of 6 predicates"):
            ShardStore.open(store.directory).load_columns(self.KEPT[:4])

    def test_missing_shard_raises_stale_manifest(self, tmp_path):
        store, _ = build_synthetic_store(tmp_path / "store", n_preds=6)
        store.table()
        os.unlink(store.shard_paths()[1])
        with pytest.raises(StaleManifestError, match="run audit"):
            store.load_columns(self.KEPT)

    def test_truncated_shard_raises_corruption(self, tmp_path):
        store, _ = build_synthetic_store(tmp_path / "store", n_preds=6)
        damage_truncate(store.shard_paths()[2], keep_fraction=0.6)
        with pytest.raises(ShardCorruptionError) as info:
            ShardStore.open(store.directory).load_columns(self.KEPT)
        assert info.value.filename == store.manifest.shards[2].filename

    def test_foreign_table_raises_integrity_error(self, tmp_path):
        store, _ = build_synthetic_store(tmp_path / "store", n_preds=6)
        path = store.shard_paths()[1]
        save_reports(path, make_reports(9, [(True, {0}, None)] * 8))
        store.manifest.shards[1].sha256 = file_sha256(path)
        store.manifest.save(store.manifest_path)
        with pytest.raises(ShardIntegrityError) as info:
            ShardStore.open(store.directory).load_columns(self.KEPT)
        assert info.value.reason == "table-mismatch"
        assert info.value.filename == store.manifest.shards[1].filename


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = ShardManifest(
            subject="moss",
            table_sha="ab" * 32,
            config_sha=config_digest(None),
            plan=plan_to_json(SamplingPlan.uniform(0.05)),
            shards=[
                ShardEntry(seed_start=0, n_runs=100, num_failing=7, sha256="cd" * 32)
            ],
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

    @pytest.mark.parametrize(
        "plan, detail",
        [
            ({"mode": "uniform"}, "lacks 'rate'"),
            ({"rate": 0.5}, "lacks 'mode'"),
            ({"mode": "steered"}, "unknown sampling mode 'steered'"),
            ({"mode": "uniform", "rate": 1.5}, "rate must be in (0, 1]"),
            ({"mode": "uniform", "rate": "0.5"}, "must be a number"),
            ({"mode": "per-site", "site_rates": [0.5, 2.0]}, "must be in (0, 1]"),
            ({"mode": "per-site", "site_rates": [0.5, 0.0]}, "must be in (0, 1]"),
            ({"mode": "per-site", "site_rates": [float("nan")]}, "must be in (0, 1]"),
            ({"mode": "per-site", "site_rates": 0.5}, "must be a list"),
            ({"mode": "per-site", "site_rates": {"0": 0.5}}, "must be a list"),
            ({"mode": "per-site", "site_rates": [0.5, True]}, "must be a number"),
        ],
    )
    def test_unreadable_plan_refused_on_load(self, tmp_path, plan, detail):
        """A plan ``plan_from_json`` cannot read is refused when the
        manifest opens, not when ``ShardStore.plan()`` first reads it."""
        path = str(tmp_path / "manifest.json")
        ShardManifest(
            subject="x", table_sha="0" * 64, config_sha="0" * 64,
            plan={"mode": "full"},
        ).save(path)
        with open(path) as fh:
            document = json.load(fh)
        document["plan"] = plan
        with open(path, "w") as fh:
            json.dump(document, fh)
        with pytest.raises(ManifestError) as info:
            ShardManifest.load(path)
        assert (info.value.field, info.value.entry) == ("plan", None)
        assert detail in info.value.detail

    @pytest.mark.parametrize("version, match", [(99, "newer"), (0, "not supported")])
    def test_other_manifest_version_rejected(self, tmp_path, version, match):
        """Only this build's schema is read: a newer one, or the 0 an
        old build would have saved back, is a typed refusal."""
        path = str(tmp_path / "manifest.json")
        with open(path, "w") as fh:
            json.dump(
                {
                    "manifest_version": version,
                    "subject": "x",
                    "table_sha": "0" * 64,
                    "config_sha": "0" * 64,
                    "plan": {"mode": "full"},
                    "shards": [],
                },
                fh,
            )
        with pytest.raises(ManifestError, match=match) as info:
            ShardManifest.load(path)
        assert info.value.field == "manifest_version"

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
