"""Tests for the supervised parallel collector and its direct-to-disk
shard writers."""

import os
import tracemalloc

import numpy as np
import pytest

from repro.harness.parallel import run_trials_sharded
from repro.harness.runner import collect_site_means, run_trials
from repro.instrument.sampling import SamplingPlan
from repro.instrument.tracer import instrument_source
from repro.store import CollectionError, DuplicateSeedRangeError, Fault, ShardStore

from tests.harness.test_runner import TinySubject


def _adaptive_plan(subject, program):
    """A genuine per-site (adaptive) plan trained on the subject."""
    means = collect_site_means(subject, program, 20, seed=777)
    # Force a mix of rates so the per-site countdowns actually differ.
    rates = np.clip(np.where(means > 0, 0.35, 1.0), 0.01, 1.0)
    return SamplingPlan.per_site(rates)


def _assert_populations_identical(a_reports, a_truth, b_reports, b_truth):
    assert a_reports.n_runs == b_reports.n_runs
    assert a_reports.failed.tolist() == b_reports.failed.tolist()
    assert (a_reports.true_counts != b_reports.true_counts).nnz == 0
    assert (a_reports.site_counts != b_reports.site_counts).nnz == 0
    assert a_reports.stacks == b_reports.stacks
    if a_truth is not None and b_truth is not None:
        assert a_truth.occurrences == b_truth.occurrences


class TestShardedCollection:
    @pytest.mark.parametrize(
        "plan_kind, seed, n_runs, chunk_size",
        [
            ("uniform", 7, 200, 30),
            ("per-site", 7, 200, 30),
            # Many small chunks: seed order and crash stacks survive the
            # chunk and process boundaries.
            ("full", 100, 25, 4),
        ],
        ids=["uniform", "per-site", "full-chunk-4"],
    )
    def test_merged_shards_bit_identical_to_serial(
        self, tmp_path, plan_kind, seed, n_runs, chunk_size
    ):
        subject = TinySubject()
        program = instrument_source(subject.source(), subject.name)
        if plan_kind == "uniform":
            plan = SamplingPlan.uniform(0.3)
        elif plan_kind == "full":
            plan = SamplingPlan.full()
        else:
            plan = _adaptive_plan(subject, program)

        serial_reports, serial_truth = run_trials(
            subject, program, n_runs, plan, seed=seed
        )
        store = run_trials_sharded(
            subject,
            n_runs,
            plan,
            str(tmp_path / "store"),
            seed=seed,
            jobs=3,
            chunk_size=chunk_size,
        )
        merged_reports, merged_truth = store.load_merged()
        _assert_populations_identical(
            merged_reports, merged_truth, serial_reports, serial_truth
        )
        assert merged_reports.seeds.tolist() == list(range(seed, seed + n_runs))
        assert merged_reports.num_failing > 0
        for stack, failed in zip(merged_reports.stacks, merged_reports.failed):
            if failed:
                assert stack[-1] == "ValueError"

    def test_incremental_store_scores_equal_monolithic(self, tmp_path):
        """The acceptance property: streaming shard statistics produce
        exactly the monolithic counters (F, S, F_obs, S_obs, NumF)."""
        from repro.core.scores import compute_scores

        subject = TinySubject()
        program = instrument_source(subject.source(), subject.name)
        plan = _adaptive_plan(subject, program)
        serial_reports, _ = run_trials(subject, program, 180, plan, seed=3)
        store = run_trials_sharded(
            subject, 180, plan, str(tmp_path / "store"), seed=3, jobs=2, chunk_size=40
        )
        streaming = store.sufficient_stats().to_scores()
        mono = compute_scores(serial_reports)
        np.testing.assert_array_equal(streaming.F, mono.F)
        np.testing.assert_array_equal(streaming.S, mono.S)
        np.testing.assert_array_equal(streaming.F_obs, mono.F_obs)
        np.testing.assert_array_equal(streaming.S_obs, mono.S_obs)
        assert streaming.num_failing == mono.num_failing

    def test_append_session_extends_population(self, tmp_path):
        subject = TinySubject()
        plan = SamplingPlan.full()
        store_dir = str(tmp_path / "store")
        run_trials_sharded(subject, 60, plan, store_dir, seed=0, jobs=2, chunk_size=20)
        store = run_trials_sharded(
            subject, 40, plan, store_dir, seed=60, jobs=2, chunk_size=20
        )
        assert store.n_runs == 100
        merged, _ = store.load_merged()
        assert merged.seeds.tolist() == list(range(100))

    def test_overlapping_seed_range_rejected(self, tmp_path):
        subject = TinySubject()
        plan = SamplingPlan.full()
        store_dir = str(tmp_path / "store")
        store = run_trials_sharded(
            subject, 40, plan, store_dir, seed=0, jobs=1, chunk_size=20
        )
        before, log = sorted(os.listdir(store_dir)), store.read_log()
        with pytest.raises(DuplicateSeedRangeError, match="next free seed: 40"):
            run_trials_sharded(
                subject, 40, plan, store_dir, seed=20, jobs=1, chunk_size=20
            )
        # Refused before session-start: no trial ran, nothing was staged.
        assert sorted(os.listdir(store_dir)) == before
        assert store.read_log() == log

    @pytest.mark.parametrize(
        "n_runs, chunk_size, match",
        [(40, 0, "chunk_size"), (40, -2, "chunk_size"), (-3, 20, "n_runs")],
    )
    def test_bad_sizes_rejected_before_the_store_exists(
        self, tmp_path, n_runs, chunk_size, match
    ):
        store_dir = tmp_path / "store"
        with pytest.raises(ValueError, match=match):
            run_trials_sharded(
                TinySubject(), n_runs, SamplingPlan.full(), str(store_dir),
                chunk_size=chunk_size,
            )
        assert not store_dir.exists()

    def test_parent_memory_bounded_in_n_runs(self, tmp_path):
        """Workers write shards directly, so the parent's peak allocation
        must not grow with the population size (only shard-membership
        records return).  Compare parent-side peaks for a small and an
        8x larger collection: far-sublinear growth is required."""
        subject = TinySubject()
        plan = SamplingPlan.full()

        def parent_peak(n_runs, store_dir):
            tracemalloc.start()
            tracemalloc.reset_peak()
            run_trials_sharded(
                subject, n_runs, plan, store_dir, seed=0, jobs=2, chunk_size=30
            )
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        # Warm-up collection so imports/caches don't bias the first sample.
        parent_peak(30, str(tmp_path / "warm"))
        small = parent_peak(90, str(tmp_path / "small"))
        large = parent_peak(720, str(tmp_path / "large"))
        # 8x the runs must cost far less than 8x the parent peak; the
        # dominant parent allocation (instrumenting the subject for the
        # manifest's table) is constant in n_runs.
        assert large < small * 3 + 256 * 1024, (small, large)


def _collect(store_dir, faults=(), n_runs=60, **kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("chunk_size", 20)
    kwargs.setdefault("backoff_base", 0.01)
    return run_trials_sharded(
        TinySubject(),
        n_runs,
        SamplingPlan.full(),
        str(store_dir),
        seed=0,
        faults=faults,
        **kwargs,
    )


class TestSupervision:
    """Worker death, hangs, and in-transit corruption are detected and
    repaired by re-running the chunk's seed range."""

    def test_killed_worker_detected_and_retried(self, tmp_path):
        store = _collect(tmp_path / "s", faults=(Fault("kill-worker", chunk=0),))
        report = store.last_collection
        assert report.worker_deaths == 1 and report.retries == 1
        assert store.n_runs == 60 and store.n_shards == 3
        failed = [e for e in store.read_log() if e["event"] == "chunk-failed"]
        assert [e["reason"] for e in failed] == ["worker-died"]
        assert failed[0]["seed_start"] == 0

    def test_hung_worker_killed_at_timeout_and_retried(self, tmp_path):
        store = _collect(
            tmp_path / "s",
            faults=(Fault("hang-worker", chunk=1),),
            chunk_timeout=1.0,
        )
        report = store.last_collection
        assert report.timeouts == 1 and report.retries == 1
        assert store.n_runs == 60
        failed = [e for e in store.read_log() if e["event"] == "chunk-failed"]
        assert [e["reason"] for e in failed] == ["timeout"]

    def test_truncated_shard_quarantined_and_retried(self, tmp_path):
        store = _collect(tmp_path / "s", faults=(Fault("truncate-shard", chunk=2),))
        report = store.last_collection
        assert report.corrupt_shards == 1
        assert report.quarantined == ["shard-00000040.npz.pending"]
        assert store.n_runs == 60  # retried range re-collected in full
        records = store.quarantined()
        assert [r["reason"] for r in records] == ["failed-verification"]
        assert records[0]["seed_start"] == 40

    def test_retry_backoff_grows_exponentially(self, tmp_path):
        faults = (
            Fault("kill-worker", chunk=0, attempt=0),
            Fault("kill-worker", chunk=0, attempt=1),
        )
        store = _collect(
            tmp_path / "s", faults=faults, n_runs=20, max_attempts=4
        )
        retries = [e for e in store.read_log() if e["event"] == "chunk-retry"]
        assert [e["attempt"] for e in retries] == [1, 2]
        assert retries[1]["backoff"] == pytest.approx(2 * retries[0]["backoff"])

    def test_persistent_failure_raises_collection_error(self, tmp_path):
        faults = tuple(
            Fault("kill-worker", chunk=0, attempt=a) for a in range(3)
        )
        with pytest.raises(CollectionError, match=r"seeds \[0, 20\)") as info:
            _collect(tmp_path / "s", faults=faults, max_attempts=3)
        assert info.value.seed_start == 0
        assert info.value.count == 20
        assert info.value.attempts == 3
        # Whatever committed before the failure is still a valid store.
        store = ShardStore.open(str(tmp_path / "s"))
        assert store.audit().quarantined == []

    def test_collection_log_records_lifecycle(self, tmp_path):
        store = _collect(tmp_path / "s", n_runs=40)
        events = [e["event"] for e in store.read_log()]
        assert events[0] == "session-start"
        assert events[-1] == "session-end"
        assert events.count("chunk-start") == 2
        assert events.count("chunk-done") == 2
        assert events.count("commit") == 2
        assert all("ts" in e for e in store.read_log())

    def test_uncommitted_leftover_shard_reclaimed(self, tmp_path):
        """A shard file with no manifest entry (a session that died
        between the worker's write and the commit) must not block -- or
        leak into -- a later session covering the same seed range."""
        store_dir = tmp_path / "s"
        _collect(store_dir, n_runs=20, chunk_size=20)
        leftover = os.path.join(str(store_dir), "shard-00000020.npz")
        with open(leftover, "wb") as fh:
            fh.write(b"stale bytes from a dead session")

        store = run_trials_sharded(
            TinySubject(),
            20,
            SamplingPlan.full(),
            str(store_dir),
            seed=20,
            jobs=1,
            chunk_size=20,
        )
        assert store.n_runs == 40
        assert "reclaim-uncommitted" in [e["event"] for e in store.read_log()]
        merged, _ = store.load_merged()
        assert merged.seeds.tolist() == list(range(40))
        assert store.audit().clean

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "kind",
        ["kill-worker", "hang-worker", "truncate-shard", "flip-bytes", "duplicate-shard"],
    )
    def test_every_worker_fault_recovers(self, tmp_path, kind):
        """Exhaustive fault matrix (slow lane): every worker-side fault
        kind is survived with the full population collected."""
        store = _collect(
            tmp_path / kind,
            faults=(Fault(kind, chunk=1),),
            chunk_timeout=1.0 if kind == "hang-worker" else None,
        )
        assert store.n_runs == 60
        assert store.audit().quarantined == []
        merged, _ = store.load_merged()
        assert merged.seeds.tolist() == list(range(60))

    def test_faulted_run_merges_identical_to_serial(self, tmp_path):
        """The supervision loop must not perturb the population: a
        collection that survived a kill and a corruption merges
        bit-identical to the serial runner."""
        subject = TinySubject()
        program = instrument_source(subject.source(), subject.name)
        plan = SamplingPlan.uniform(0.3)
        serial_reports, serial_truth = run_trials(subject, program, 60, plan, seed=0)
        store = run_trials_sharded(
            subject,
            60,
            plan,
            str(tmp_path / "s"),
            seed=0,
            jobs=2,
            chunk_size=20,
            backoff_base=0.01,
            faults=(Fault("kill-worker", chunk=1), Fault("flip-bytes", chunk=2)),
        )
        merged_reports, merged_truth = store.load_merged()
        _assert_populations_identical(
            merged_reports, merged_truth, serial_reports, serial_truth
        )
