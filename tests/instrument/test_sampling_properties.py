"""Property-based tests for the sampling machinery.

Two families of properties:

* the geometric-countdown sampler is *distributionally equivalent* to
  per-opportunity Bernoulli coin flips (the paper's "each potential
  sample is taken or skipped randomly and independently"), and the
  countdown implementation inside :class:`Runtime` is *exactly*
  equivalent to drawing geometric gaps from the same RNG stream;
* sampler state round-trips through
  :meth:`Runtime.sampler_state`/:meth:`restore_sampler_state`, so the
  take/skip decision stream survives an arbitrary split point -- the
  in-process analogue of a shard boundary, and the determinism contract
  the fault-tolerant collector's retries lean on.

All statistical assertions use a deterministic RNG derived from
hypothesis-chosen seeds plus generous (many-sigma) bounds, so the suite
is reproducible and flake-free.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.instrument.runtime import Runtime  # noqa: E402
from repro.instrument.sampling import SamplingPlan, geometric_gap  # noqa: E402

from tests.helpers import make_table  # noqa: E402

pytestmark = pytest.mark.property

#: Shared hypothesis profile: deterministic, no deadline (statistical
#: examples do real simulation work), modest example counts.
_SETTINGS = dict(derandomize=True, deadline=None)

_rates = st.floats(min_value=0.02, max_value=1.0, allow_nan=False)
_seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _mean(xs):
    return sum(xs) / len(xs)


class TestGeometricEquivalence:
    @settings(max_examples=25, **_SETTINGS)
    @given(rate=_rates, seed=_seeds)
    def test_gap_mean_matches_bernoulli_waiting_time(self, rate, seed):
        """E[gap] = 1/rate, within many standard errors."""
        rng = random.Random(seed)
        m = 4000
        gaps = [geometric_gap(rate, rng.random()) for _ in range(m)]
        # Var(Geometric(rate)) = (1-rate)/rate^2.
        se = math.sqrt(1.0 - rate) / rate / math.sqrt(m)
        assert abs(_mean(gaps) - 1.0 / rate) < 7 * se + 1e-9

    @settings(max_examples=25, **_SETTINGS)
    @given(rate=_rates, seed=_seeds)
    def test_gap_distribution_matches_direct_coin_flips(self, rate, seed):
        """Gaps drawn by inverse-CDF match gaps of a literal Bernoulli
        scan: same mean and same per-bucket probabilities
        P(gap = k) = rate * (1-rate)^(k-1)."""
        m = 4000
        rng = random.Random(seed)
        gaps = [geometric_gap(rate, rng.random()) for _ in range(m)]
        flip = random.Random(seed + 1)
        direct = []
        for _ in range(m):
            k = 1
            while flip.random() >= rate:
                k += 1
            direct.append(k)

        se_mean = math.sqrt(1.0 - rate) / rate / math.sqrt(m)
        assert abs(_mean(gaps) - _mean(direct)) < 10 * se_mean + 1e-9
        for k in (1, 2, 3):
            p = rate * (1.0 - rate) ** (k - 1)
            se_p = math.sqrt(p * (1.0 - p) / m)
            for sample in (gaps, direct):
                phat = sum(1 for g in sample if g == k) / m
                assert abs(phat - p) < 7 * se_p + 1e-9

    @settings(max_examples=50, **_SETTINGS)
    @given(rate=_rates, u=st.floats(min_value=1e-12, max_value=1.0, exclude_max=True))
    def test_gap_is_at_least_one(self, rate, u):
        assert geometric_gap(rate, u) >= 1

    @settings(max_examples=20, **_SETTINGS)
    @given(u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_rate_one_always_samples(self, u):
        assert geometric_gap(1.0, u) == 1

    @settings(max_examples=25, **_SETTINGS)
    @given(rate=_rates, seed=_seeds, n=st.integers(min_value=1, max_value=400))
    def test_runtime_countdown_equals_gap_stream(self, rate, seed, n):
        """The uniform-mode countdown in Runtime produces exactly the
        take/skip stream implied by drawing geometric gaps from the same
        RNG -- the countdown is an implementation of the gap draw, not an
        approximation of it."""
        runtime = Runtime(make_table(1))
        runtime.begin_run(SamplingPlan.uniform(rate), seed=seed)
        stream = [runtime._take(0) for _ in range(n)]

        rng = random.Random(seed)
        expected = []
        gap = geometric_gap(rate, rng.random())
        for _ in range(n):
            gap -= 1
            if gap > 0:
                expected.append(False)
            else:
                expected.append(True)
                gap = geometric_gap(rate, rng.random())
        assert stream == expected


class TestSamplerStateRoundTrip:
    """Countdown state survives an arbitrary split point: restoring a
    snapshot into a *different* Runtime instance continues the decision
    stream exactly where the original would have."""

    @settings(max_examples=25, **_SETTINGS)
    @given(
        rate=_rates,
        seed=_seeds,
        n=st.integers(min_value=2, max_value=300),
        data=st.data(),
    )
    def test_uniform_stream_survives_split(self, rate, seed, n, data):
        split = data.draw(st.integers(min_value=0, max_value=n))
        reference = Runtime(make_table(1))
        reference.begin_run(SamplingPlan.uniform(rate), seed=seed)
        whole = [reference._take(0) for _ in range(n)]

        first = Runtime(make_table(1))
        first.begin_run(SamplingPlan.uniform(rate), seed=seed)
        head = [first._take(0) for _ in range(split)]
        snapshot = first.sampler_state()

        second = Runtime(make_table(1))
        second.begin_run(SamplingPlan.uniform(rate), seed=seed + 12345)
        second.restore_sampler_state(snapshot)
        tail = [second._take(0) for _ in range(n - split)]
        assert head + tail == whole

    @settings(max_examples=20, **_SETTINGS)
    @given(
        seed=_seeds,
        n=st.integers(min_value=2, max_value=200),
        rates=st.lists(_rates, min_size=2, max_size=4),
        data=st.data(),
    )
    def test_per_site_stream_survives_split(self, seed, n, rates, data):
        split = data.draw(st.integers(min_value=0, max_value=n))
        n_sites = len(rates)
        plan = SamplingPlan.per_site(rates)
        # The visit order exercises interleaved per-site countdowns.
        site_rng = random.Random(seed ^ 0x5EED)
        visits = [site_rng.randrange(n_sites) for _ in range(n)]

        reference = Runtime(make_table(n_sites))
        reference.begin_run(plan, seed=seed)
        whole = [reference._take(s) for s in visits]

        first = Runtime(make_table(n_sites))
        first.begin_run(plan, seed=seed)
        head = [first._take(s) for s in visits[:split]]
        snapshot = first.sampler_state()

        second = Runtime(make_table(n_sites))
        second.begin_run(plan, seed=seed + 999)
        second.restore_sampler_state(snapshot)
        tail = [second._take(s) for s in visits[split:]]
        assert head + tail == whole

    @settings(max_examples=10, **_SETTINGS)
    @given(seed=_seeds)
    def test_full_mode_round_trips(self, seed):
        runtime = Runtime(make_table(1))
        runtime.begin_run(SamplingPlan.full(), seed=seed)
        snapshot = runtime.sampler_state()
        assert snapshot["kind"] == "full"
        other = Runtime(make_table(1))
        other.begin_run(SamplingPlan.uniform(0.5), seed=seed)
        other.restore_sampler_state(snapshot)
        assert all(other._take(0) for _ in range(50))

    @settings(max_examples=15, **_SETTINGS)
    @given(rate=_rates, seed=_seeds)
    def test_snapshot_does_not_disturb_counters(self, rate, seed):
        """Snapshotting and restoring is observation-neutral: only the
        sampling side moves, never the counters."""
        runtime = Runtime(make_table(1))
        runtime.begin_run(SamplingPlan.uniform(rate), seed=seed)
        for _ in range(20):
            runtime.branch(0, True)
        before = runtime.end_run()
        runtime.restore_sampler_state(runtime.sampler_state())
        assert runtime.end_run() == before

    def test_unknown_snapshot_kind_rejected(self):
        runtime = Runtime(make_table(1))
        runtime.begin_run(SamplingPlan.full(), seed=0)
        snapshot = runtime.sampler_state()
        snapshot["kind"] = "quantum"
        with pytest.raises(ValueError, match="unknown sampler kind"):
            runtime.restore_sampler_state(snapshot)


class TestExplicitModeRoundTrip:
    """The runtime's explicit ``mode`` attribute round-trips through
    ``sampler_state`` / ``restore_sampler_state`` -- the snapshot carries
    it under both the legacy ``kind`` key and the new ``mode`` key, and
    restoring reproduces the attribute (and the integer dispatch id
    behind the fast path) exactly."""

    def _begin(self, runtime, mode, rate, seed):
        if mode == "full":
            runtime.begin_run(SamplingPlan.full(), seed=seed)
        elif mode == "uniform":
            runtime.begin_run(SamplingPlan.uniform(rate), seed=seed)
        else:
            runtime.begin_run(SamplingPlan.per_site([rate, 1.0]), seed=seed)

    @settings(max_examples=40, **_SETTINGS)
    @given(
        mode=st.sampled_from(["full", "uniform", "per-site"]),
        rate=_rates,
        seed=_seeds,
        warmup=st.integers(min_value=0, max_value=80),
        sampler=st.sampled_from(["fast", "legacy"]),
    )
    def test_mode_round_trips(self, mode, rate, seed, warmup, sampler):
        runtime = Runtime(make_table(2), sampler=sampler)
        self._begin(runtime, mode, rate, seed)
        for _ in range(warmup):
            runtime._take(0)
        assert runtime.mode == mode
        snapshot = runtime.sampler_state()
        assert snapshot["mode"] == mode == snapshot["kind"]

        other = Runtime(make_table(2), sampler=sampler)
        # Start the receiver in a *different* mode: the snapshot wins.
        self._begin(other, "uniform" if mode != "uniform" else "full", 0.5, seed + 7)
        other.restore_sampler_state(snapshot)
        assert other.mode == mode
        assert other.sampler_state()["mode"] == mode

    @settings(max_examples=25, **_SETTINGS)
    @given(
        rate=_rates,
        seed=_seeds,
        warmup=st.integers(min_value=0, max_value=120),
        n=st.integers(min_value=1, max_value=200),
    )
    def test_pending_gap_batch_survives_round_trip(self, rate, seed, warmup, n):
        """The fast path pre-draws a batch of countdown gaps; a snapshot
        taken mid-batch must hand the unconsumed gaps (in consumption
        order) to the restored instance, keeping the decision stream
        bit-identical to the uninterrupted one."""
        reference = Runtime(make_table(1))
        reference.begin_run(SamplingPlan.uniform(rate), seed=seed)
        whole = [reference._take(0) for _ in range(warmup + n)]

        first = Runtime(make_table(1))
        first.begin_run(SamplingPlan.uniform(rate), seed=seed)
        head = [first._take(0) for _ in range(warmup)]
        snapshot = first.sampler_state()
        assert snapshot["pending"] == first.sampler_state()["pending"]

        second = Runtime(make_table(1))
        second.begin_run(SamplingPlan.uniform(0.9), seed=seed + 1)
        second.restore_sampler_state(snapshot)
        tail = [second._take(0) for _ in range(n)]
        assert head + tail == whole

    @settings(max_examples=15, **_SETTINGS)
    @given(seed=_seeds, rate=_rates, warmup=st.integers(min_value=0, max_value=60))
    def test_legacy_snapshot_without_mode_key_restores(self, seed, rate, warmup):
        """Snapshots written before the explicit ``mode`` attribute carry
        only ``kind``; they must keep restoring byte-for-byte."""
        donor = Runtime(make_table(1))
        donor.begin_run(SamplingPlan.uniform(rate), seed=seed)
        for _ in range(warmup):
            donor._take(0)
        snapshot = donor.sampler_state()
        del snapshot["mode"]
        expected = [donor._take(0) for _ in range(100)]

        receiver = Runtime(make_table(1))
        receiver.begin_run(SamplingPlan.full(), seed=seed)
        receiver.restore_sampler_state(snapshot)
        assert receiver.mode == "uniform"
        assert [receiver._take(0) for _ in range(100)] == expected


class TestSufficientStatsPartitionAlgebra:
    """The streaming scorer's algebra: sufficient statistics are additive
    over *any* run partition (integer equality to the monolithic counts,
    whatever the summation order -- so every shard layout of a store
    streams the same statistics), and scoring is elementwise over
    predicates (bitwise-float equality of any predicate slice to the
    matching rows of the whole table)."""

    @staticmethod
    def _random_population(data, max_preds=6, max_runs=40):
        import numpy as np

        from tests.helpers import make_reports

        n_preds = data.draw(st.integers(1, max_preds))
        n_runs = data.draw(st.integers(1, max_runs))
        runs = []
        for _ in range(n_runs):
            failed = data.draw(st.booleans())
            true = data.draw(st.sets(st.integers(0, n_preds - 1), max_size=n_preds))
            # Partial observation exercises F_obs/S_obs too.
            observed = data.draw(
                st.one_of(
                    st.none(),
                    st.sets(st.integers(0, n_preds - 1), max_size=n_preds),
                )
            )
            runs.append((failed, true, observed))
        return make_reports(n_preds, runs), np, n_runs

    @settings(max_examples=40, **_SETTINGS)
    @given(data=st.data())
    def test_random_run_partition_merges_to_monolithic(self, data):
        """Any assignment of runs to parts, summed, reproduces the
        monolithic counts exactly (integer equality)."""
        from repro.core.scores import sufficient_counts
        from repro.store.incremental import SufficientStats

        reports, np, n_runs = self._random_population(data)
        k = data.draw(st.integers(1, 5))
        assignment = [data.draw(st.integers(0, k - 1)) for _ in range(n_runs)]
        parts = []
        for part in range(k):
            mask = np.array([a == part for a in assignment], dtype=bool)
            if mask.any():
                parts.append(SufficientStats.from_reports(reports, run_mask=mask))
        merged = parts[0].materialized()
        for part in parts[1:]:
            merged.add(part)

        F, S, F_obs, S_obs, num_failing, num_successful = sufficient_counts(reports)
        np.testing.assert_array_equal(merged.F, F)
        np.testing.assert_array_equal(merged.S, S)
        np.testing.assert_array_equal(merged.F_obs, F_obs)
        np.testing.assert_array_equal(merged.S_obs, S_obs)
        assert merged.num_failing == num_failing
        assert merged.num_successful == num_successful

    @settings(max_examples=40, **_SETTINGS)
    @given(data=st.data())
    def test_merge_shape_independence(self, data):
        """Summing parts pairwise in any order equals the in-place left
        fold the streaming scorer runs."""
        from repro.store.incremental import SufficientStats

        reports, np, n_runs = self._random_population(data)
        k = data.draw(st.integers(1, 5))
        assignment = [data.draw(st.integers(0, k - 1)) for _ in range(n_runs)]
        parts = []
        for part in range(k):
            mask = np.array([a == part for a in assignment], dtype=bool)
            parts.append(SufficientStats.from_reports(reports, run_mask=mask))
        order = data.draw(st.permutations(range(len(parts))))
        shuffled = [parts[i] for i in order]

        tree = shuffled
        while len(tree) > 1:
            tree = [sum(tree[i:i + 2], SufficientStats.zeros(tree[0].n_predicates))
                    for i in range(0, len(tree), 2)]
        tree = tree[0]
        fold = SufficientStats.zeros(parts[0].n_predicates)
        for p in parts:
            fold.add(p)
        np.testing.assert_array_equal(tree.F, fold.F)
        np.testing.assert_array_equal(tree.S, fold.S)
        np.testing.assert_array_equal(tree.F_obs, fold.F_obs)
        np.testing.assert_array_equal(tree.S_obs, fold.S_obs)
        assert tree.num_failing == fold.num_failing
        assert tree.num_successful == fold.num_successful

    @settings(max_examples=40, **_SETTINGS)
    @given(data=st.data())
    def test_predicate_slices_score_bitwise(self, data):
        """Scoring any predicate slice of the counts is bitwise equal to
        the same rows of scoring the whole table (scores are elementwise)."""
        from repro.core.scores import scores_from_counts
        from repro.store.incremental import SufficientStats

        from tests.helpers import partition_bounds

        reports, np, _ = self._random_population(data)
        stats = SufficientStats.from_reports(reports)
        parts = data.draw(st.integers(1, 8))
        whole = stats.to_scores()
        for lo, hi in partition_bounds(stats.n_predicates, parts):
            sliced = scores_from_counts(
                stats.F[lo:hi], stats.S[lo:hi], stats.F_obs[lo:hi],
                stats.S_obs[lo:hi], stats.num_failing, stats.num_successful,
            )
            for field in (
                "F", "S", "failure", "context", "increase", "increase_se",
                "increase_lo", "increase_hi", "pf", "ps", "z", "z_defined",
                "defined",
            ):
                got = getattr(sliced, field).tobytes()
                assert got == getattr(whole, field)[lo:hi].tobytes(), field
