"""Property-based tests for the sampling machinery.

Two families of properties:

* the geometric-countdown sampler is *distributionally equivalent* to
  per-opportunity Bernoulli coin flips (the paper's "each potential
  sample is taken or skipped randomly and independently"), and the
  countdown inlined into every observation helper (the transform's
  ``branch``, ``ret`` and ``pairs``, and the hand-rolled ``custom``) is
  *exactly* equivalent to drawing geometric gaps from the same RNG
  stream.  The oracle is written here and shares no code with
  :class:`Runtime`: it draws the gaps by inverse CDF from
  ``random.Random(seed)`` itself;
* sampler state round-trips through
  :meth:`Runtime.sampler_state`/:meth:`restore_sampler_state`, so the
  take/skip decision stream survives an arbitrary split point.  (The
  fault-tolerant collector does not rely on this: a retried chunk reruns
  its seed range from scratch, each run a pure function of its seed.)

Every decision is read off the public helpers: an opportunity counts as
taken when it raised the site's observation counter.

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

from repro.core.predicates import PredicateTable, Scheme  # noqa: E402
from repro.instrument.runtime import UNBOUND, Runtime  # noqa: E402
from repro.instrument.sampling import SamplingPlan, geometric_gap  # noqa: E402

pytestmark = pytest.mark.property

#: Shared hypothesis profile: deterministic, no deadline (statistical
#: examples do real simulation work), modest example counts.
_SETTINGS = dict(derandomize=True, deadline=None)

_rates = st.floats(min_value=0.02, max_value=1.0, allow_nan=False)
_seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: Each observation helper: the scheme of the sites it records at, and
#: a call that offers site ``s`` exactly one sampling opportunity.
HELPERS = {
    "branch": (Scheme.BRANCHES, lambda rt, s: rt.branch(s, True)),
    "ret": (Scheme.RETURNS, lambda rt, s: rt.ret(s, 3)),
    "pairs": (Scheme.SCALAR_PAIRS, lambda rt, s: rt.pairs((s,), 1, (2,))),
    "custom": (Scheme.CUSTOM, lambda rt, s: rt.custom(s, [True])),
}

_helpers = st.sampled_from(sorted(HELPERS))


def _mean(xs):
    return sum(xs) / len(xs)


def _runtime(helper, n_sites=1):
    """A runtime over ``n_sites`` sites of ``helper``'s scheme."""
    scheme = HELPERS[helper][0]
    table = PredicateTable()
    for i in range(n_sites):
        table.add_site(scheme, "f", i + 1, f"s{i}")
    return Runtime(table)


def taken(runtime, helper, site=0):
    """Offer ``site`` one opportunity through ``helper``; report whether
    it was sampled (the site's observation counter went up)."""
    before = runtime._site_obs[site]
    HELPERS[helper][1](runtime, site)
    return runtime._site_obs[site] > before


def _oracle_gap(rate, u):
    """Geometric(rate) gap on {1, 2, ...} by inverse CDF."""
    if rate >= 1.0:
        return 1
    return int(math.floor(math.log(max(u, 1e-300)) / math.log(1.0 - rate))) + 1


def _uniform_oracle(rate, seed, n):
    """The take/skip stream of one countdown over gaps drawn from
    ``random.Random(seed)``."""
    rng = random.Random(seed)
    gap = _oracle_gap(rate, rng.random())
    stream = []
    for _ in range(n):
        gap -= 1
        stream.append(gap <= 0)
        if gap <= 0:
            gap = _oracle_gap(rate, rng.random())
    return stream


def _per_site_oracle(rates, seed, visits):
    """The take/skip stream of one independent countdown per site: the
    initial gaps are drawn in site order, refills in visit order."""
    rng = random.Random(seed)
    gaps = [_oracle_gap(r, rng.random()) for r in rates]
    stream = []
    for s in visits:
        gaps[s] -= 1
        stream.append(gaps[s] <= 0)
        if gaps[s] <= 0:
            gaps[s] = _oracle_gap(rates[s], rng.random())
    return stream


def _visits(seed, n_sites, n):
    """An interleaved visit order over ``n_sites`` sites."""
    site_rng = random.Random(seed ^ 0x5EED)
    return [site_rng.randrange(n_sites) for _ in range(n)]


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

    @pytest.mark.parametrize("helper", sorted(HELPERS))
    @settings(max_examples=25, **_SETTINGS)
    @given(rate=_rates, seed=_seeds, n=st.integers(min_value=1, max_value=400))
    def test_runtime_countdown_equals_gap_stream(self, helper, rate, seed, n):
        """Each helper's inlined uniform-mode countdown takes exactly the
        opportunities implied by drawing geometric gaps from the same
        RNG -- the countdown is an implementation of the gap draw, not an
        approximation of it."""
        runtime = _runtime(helper)
        runtime.begin_run(SamplingPlan.uniform(rate), seed=seed)
        stream = [taken(runtime, helper) for _ in range(n)]
        assert stream == _uniform_oracle(rate, seed, n)

    @pytest.mark.parametrize("helper", sorted(HELPERS))
    @settings(max_examples=20, **_SETTINGS)
    @given(
        seed=_seeds,
        n=st.integers(min_value=1, max_value=300),
        rates=st.lists(_rates, min_size=2, max_size=4),
    )
    def test_per_site_countdown_equals_gap_stream(self, helper, seed, n, rates):
        """Under a per-site plan every site runs its own countdown over
        the shared RNG; interleaved visits take exactly the oracle's
        opportunities."""
        visits = _visits(seed, len(rates), n)
        runtime = _runtime(helper, len(rates))
        runtime.begin_run(SamplingPlan.per_site(rates), seed=seed)
        stream = [taken(runtime, helper, s) for s in visits]
        assert stream == _per_site_oracle(rates, seed, visits)


class TestTickRule:
    """Which calls consume a countdown tick.  Today only an opportunity
    the helper can observe does: a non-scalar ``ret``/``pairs`` operand
    (``bool`` included) leaves the sampler untouched, as if the call never happened."""

    _NO_TICK = [
        ("ret", lambda rt, s: rt.ret(s, True)),
        ("ret", lambda rt, s: rt.ret(s, None)),
        ("ret", lambda rt, s: rt.ret(s, "3")),
        ("pairs", lambda rt, s: rt.pairs((s,), True, (2,))),
        ("pairs", lambda rt, s: rt.pairs((s,), 1, (False,))),
        ("pairs", lambda rt, s: rt.pairs((s,), 1, (UNBOUND,))),
        ("pairs", lambda rt, s: rt.pairs((s,), [1], (2,))),
    ]

    @settings(max_examples=15, **_SETTINGS)
    @given(
        mode=st.sampled_from(["uniform", "per-site"]),
        rate=_rates,
        seed=_seeds,
        n=st.integers(min_value=1, max_value=200),
    )
    def test_unobservable_operands_consume_no_tick(self, mode, rate, seed, n):
        plan = (
            SamplingPlan.uniform(rate)
            if mode == "uniform"
            else SamplingPlan.per_site([rate, 0.5])
        )
        for helper, skip in self._NO_TICK:
            runtime = _runtime(helper, 2)
            runtime.begin_run(plan, seed=seed)
            # Real opportunities in between move the countdowns, so the
            # unobservable calls meet every gap state, including the one
            # where a tick would take a sample.
            for s in _visits(seed, 2, n):
                state, observed = runtime.sampler_state(), list(runtime._site_obs)
                skip(runtime, s)
                assert runtime.sampler_state() == state, helper
                assert runtime._site_obs == observed, helper
                taken(runtime, helper, s)


class TestSamplerStateRoundTrip:
    """Countdown state survives an arbitrary split point: restoring a
    snapshot into a *different* Runtime instance continues the decision
    stream exactly where the original would have."""

    @settings(max_examples=25, **_SETTINGS)
    @given(
        helper=_helpers,
        rate=_rates,
        seed=_seeds,
        n=st.integers(min_value=2, max_value=300),
        data=st.data(),
    )
    def test_uniform_stream_survives_split(self, helper, rate, seed, n, data):
        split = data.draw(st.integers(min_value=0, max_value=n))
        whole = _uniform_oracle(rate, seed, n)

        first = _runtime(helper)
        first.begin_run(SamplingPlan.uniform(rate), seed=seed)
        head = [taken(first, helper) for _ in range(split)]
        snapshot = first.sampler_state()

        second = _runtime(helper)
        second.begin_run(SamplingPlan.uniform(rate), seed=seed + 12345)
        second.restore_sampler_state(snapshot)
        tail = [taken(second, helper) for _ in range(n - split)]
        assert head + tail == whole

    @settings(max_examples=20, **_SETTINGS)
    @given(
        helper=_helpers,
        seed=_seeds,
        n=st.integers(min_value=2, max_value=200),
        rates=st.lists(_rates, min_size=2, max_size=4),
        data=st.data(),
    )
    def test_per_site_stream_survives_split(self, helper, seed, n, rates, data):
        split = data.draw(st.integers(min_value=0, max_value=n))
        n_sites = len(rates)
        plan = SamplingPlan.per_site(rates)
        visits = _visits(seed, n_sites, n)
        whole = _per_site_oracle(rates, seed, visits)

        first = _runtime(helper, n_sites)
        first.begin_run(plan, seed=seed)
        head = [taken(first, helper, s) for s in visits[:split]]
        snapshot = first.sampler_state()

        second = _runtime(helper, n_sites)
        second.begin_run(plan, seed=seed + 999)
        second.restore_sampler_state(snapshot)
        tail = [taken(second, helper, s) for s in visits[split:]]
        assert head + tail == whole

    @settings(max_examples=20, **_SETTINGS)
    @given(helper=_helpers, seed=_seeds)
    def test_full_mode_round_trips(self, helper, seed):
        runtime = _runtime(helper)
        runtime.begin_run(SamplingPlan.full(), seed=seed)
        snapshot = runtime.sampler_state()
        assert snapshot["mode"] == "full"
        other = _runtime(helper)
        other.begin_run(SamplingPlan.uniform(0.5), seed=seed)
        other.restore_sampler_state(snapshot)
        assert all(taken(other, helper) for _ in range(50))

    @settings(max_examples=15, **_SETTINGS)
    @given(rate=_rates, seed=_seeds)
    def test_snapshot_does_not_disturb_counters(self, rate, seed):
        """Snapshotting and restoring is observation-neutral: only the
        sampling side moves, never the counters."""
        runtime = _runtime("branch")
        runtime.begin_run(SamplingPlan.uniform(rate), seed=seed)
        for _ in range(20):
            runtime.branch(0, True)
        before = runtime.end_run()
        runtime.restore_sampler_state(runtime.sampler_state())
        assert runtime.end_run() == before

    def test_unknown_snapshot_kind_rejected(self):
        """A snapshot must name a known sampler ``mode``."""
        runtime = _runtime("branch")
        runtime.begin_run(SamplingPlan.full(), seed=0)
        snapshot = runtime.sampler_state()
        snapshot["mode"] = "quantum"
        with pytest.raises(ValueError, match="unknown sampler mode 'quantum'"):
            runtime.restore_sampler_state(snapshot)
        del snapshot["mode"]
        with pytest.raises(ValueError, match="unknown sampler mode None"):
            runtime.restore_sampler_state(snapshot)


class TestExplicitModeRoundTrip:
    """The runtime's explicit ``mode`` attribute round-trips through
    ``sampler_state`` / ``restore_sampler_state``: restoring reproduces
    the attribute (and the integer dispatch id behind the helpers)
    exactly."""

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
    )
    def test_mode_round_trips(self, mode, rate, seed, warmup):
        runtime = _runtime("branch", 2)
        self._begin(runtime, mode, rate, seed)
        for _ in range(warmup):
            taken(runtime, "branch")
        assert runtime.mode == mode
        snapshot = runtime.sampler_state()
        assert snapshot["mode"] == mode

        other = _runtime("branch", 2)
        # Start the receiver in a *different* mode: the snapshot wins.
        self._begin(other, "uniform" if mode != "uniform" else "full", 0.5, seed + 7)
        other.restore_sampler_state(snapshot)
        assert other.mode == mode
        assert other.sampler_state()["mode"] == mode

    @settings(max_examples=25, **_SETTINGS)
    @given(
        helper=_helpers,
        rate=_rates,
        seed=_seeds,
        warmup=st.integers(min_value=0, max_value=120),
        n=st.integers(min_value=1, max_value=200),
    )
    def test_pending_gap_batch_survives_round_trip(self, helper, rate, seed, warmup, n):
        """Uniform-mode refills pre-draw a batch of countdown gaps; a
        snapshot taken mid-batch must hand the unconsumed gaps (in
        consumption order) to the restored instance, keeping the decision
        stream bit-identical to the uninterrupted one."""
        whole = _uniform_oracle(rate, seed, warmup + n)

        first = _runtime(helper)
        first.begin_run(SamplingPlan.uniform(rate), seed=seed)
        head = [taken(first, helper) for _ in range(warmup)]
        snapshot = first.sampler_state()
        assert snapshot["pending"] == first.sampler_state()["pending"]

        second = _runtime(helper)
        second.begin_run(SamplingPlan.uniform(0.9), seed=seed + 1)
        second.restore_sampler_state(snapshot)
        tail = [taken(second, helper) for _ in range(n)]
        assert head + tail == whole


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
        from repro.core.scores import SufficientStats

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

        whole = SufficientStats.from_reports(reports)
        np.testing.assert_array_equal(merged.F, whole.F)
        np.testing.assert_array_equal(merged.S, whole.S)
        np.testing.assert_array_equal(merged.F_obs, whole.F_obs)
        np.testing.assert_array_equal(merged.S_obs, whole.S_obs)
        assert merged.num_failing == whole.num_failing
        assert merged.num_successful == whole.num_successful

    @settings(max_examples=40, **_SETTINGS)
    @given(data=st.data())
    def test_merge_shape_independence(self, data):
        """Summing parts pairwise in any order equals the in-place left
        fold the streaming scorer runs."""
        from repro.core.scores import SufficientStats

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
        from repro.core.scores import SufficientStats

        from tests.helpers import partition_bounds

        reports, np, _ = self._random_population(data)
        stats = SufficientStats.from_reports(reports)
        parts = data.draw(st.integers(1, 8))
        whole = stats.to_scores()
        for lo, hi in partition_bounds(stats.n_predicates, parts):
            sliced = SufficientStats(
                stats.F[lo:hi], stats.S[lo:hi], stats.F_obs[lo:hi],
                stats.S_obs[lo:hi], stats.num_failing, stats.num_successful,
            ).to_scores()
            for field in (
                "F", "S", "failure", "context", "increase", "increase_se",
                "increase_lo", "increase_hi", "pf", "ps", "z", "z_defined",
                "defined",
            ):
                got = getattr(sliced, field).tobytes()
                assert got == getattr(whole, field)[lo:hi].tobytes(), field
