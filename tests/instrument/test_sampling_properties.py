"""Property-based tests for the sampling machinery.

Three families of properties:

* the geometric-countdown sampler is *distributionally equivalent* to
  per-opportunity Bernoulli coin flips (the paper's "each potential
  sample is taken or skipped randomly and independently"), and the
  countdown inlined into every observation helper (the transform's
  ``branch``, ``ret`` and ``pairs``) is *exactly* equivalent to drawing
  geometric gaps from the same RNG stream.  The oracle is written here
  and shares no code with :class:`Runtime`: it draws the gaps by inverse
  CDF from ``random.Random(seed)`` itself;
* each run's stream is the oracle's for its own seed, whatever an
  earlier run on the same runtime left behind;
* sufficient statistics add exactly over any run partition, and scoring
  is elementwise over predicates.

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
}


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
        rates = [rate, 0.5]
        visits = _visits(seed, 2, n)
        if mode == "uniform":
            plan, want = SamplingPlan.uniform(rate), _uniform_oracle(rate, seed, n)
        else:
            plan, want = SamplingPlan.per_site(rates), _per_site_oracle(rates, seed, visits)
        for helper, skip in self._NO_TICK:
            runtime = _runtime(helper, 2)
            runtime.begin_run(plan, seed=seed)
            # An unobservable call before every real opportunity meets
            # every gap state, including the one where a tick would take
            # a sample: the real opportunities' stream stays the oracle's
            # only if none of those calls ticked.
            stream = []
            for s in visits:
                counts = runtime.end_run()
                skip(runtime, s)
                assert runtime.end_run() == counts, helper
                stream.append(taken(runtime, helper, s))
            assert stream == want, helper


def _plan(mode, rates):
    """A ``mode`` plan over ``len(rates)`` sites (uniform takes ``rates[0]``)."""
    if mode == "full":
        return SamplingPlan.full()
    if mode == "uniform":
        return SamplingPlan.uniform(rates[0])
    return SamplingPlan.per_site(rates)


class TestRunStartsFromItsSeed:
    """A run's countdowns come from its seed alone.  Whatever an earlier
    run on the same :class:`Runtime` left behind -- another mode, a
    half-dealt uniform gap batch, per-site countdowns -- the next run's
    take/skip stream is the oracle's for its own seed.  That is what lets
    a retried chunk rerun its seeds from scratch instead of resuming a
    sampler mid-run."""

    _earlier = st.sampled_from(["full", "uniform", "per-site"])

    @staticmethod
    def _leave_behind(runtime, helper, mode, rates, seed, warmup):
        runtime.begin_run(_plan(mode, rates), seed=seed)
        for i in range(warmup):
            taken(runtime, helper, i % len(rates))

    @pytest.mark.parametrize("helper", sorted(HELPERS))
    @settings(max_examples=20, **_SETTINGS)
    @given(
        earlier=_earlier,
        rate=_rates,
        seed=_seeds,
        warmup=st.integers(min_value=0, max_value=150),
        n=st.integers(min_value=1, max_value=200),
    )
    def test_uniform_run_ignores_the_earlier_run(self, helper, earlier, rate, seed, warmup, n):
        runtime = _runtime(helper)
        self._leave_behind(runtime, helper, earlier, [rate], seed + 1, warmup)
        runtime.begin_run(SamplingPlan.uniform(rate), seed=seed)
        stream = [taken(runtime, helper) for _ in range(n)]
        assert stream == _uniform_oracle(rate, seed, n)

    @pytest.mark.parametrize("helper", sorted(HELPERS))
    @settings(max_examples=20, **_SETTINGS)
    @given(
        earlier=_earlier,
        seed=_seeds,
        warmup=st.integers(min_value=0, max_value=150),
        n=st.integers(min_value=1, max_value=200),
        rates=st.lists(_rates, min_size=2, max_size=4),
    )
    def test_per_site_run_ignores_the_earlier_run(self, helper, earlier, seed, warmup, n, rates):
        visits = _visits(seed, len(rates), n)
        runtime = _runtime(helper, len(rates))
        self._leave_behind(runtime, helper, earlier, rates, seed + 1, warmup)
        runtime.begin_run(SamplingPlan.per_site(rates), seed=seed)
        stream = [taken(runtime, helper, s) for s in visits]
        assert stream == _per_site_oracle(rates, seed, visits)

    @pytest.mark.parametrize("helper", sorted(HELPERS))
    @settings(max_examples=20, **_SETTINGS)
    @given(
        earlier=_earlier,
        rate=_rates,
        seed=_seeds,
        warmup=st.integers(min_value=0, max_value=150),
    )
    def test_full_run_takes_every_opportunity(self, helper, earlier, rate, seed, warmup):
        runtime = _runtime(helper)
        self._leave_behind(runtime, helper, earlier, [rate], seed, warmup)
        runtime.begin_run(SamplingPlan.full(), seed=seed)
        assert all(taken(runtime, helper) for _ in range(50))


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
