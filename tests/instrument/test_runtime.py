"""Tests for the observation runtime (branch/ret/pairs semantics)."""

import pytest

from repro.core.predicates import PredicateTable, Scheme
from repro.instrument.runtime import Runtime, UNBOUND
from repro.instrument.sampling import SamplingPlan


def _runtime_with(scheme, description="x"):
    table = PredicateTable()
    site = table.add_site(scheme, "f", 1, description)
    rt = Runtime(table)
    rt.begin_run(SamplingPlan.full(), seed=0)
    return rt, site, table


class TestBranch:
    def test_true_and_false_counted_separately(self):
        rt, site, table = _runtime_with(Scheme.BRANCHES)
        assert rt.branch(site.index, 1 > 0) is True
        assert rt.branch(site.index, []) == []  # falsy passthrough
        site_obs, pred_true = rt.end_run()
        assert site_obs[site.index] == 2
        assert pred_true == {0: 1, 1: 1}

    def test_value_returned_unchanged(self):
        rt, site, _ = _runtime_with(Scheme.BRANCHES)
        sentinel = object()
        assert rt.branch(site.index, sentinel) is sentinel


class TestReturns:
    @pytest.mark.parametrize(
        "value,expected_offsets",
        [
            (-3, {0, 4, 5}),  # <0, !=0, <=0
            (0, {1, 3, 5}),   # ==0, >=0, <=0
            (7, {2, 3, 4}),   # >0, >=0, !=0
            (2.5, {2, 3, 4}),
        ],
    )
    def test_sign_predicates(self, value, expected_offsets):
        rt, site, _ = _runtime_with(Scheme.RETURNS)
        assert rt.ret(site.index, value) == value
        _, pred_true = rt.end_run()
        assert set(pred_true) == expected_offsets

    def test_exactly_three_of_six_true_per_observation(self):
        """The paper: one sampled negative return observes all six
        predicates but only three are observed to be true."""
        rt, site, _ = _runtime_with(Scheme.RETURNS)
        rt.ret(site.index, -1)
        site_obs, pred_true = rt.end_run()
        assert site_obs[site.index] == 1
        assert len(pred_true) == 3

    def test_non_scalar_returns_leave_site_unobserved(self):
        rt, site, _ = _runtime_with(Scheme.RETURNS)
        assert rt.ret(site.index, "text") == "text"
        assert rt.ret(site.index, None) is None
        site_obs, pred_true = rt.end_run()
        assert site_obs == {} and pred_true == {}

    def test_bool_returns_leave_site_unobserved(self):
        """Regression: ``isinstance(True, int)`` must not make Python truth
        values count as scalar returns -- the paper's C scheme only covers
        scalar-returning call sites, and bool-returning calls have no C
        analogue (their information lives in the ``branches`` scheme)."""
        rt, site, _ = _runtime_with(Scheme.RETURNS)
        assert rt.ret(site.index, True) is True
        assert rt.ret(site.index, False) is False
        site_obs, pred_true = rt.end_run()
        assert site_obs == {} and pred_true == {}


class TestPairs:
    def test_relations_recorded(self):
        rt, site, _ = _runtime_with(Scheme.SCALAR_PAIRS, "x __ y")
        rt.pairs((site.index,), 3, (5,))
        _, pred_true = rt.end_run()
        assert set(pred_true) == {0, 4, 5}  # <, !=, <=

    def test_equal_values(self):
        rt, site, _ = _runtime_with(Scheme.SCALAR_PAIRS, "x __ y")
        rt.pairs((site.index,), 4, (4,))
        _, pred_true = rt.end_run()
        assert set(pred_true) == {1, 3, 5}  # ==, >=, <=

    def test_unbound_sentinel_skips_site(self):
        rt, site, _ = _runtime_with(Scheme.SCALAR_PAIRS, "x __ y")
        rt.pairs((site.index,), 3, (UNBOUND,))
        site_obs, _ = rt.end_run()
        assert site_obs == {}

    def test_non_numeric_x_skips_everything(self):
        rt, site, _ = _runtime_with(Scheme.SCALAR_PAIRS, "x __ y")
        rt.pairs((site.index,), "str", (5,))
        site_obs, _ = rt.end_run()
        assert site_obs == {}

    def test_bool_operands_leave_site_unobserved(self):
        """Regression: bools are not scalars for the scalar-pairs scheme,
        on either side of the pair."""
        rt, site, _ = _runtime_with(Scheme.SCALAR_PAIRS, "x __ y")
        rt.pairs((site.index,), True, (5,))
        rt.pairs((site.index,), 3, (False,))
        site_obs, pred_true = rt.end_run()
        assert site_obs == {} and pred_true == {}


class TestSamplingIntegration:
    def test_full_plan_observes_everything(self):
        rt, site, _ = _runtime_with(Scheme.BRANCHES)
        for _ in range(100):
            rt.branch(site.index, True)
        site_obs, _ = rt.end_run()
        assert site_obs[site.index] == 100

    def test_uniform_sampling_thins_observations(self):
        rt, site, _ = _runtime_with(Scheme.BRANCHES)
        rt.begin_run(SamplingPlan.uniform(0.05), seed=3)
        for _ in range(2000):
            rt.branch(site.index, True)
        site_obs, _ = rt.end_run()
        count = site_obs.get(site.index, 0)
        assert 50 <= count <= 160  # ~100 expected

    def test_per_site_rates_respected(self):
        table = PredicateTable()
        hot = table.add_site(Scheme.BRANCHES, "f", 1, "hot")
        rare = table.add_site(Scheme.BRANCHES, "f", 2, "rare")
        rt = Runtime(table)
        rt.begin_run(SamplingPlan.per_site([0.01, 1.0]), seed=5)
        for _ in range(1000):
            rt.branch(hot.index, True)
        rt.branch(rare.index, True)
        site_obs, _ = rt.end_run()
        assert site_obs[rare.index] == 1  # rate-1.0 site never misses
        assert site_obs.get(hot.index, 0) < 50

    @pytest.mark.parametrize("rates", [[0.5], [0.5, 0.5, 0.5]])
    def test_per_site_plan_needs_one_rate_per_site(self, rates):
        table = PredicateTable()
        table.add_site(Scheme.BRANCHES, "f", 1, "a")
        table.add_site(Scheme.BRANCHES, "f", 2, "b")
        with pytest.raises(ValueError, match="exactly one rate per site"):
            Runtime(table).begin_run(SamplingPlan.per_site(rates), seed=0)

    def test_runs_are_reproducible_by_seed(self):
        rt, site, _ = _runtime_with(Scheme.BRANCHES)

        def run(seed):
            rt.begin_run(SamplingPlan.uniform(0.1), seed=seed)
            for i in range(500):
                rt.branch(site.index, i % 3 == 0)
            return rt.end_run()

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_begin_run_resets_counters(self):
        rt, site, _ = _runtime_with(Scheme.BRANCHES)
        rt.branch(site.index, True)
        rt.begin_run(SamplingPlan.full(), seed=1)
        site_obs, pred_true = rt.end_run()
        assert site_obs == {} and pred_true == {}

    def test_unknown_plan_mode_rejected(self):
        rt, _, _ = _runtime_with(Scheme.BRANCHES)
        with pytest.raises(ValueError):
            rt.begin_run(SamplingPlan(mode="bogus"), seed=0)


class TestCustomSitesInTheTable:
    def test_helpers_index_past_custom_sites(self):
        """A table may hold custom sites (the synthetic tables, decoded
        archives), one with no predicates at all.  The runtime still
        builds and each helper counts at its own site's predicates."""
        table = PredicateTable()
        table.add_custom_site("f", 1, "empty family", [])
        table.add_custom_site("f", 2, "heap", ["ok", "bad"])
        branch = table.add_site(Scheme.BRANCHES, "f", 3, "x")
        ret = table.add_site(Scheme.RETURNS, "f", 4, "g()")
        rt = Runtime(table)
        rt.begin_run(SamplingPlan.full(), seed=0)
        rt.branch(branch.index, False)
        rt.ret(ret.index, -1)
        site_obs, pred_true = rt.end_run()
        assert site_obs == {branch.index: 1, ret.index: 1}
        b = table.predicate_indices_at(branch.index)[0]
        r = table.predicate_indices_at(ret.index)[0]
        assert pred_true == {b + 1: 1, r: 1, r + 4: 1, r + 5: 1}
