"""Property tests for the measure table, with an exact oracle.

The oracle recomputes ``tarantula``, ``ochiai`` (through its square,
which orders alike), ``jaccard`` and ``dstar2`` -- and ``f1``, which left
the table because it ranks exactly like ``jaccard`` -- as
``fractions.Fraction`` values from the counts.  It uses the standard
library only.  The table's float order must equal the exact order with
ties broken by predicate index, on populations that mix in exact ties:
scaled pairs ``(mF, mS)``/``(kF, kS)`` (equal ``F/(F+S)``) and pairs
with equal ``F^2/(F+S)``.

Beside the oracle: every measure is deterministic, finite, shaped and
elementwise, and the measures that promise it are non-decreasing in
``F``.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

pytestmark = pytest.mark.property


# --- the oracle: exact rationals, standard library only -------------------


def _rate(count, total):
    return Fraction(count, total) if total else Fraction(0)


def tarantula(F, S, num_f, num_s):
    fail, succ = _rate(F, num_f), _rate(S, num_s)
    return fail / (fail + succ) if fail + succ else Fraction(0)


def ochiai_squared(F, S, num_f, num_s):
    return _rate(F * F, num_f * (F + S))


def jaccard(F, S, num_f, num_s):
    return _rate(F, num_f + S)


def dstar2(F, S, num_f, num_s):
    return Fraction(F * F, max(S + num_f - F, 1))


def f1(F, S, num_f, num_s):
    return _rate(2 * F, 2 * F + (num_f - F) + S)


ORACLES = {
    "tarantula": tarantula,
    "ochiai": ochiai_squared,
    "jaccard": jaccard,
    "dstar2": dstar2,
}


def exact_order(keys):
    """Indices by descending key, ties in ascending index order."""
    return sorted(range(len(keys)), key=lambda i: (-keys[i], i))


@st.composite
def tie_populations(draw):
    """``(rows, NumF, NumS)``: ``(F, S)`` rows with exact ties mixed in."""
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)),
            min_size=0, max_size=5,
        )
    )
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        if draw(st.booleans()):  # equal F/(F+S)
            m, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
            rows += [(m * a, m * b), (k * a, k * b)]
        else:  # equal F^2/(F+S): (a, b) and (ka, k^2(a+b) - ka)
            a, k = max(a, 1), draw(st.integers(2, 4))
            rows += [(a, b), (k * a, k * k * (a + b) - k * a)]
    rows = draw(st.permutations(rows))
    num_f = max(F for F, _ in rows) + draw(st.integers(0, 8))
    num_s = max(S for _, S in rows) + draw(st.integers(0, 8))
    return rows, num_f, num_s


# --- the system under test -------------------------------------------------

import numpy as np  # noqa: E402

from repro.core import measures  # noqa: E402
from repro.core.ranking import order  # noqa: E402
from repro.core.scores import SufficientStats  # noqa: E402

#: Measures whose value is non-decreasing in ``F`` with ``S``,
#: ``F_obs``, ``S_obs`` and the totals held fixed.
MONOTONE_IN_F = ("tarantula", "ochiai", "jaccard", "dstar2", "increase")


def _scores(F, S, F_obs, S_obs, num_f, num_s):
    return SufficientStats(
        np.asarray(F, dtype=np.int64),
        np.asarray(S, dtype=np.int64),
        np.asarray(F_obs, dtype=np.int64),
        np.asarray(S_obs, dtype=np.int64),
        num_f,
        num_s,
    ).to_scores()


def _table_values(pop, name):
    """The table's values for ``(rows, NumF, NumS)``, every site observed
    in every run (the four rational measures never read ``F_obs``)."""
    rows, num_f, num_s = pop
    n = len(rows)
    sc = _scores(
        [F for F, _ in rows], [S for _, S in rows],
        [num_f] * n, [num_s] * n, num_f, num_s,
    )
    return measures.measure_values(sc, name)


def _exact(pop, oracle):
    rows, num_f, num_s = pop
    return [oracle(F, S, num_f, num_s) for F, S in rows]


class TestExactOrder:
    @pytest.mark.parametrize("name", sorted(ORACLES))
    @settings(max_examples=150, deadline=None)
    @given(pop=tie_populations())
    @example(pop=([(1, 1), (3, 3)], 3, 4))  # tarantula 4/7, rounded twice
    @example(pop=([(1, 0), (3, 6)], 3, 6))  # ochiai^2 1/3 both
    def test_float_order_is_exact_order(self, name, pop):
        got = order(_table_values(pop, name)).tolist()
        assert got == exact_order(_exact(pop, ORACLES[name]))

    @pytest.mark.parametrize("name", ["tarantula", "jaccard", "dstar2"])
    @settings(max_examples=100, deadline=None)
    @given(pop=tie_populations())
    def test_one_division_is_correctly_rounded(self, name, pop):
        """``float(Fraction)`` rounds the exact rational once."""
        got = _table_values(pop, name).tolist()
        assert got == [float(v) for v in _exact(pop, ORACLES[name])]

    @settings(max_examples=150, deadline=None)
    @given(pop=tie_populations())
    def test_f1_ranks_exactly_like_jaccard(self, pop):
        """F1 = 2J/(1+J) at fixed NumF: the reason ``f1`` is not a row."""
        got = order(_table_values(pop, "jaccard")).tolist()
        assert got == exact_order(_exact(pop, f1))


@st.composite
def count_populations(draw):
    """Consistent sufficient statistics: F <= F_obs <= NumF, same for S."""
    num_f = draw(st.integers(min_value=1, max_value=40))
    num_s = draw(st.integers(min_value=1, max_value=40))
    n = draw(st.integers(min_value=1, max_value=8))
    F_obs = draw(
        st.lists(st.integers(0, num_f), min_size=n, max_size=n)
    )
    S_obs = draw(
        st.lists(st.integers(0, num_s), min_size=n, max_size=n)
    )
    F = [draw(st.integers(0, fo)) for fo in F_obs]
    S = [draw(st.integers(0, so)) for so in S_obs]
    return F, S, F_obs, S_obs, num_f, num_s


class TestMeasureProperties:
    @settings(max_examples=60, deadline=None)
    @given(pop=count_populations())
    def test_deterministic_finite_and_shaped(self, pop):
        F, S, F_obs, S_obs, num_f, num_s = pop
        sc = _scores(F, S, F_obs, S_obs, num_f, num_s)
        for name in measures.available():
            a = measures.measure_values(sc, name)
            b = measures.measure_values(sc, name)
            assert a.shape == (len(F),)
            assert np.all(np.isfinite(a))
            assert a.tobytes() == b.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(pop=count_populations())
    def test_elementwise_partition_invariance(self, pop):
        """Scoring any prefix/suffix split concatenates to the full table."""
        F, S, F_obs, S_obs, num_f, num_s = pop
        n = len(F)
        cut = n // 2
        whole = _scores(F, S, F_obs, S_obs, num_f, num_s)
        left = _scores(F[:cut], S[:cut], F_obs[:cut], S_obs[:cut], num_f, num_s)
        right = _scores(F[cut:], S[cut:], F_obs[cut:], S_obs[cut:], num_f, num_s)
        for name in measures.available():
            full = measures.measure_values(whole, name)
            parts = np.concatenate(
                [
                    measures.measure_values(left, name) if cut else np.empty(0),
                    measures.measure_values(right, name),
                ]
            )
            assert full.tobytes() == parts.tobytes(), name

    @settings(max_examples=60, deadline=None)
    @given(pop=count_populations(), data=st.data())
    def test_monotone_measures_non_decreasing_in_F(self, pop, data):
        F, S, F_obs, S_obs, num_f, num_s = pop
        idx = data.draw(st.integers(0, len(F) - 1))
        if F[idx] >= F_obs[idx]:
            return  # cannot raise F without breaking F <= F_obs
        bumped = list(F)
        bumped[idx] += 1
        base = _scores(F, S, F_obs, S_obs, num_f, num_s)
        more = _scores(bumped, S, F_obs, S_obs, num_f, num_s)
        for name in MONOTONE_IN_F:
            lo = measures.measure_values(base, name)[idx]
            hi = measures.measure_values(more, name)[idx]
            assert hi >= lo, f"{name}: F {F[idx]}->{bumped[idx]} gave {lo}->{hi}"
