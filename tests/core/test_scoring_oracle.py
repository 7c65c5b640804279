"""An oracle for the whole scoring path that shares no code with it.

The oracle recomputes, with plain Python loops over the run specs given
to ``make_reports``, every quantity PAPER.md section 3 defines, using the
standard-error and z definitions documented in ``repro.core.scores``:

* Failure, Context and Increase (section 3.1);
* the Laplace-smoothed standard error of Increase and its interval;
* the two-proportion z statistic of section 3.2 and its p-value;
* pruning under ``interval`` and ``ztest``;
* Importance (section 3.3) and its delta-method bounds;
* the ranking order, ties broken by predicate index;
* iterative elimination (section 3.4) under all three discard strategies.

Floats must agree to 1e-12 relative.  Orders must agree exactly wherever
the oracle's keys are further apart than that.
"""

import math
import random
from statistics import NormalDist

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.elimination import DiscardStrategy  # noqa: E402
from repro.core.engine import AnalysisEngine  # noqa: E402
from repro.core.importance import importance_scores  # noqa: E402
from repro.core.ranking import rank  # noqa: E402

from tests.helpers import make_reports  # noqa: E402

pytestmark = pytest.mark.property

TOL = 1e-12
CONFIDENCE = 0.95
CRIT = NormalDist().inv_cdf(0.5 + CONFIDENCE / 2)


def close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def counts(runs, n, active=None, labels=None):
    """``F``, ``S``, ``F obs``, ``S obs`` per predicate, then NumF, NumS."""
    F, S, F_obs, S_obs = [0] * n, [0] * n, [0] * n, [0] * n
    num_f = num_s = 0
    for r, (failed, true, observed) in enumerate(runs):
        if active is not None and not active[r]:
            continue
        failed = labels[r] if labels is not None else failed
        num_f, num_s = num_f + failed, num_s + (not failed)
        for p in range(n):
            if p in true:
                (F if failed else S)[p] += 1
            if p in observed:  # predicate p is the only one at site p
                (F_obs if failed else S_obs)[p] += 1
    return F, S, F_obs, S_obs, num_f, num_s


def score(F, S, F_obs, S_obs, num_f):
    """Every section 3 quantity of one predicate, from its counts."""
    n_true, n_obs = F + S, F_obs + S_obs
    defined = n_true > 0 and n_obs > 0
    failure = F / n_true if n_true else 0.0
    context = F_obs / n_obs if n_obs else 0.0
    increase = failure - context if defined else 0.0
    se = 0.0
    if defined:
        f, c = (F + 0.5) / (n_true + 1), (F_obs + 0.5) / (n_obs + 1)
        se = math.sqrt(f * (1 - f) / n_true + c * (1 - c) / n_obs)
    z, z_defined = 0.0, False
    if F_obs > 0 and S_obs > 0:
        pool = n_true / n_obs
        z_var = pool * (1 - pool) * (1 / F_obs + 1 / S_obs)
        z_defined = z_var > 0
        if z_defined:
            z = (F / F_obs - S / S_obs) / math.sqrt(z_var)
    p = 0.5 * math.erfc(z / math.sqrt(2)) if z_defined else 1.0
    sens = math.log(F) / math.log(num_f) if F > 0 and num_f > 1 else 0.0
    imp = 2 / (1 / increase + 1 / sens) if increase > 0 and sens > 0 else 0.0
    imp_se = (2 * sens * sens / (increase + sens) ** 2) * se if imp > 0 else 0.0
    return {
        "failure": failure, "context": context, "increase": increase,
        "increase_se": se, "increase_lo": increase - CRIT * se,
        "increase_hi": increase + CRIT * se, "z": z, "z_defined": z_defined,
        "defined": defined, "p": p, "importance": imp,
        "importance_lo": min(max(imp - CRIT * imp_se, 0.0), 1.0),
        "importance_hi": min(max(imp + CRIT * imp_se, 0.0), 1.0),
    }


def scores(runs, n, active=None, labels=None):
    F, S, F_obs, S_obs, num_f, _ = counts(runs, n, active, labels)
    return [score(F[p], S[p], F_obs[p], S_obs[p], num_f) for p in range(n)]


def prune(rows, method):
    """The kept set, or ``None`` if a row sits within TOL of its threshold."""
    kept = set()
    for p, row in enumerate(rows):
        if method == "interval":
            key, threshold, keep = row["increase_lo"], 0.0, row["increase_lo"] > 0
        else:
            key, threshold = row["p"], 1 - CONFIDENCE
            keep = row["p"] < threshold and row["increase"] > 0
        if row["defined"] and key != threshold and close(key, threshold):
            return None
        if row["defined"] and keep:
            kept.add(p)
    return kept


def eliminate(runs, n, candidates, strategy):
    """Selected ``(index, effective importance)`` pairs, and whether the
    loop ran to its end without meeting a near-tie between candidates
    whose counts differ."""
    active, labels = [True] * len(runs), [r[0] for r in runs]
    cand, picked = set(candidates), []
    while cand and any(active):
        counted = counts(runs, n, active, labels)
        if counted[4] == 0:
            break
        rows = scores(runs, n, active, labels)
        best = min(cand, key=lambda p: (-rows[p]["importance"], p))
        if rows[best]["importance"] <= 0:
            break
        key = lambda p: tuple(c[p] for c in counted[:4])  # noqa: E731
        if any(p != best and key(p) != key(best)
               and close(rows[p]["importance"], rows[best]["importance"])
               for p in cand):
            return picked, False
        picked.append((best, rows[best]["importance"]))
        cand.discard(best)
        for r, (_, true, _) in enumerate(runs):
            if active[r] and best in true:
                if strategy == 1 or (strategy == 2 and labels[r]):
                    active[r] = False
                elif strategy == 3:
                    labels[r] = False
    return picked, True


def check_order(got, want, key, counted):
    """``got`` matches ``want`` except inside near-ties of differing counts;
    exact ties of identical counts must come in ascending index order."""
    assert sorted(got) == sorted(want)
    start = 0
    for end in range(1, len(want) + 1):
        if end < len(want) and close(key[want[end - 1]], key[want[end]]):
            continue
        block = got[start:end]
        assert set(block) == set(want[start:end])
        for i, a in enumerate(block):
            for b in block[i + 1:]:
                if all(c[a] == c[b] for c in counted[:4]):
                    assert a < b
        start = end


@st.composite
def populations(draw):
    n = draw(st.integers(1, 6))
    n_runs = draw(st.integers(1, 12) | st.integers(40, 120))
    outcomes = draw(st.sampled_from(["model"] * 4 + ["one failure", "all passing"]))
    # Runs are drawn from a seeded model rather than element by element,
    # so most populations have predictors that survive pruning: a run
    # fails when a cause is true, apart from some noise.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p_true = [rng.random() for _ in range(n)]
    p_obs = rng.choice([1.0, 0.5 + rng.random() / 2])
    causes = set(rng.sample(range(n), rng.randint(1, min(2, n))))
    noise = rng.random() * 0.2
    runs = []
    for r in range(n_runs):
        observed = {p for p in range(n) if rng.random() < p_obs}
        true = {p for p in observed if rng.random() < p_true[p]}
        if outcomes != "model":
            failed = outcomes == "one failure" and r == 0
        elif rng.random() < noise:
            failed = rng.random() < 0.5
        else:
            failed = bool(true & causes)
        runs.append([failed, true, observed])
    if n > 1 and draw(st.booleans()):  # a never-observed site
        p = draw(st.integers(0, n - 1))
        for run in runs:
            run[1].discard(p)
            run[2].discard(p)
    if draw(st.booleans()):  # F = 0 for one predicate
        p = draw(st.integers(0, n - 1))
        for run in runs:
            if run[0]:
                run[1].discard(p)
    if n > 1 and draw(st.booleans()):  # a duplicated column: exact ties
        a, b = draw(st.integers(0, n - 2)), n - 1
        for run in runs:
            for members in run[1:]:
                members.discard(b)
                if a in members:
                    members.add(b)
    return n, [tuple(run) for run in runs]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(populations())
def test_pipeline_matches_oracle(population):
    n, runs = population
    reports = make_reports(n, runs)
    engine = AnalysisEngine(confidence=CONFIDENCE)
    F, S, F_obs, S_obs, num_f, num_s = counts(runs, n)
    rows = scores(runs, n)

    analysis = engine.analyze_reports(reports, stats_only=True)
    got = analysis.scores
    assert (list(got.F), list(got.S), list(got.F_obs), list(got.S_obs)) == (
        F, S, F_obs, S_obs)
    assert (got.num_failing, got.num_successful) == (num_f, num_s)
    imp = importance_scores(got)
    for p, row in enumerate(rows):
        assert bool(got.defined[p]) == row["defined"]
        assert bool(got.z_defined[p]) == row["z_defined"]
        for field in ("failure", "context", "increase", "increase_se",
                      "increase_lo", "increase_hi", "z"):
            assert close(float(getattr(got, field)[p]), row[field]), (p, field)
        assert close(float(analysis.pvalues[p]), row["p"])
        assert close(float(analysis.measure_values[p]), row["importance"])
        assert close(float(imp.lo[p]), row["importance_lo"])
        assert close(float(imp.hi[p]), row["importance_hi"])

    for method in ("interval", "ztest"):
        kept = prune(rows, method)
        if kept is None:
            continue
        scoring = engine.score_stats(analysis.stats, method=method)
        assert set(scoring.pruning.kept_indices.tolist()) == kept, method

        key = [row["importance"] for row in rows]
        ranking = rank(reports.table, scoring.scores, scoring.measure_values,
                       candidates=scoring.pruning.kept)
        check_order([e.predicate.index for e in ranking],
                    sorted(kept, key=lambda p: (-key[p], p)),
                    key, (F, S, F_obs, S_obs))

        for strategy in DiscardStrategy:
            want, complete = eliminate(runs, n, kept, strategy.value)
            result = engine.analyze_reports(
                reports, method=method, strategy=strategy).elimination
            selected = [(s.predicate.index, s.effective.importance)
                        for s in result.selected]
            if complete:
                assert len(selected) == len(want), strategy
            for (gi, gimp), (wi, wimp) in zip(selected, want):
                assert gi == wi and close(gimp, wimp), strategy
