"""Tests for intra-site logical redundancy elimination (Section 3.4)."""

from repro.core.dedup import intra_site_dedup
from repro.core.elimination import eliminate
from repro.core.predicates import PredicateTable, Scheme
from repro.core.reports import ReportSet, RunReport


def _returns_population(values_per_run):
    """One returns site; each run observes the call once with the given
    value, so the six sign predicates form equivalence classes."""
    table = PredicateTable()
    site = table.add_site(Scheme.RETURNS, "f", 1, "g")
    runs = []
    for seed, (failed, value) in enumerate(values_per_run):
        true = set()
        if value < 0:
            true = {0, 4, 5}
        elif value == 0:
            true = {1, 3, 5}
        else:
            true = {2, 3, 4}
        runs.append(RunReport(seed, failed, {site.index: 1}, {p: 1 for p in true}))
    return ReportSet.from_runs(table, runs)


class TestDedup:
    def test_always_positive_return_collapses_classes(self):
        # Value always positive: {>0, >=0, !=0} identical; {<0, ==0, <=0}
        # all never-true (one empty-pattern class).
        reports = _returns_population([(False, 5), (True, 3), (False, 9)])
        result = intra_site_dedup(reports)
        assert result.n_classes == 2
        assert result.n_removed == 4
        # Representatives map every predicate to a kept one.
        for pred in range(6):
            rep = result.class_of[pred]
            assert result.representative[rep]

    def test_distinguishing_runs_split_classes(self):
        reports = _returns_population([(True, -1), (False, 0), (False, 2)])
        result = intra_site_dedup(reports)
        # All six predicates have distinct patterns here except none --
        # compute: <0 true in run0; ==0 run1; >0 run2; >=0 runs1,2;
        # !=0 runs0,2; <=0 runs0,1: six distinct patterns.
        assert result.n_classes == 6
        assert result.n_removed == 0

    def test_cross_site_duplicates_are_kept(self):
        """Only *intra-site* redundancy is eliminated; identical
        patterns at different sites survive (the iterative algorithm
        handles those)."""
        table = PredicateTable()
        s1 = table.add_custom_site("f", 1, "a", ["A"])
        s2 = table.add_custom_site("f", 2, "b", ["B"])
        reports = ReportSet.from_runs(
            table, [RunReport(0, True, {0: 1, 1: 1}, {0: 1, 1: 1})]
        )
        result = intra_site_dedup(reports)
        assert result.representative.all()

    def test_ablation_nearly_identical_results(self):
        """The paper's finding: elimination with and without the
        optimisation selects equivalent predictors."""
        runs = [(True, 4)] * 10 + [(False, -2)] * 10 + [(True, 0)] * 3
        reports = _returns_population(runs)
        full = eliminate(reports)
        dedup = intra_site_dedup(reports)
        reduced = eliminate(reports, candidates=dedup.representative)
        # Same number of bugs' worth of predictors, and each selected
        # predicate in the reduced run is the representative of an
        # equivalent full-run selection.
        assert len(full) == len(reduced)
        full_classes = {dedup.class_of[s.predicate.index] for s in full.selected}
        reduced_classes = {
            dedup.class_of[s.predicate.index] for s in reduced.selected
        }
        assert full_classes == reduced_classes
