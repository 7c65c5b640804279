"""Tests for the site/predicate registry."""

import pytest

from repro.core.predicates import (
    PredicateKind,
    PredicateTable,
    Scheme,
)


class TestRegistration:
    def test_branch_site_has_two_predicates(self):
        table = PredicateTable()
        site = table.add_site(Scheme.BRANCHES, "f", 3, "x > 0")
        assert table.n_sites == 1
        preds = table.predicates_at(site.index)
        assert [p.kind for p in preds] == [
            PredicateKind.BRANCH_TRUE,
            PredicateKind.BRANCH_FALSE,
        ]
        assert preds[0].name == "x > 0 is TRUE"
        assert preds[1].name == "x > 0 is FALSE"

    def test_returns_site_has_six_sign_predicates(self):
        table = PredicateTable()
        site = table.add_site(Scheme.RETURNS, "f", 9, "strcmp")
        names = [p.name for p in table.predicates_at(site.index)]
        assert names == [
            "strcmp < 0",
            "strcmp == 0",
            "strcmp > 0",
            "strcmp >= 0",
            "strcmp != 0",
            "strcmp <= 0",
        ]

    def test_scalar_pair_names_splice_operator(self):
        table = PredicateTable()
        site = table.add_site(Scheme.SCALAR_PAIRS, "f", 2, "filesindex __ 25")
        names = [p.name for p in table.predicates_at(site.index)]
        assert "filesindex < 25" in names
        assert "filesindex >= 25" in names
        assert len(names) == 6

    def test_indices_are_dense_and_contiguous_per_site(self):
        table = PredicateTable()
        table.add_site(Scheme.BRANCHES, "f", 1, "a")
        site = table.add_site(Scheme.RETURNS, "f", 2, "g")
        indices = table.predicate_indices_at(site.index)
        assert indices == list(range(2, 8))

    def test_custom_site_arbitrary_family(self):
        table = PredicateTable()
        site = table.add_custom_site("f", 1, "heap", ["heap ok", "heap corrupt"])
        assert [p.name for p in table.predicates_at(site.index)] == [
            "heap ok",
            "heap corrupt",
        ]

    def test_explicit_names_must_match_family_size(self):
        table = PredicateTable()
        with pytest.raises(ValueError):
            table.add_site(Scheme.BRANCHES, "f", 1, "x", predicate_names=["only one"])


class TestComplement:
    @pytest.mark.parametrize("scheme", [Scheme.RETURNS, Scheme.SCALAR_PAIRS])
    def test_sign_complements_are_involutions(self, scheme):
        table = PredicateTable()
        site = table.add_site(scheme, "f", 1, "v __ w" if scheme is Scheme.SCALAR_PAIRS else "v")
        for pred in table.predicates_at(site.index):
            comp = table.complement(pred.index)
            assert comp is not None
            assert table.complement(comp) == pred.index
            assert comp != pred.index

    def test_branch_complement_pairs_true_false(self):
        table = PredicateTable()
        site = table.add_site(Scheme.BRANCHES, "f", 1, "c")
        t, f = table.predicate_indices_at(site.index)
        assert table.complement(t) == f
        assert table.complement(f) == t

    def test_custom_predicates_have_no_complement(self):
        table = PredicateTable()
        site = table.add_custom_site("f", 1, "x", ["only"])
        assert table.complement(site.index) is None


class TestLookup:
    def test_site_of_maps_predicates_to_owners(self):
        table = PredicateTable()
        s1 = table.add_site(Scheme.BRANCHES, "f", 1, "a")
        s2 = table.add_site(Scheme.BRANCHES, "g", 2, "b")
        assert table.site_of(0) == s1
        assert table.site_of(3) == s2

    def test_find_matches_name_fragments(self):
        table = PredicateTable()
        table.add_site(Scheme.BRANCHES, "f", 1, "token_index > 500")
        hits = table.find("token_index")
        assert len(hits) == 2

    def test_len_counts_predicates(self):
        table = PredicateTable()
        table.add_site(Scheme.RETURNS, "f", 1, "g")
        assert len(table) == 6


class TestSignature:
    """The memoised signature must track every registration."""

    @staticmethod
    def _build(n_branch_sites, custom=False):
        table = PredicateTable()
        for i in range(n_branch_sites):
            table.add_site(Scheme.BRANCHES, "f", i + 1, f"c{i}")
        if custom:
            table.add_custom_site("g", 9, "probe", ["p ok", "p bad"])
        return table

    def test_add_site_changes_signature(self):
        table = self._build(2)
        before = table.signature()
        table.add_site(Scheme.BRANCHES, "f", 3, "c2")
        after = table.signature()
        assert after != before
        assert after == self._build(3).signature()

    def test_add_custom_site_changes_signature(self):
        table = self._build(2)
        before = table.signature()
        table.add_custom_site("g", 9, "probe", ["p ok", "p bad"])
        after = table.signature()
        assert after != before
        assert after == self._build(2, custom=True).signature()

    def test_repeated_calls_agree(self):
        table = self._build(4)
        assert table.signature() == table.signature() == self._build(4).signature()
