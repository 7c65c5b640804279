"""Tests for affinity lists."""

import numpy as np

from repro.core.affinity import affinity_groups, affinity_list

from tests.helpers import make_reports


def _population():
    """P0 = bug predictor; P1 = redundant shadow of P0; P2 = sub-bug
    predictor (subset of P0's failures); P3 = unrelated bug."""
    runs = []
    for i in range(24):
        true = {0, 1}
        if i < 6:
            true.add(2)
        runs.append((True, true, None))
    for _ in range(8):
        runs.append((True, {3}, None))
    for _ in range(60):
        runs.append((False, set(), None))
    return make_reports(4, runs)


class TestAffinity:
    def test_shadow_tops_anchor_affinity_list(self):
        reports = _population()
        entries = affinity_list(reports, anchor=0)
        assert entries[0].predicate.name in ("P1", "P2")
        drops = {e.predicate.name: e.drop for e in entries}
        # The unrelated predictor barely moves.
        assert drops["P1"] > drops["P3"]
        assert drops["P2"] > drops["P3"]

    def test_affinity_drop_is_before_minus_after(self):
        reports = _population()
        entries = affinity_list(reports, anchor=0)
        for e in entries:
            assert e.drop == e.importance_before - e.importance_after

    def test_unrelated_predictor_survives_anchor_removal(self):
        reports = _population()
        entries = {e.predicate.name: e for e in affinity_list(reports, anchor=0)}
        assert entries["P3"].importance_after > 0

    def test_top_truncation(self):
        reports = _population()
        entries = affinity_list(reports, anchor=0, top=1)
        assert len(entries) == 1

    def test_candidate_mask(self):
        reports = _population()
        mask = np.array([True, False, True, True])
        names = [e.predicate.name for e in affinity_list(reports, anchor=0, candidates=mask)]
        assert "P1" not in names

    def test_affinity_groups_cluster_same_bug_predicates(self):
        """The shadow (P1) and sub-bug (P2) predicates group with their
        bug's predictor (P0); the unrelated bug's predictor (P3) stays
        in its own group."""
        reports = _population()
        groups = affinity_groups(reports, [0, 1, 2, 3])
        by_member = {m: tuple(g) for g in groups for m in g}
        assert by_member[0] == by_member[1]  # shadow joins P0
        assert by_member[2] == by_member[0]  # sub-bug joins P0
        assert by_member[3] != by_member[0]  # unrelated stays apart
        assert len(groups) == 2

    def test_affinity_groups_singletons_without_relations(self):
        runs = [(True, {0}, None)] * 10 + [(True, {1}, None)] * 10
        runs += [(False, set(), None)] * 30
        reports = make_reports(2, runs)
        groups = affinity_groups(reports, [0, 1])
        assert sorted(groups) == [[0], [1]]
