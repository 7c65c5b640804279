"""End-to-end experiments: each subject's known bugs must be isolable.

These use the session-scoped fixtures from conftest (a few hundred runs
per subject), so assertions are about *shape*, not exact counts.
"""

import numpy as np
import pytest

from repro.core.truth import bugs_covered, dominant_bug


def _selected(experiment):
    return [s.predicate.index for s in experiment.elimination.selected]


def _dominated_bugs(experiment):
    """Bugs that are the dominant co-occurrence of some selected predictor."""
    reports, truth = experiment.reports, experiment.truth
    out = set()
    for idx in _selected(experiment):
        dom = dominant_bug(reports, truth, idx)
        if dom is not None:
            out.add(dom[0])
    return out


class TestFunnel:
    def test_pruning_removes_vast_majority(self, moss_experiment):
        """Table 2's shape: Increase>0 discards ~99% of predicates."""
        summary = moss_experiment.summary()
        assert summary["initial_predicates"] > 5000
        assert summary["after_increase_pruning"] < summary["initial_predicates"] * 0.05

    def test_elimination_reduces_to_a_handful(self, moss_experiment):
        summary = moss_experiment.summary()
        assert summary["after_elimination"] <= 15
        assert summary["after_elimination"] < summary["after_increase_pruning"]

    def test_every_selected_predictor_was_a_pruning_survivor(self, moss_experiment):
        kept = set(np.flatnonzero(moss_experiment.pruning.kept).tolist())
        assert set(_selected(moss_experiment)) <= kept


class TestMossValidation:
    def test_common_bugs_have_dominant_predictors(self, moss_experiment):
        """The Section 4.1 result: each bug that causes enough failures
        gets a predictor whose failing runs spike at that bug."""
        reports, truth = moss_experiment.reports, moss_experiment.truth
        dominated = _dominated_bugs(moss_experiment)
        profile_sizes = {
            b: int(truth.bug_profile(b, reports).sum()) for b in truth.bug_ids
        }
        big_bugs = {b for b, n in profile_sizes.items() if n >= 15 and b != "moss7"}
        missing = big_bugs - dominated
        assert len(missing) <= 1, (
            f"bugs {missing} have >=15 failures but no dominant "
            f"predictor (dominated={dominated}, sizes={profile_sizes})"
        )

    def test_selected_predictors_cover_all_triggered_bugs(self, moss_experiment):
        """Lemma 3.1 in the field: every triggered bug whose profile
        intersects the predicated runs is covered by a selection."""
        reports, truth = moss_experiment.reports, moss_experiment.truth
        covered = bugs_covered(reports, truth, _selected(moss_experiment))
        for bug in truth.triggered_bugs(reports):
            profile = truth.bug_profile(bug, reports)
            intersects = any(
                (reports.true_mask(p) & profile).any()
                for p in np.flatnonzero(moss_experiment.pruning.kept)
            )
            if intersects:
                assert bug in covered

    def test_untriggered_bug_is_absent(self, moss_experiment):
        """moss8 never triggers, so no predictor can (or should) point
        at it -- 'there is no way our algorithm can find causes of bugs
        that do not occur'."""
        reports, truth = moss_experiment.reports, moss_experiment.truth
        assert not truth.bug_profile("moss8", reports).any()

    def test_harmless_overrun_has_no_dedicated_predictor(self, moss_experiment):
        """moss7 occurs in many runs but never causes a failure by
        itself; its failing co-occurrences come from other bugs."""
        assert "moss7" not in _dominated_bugs(moss_experiment)


class TestSingleBugSubjects:
    def test_ccrypt_predictor_points_at_eof(self, ccrypt_experiment):
        selected = ccrypt_experiment.elimination.selected
        assert selected, "ccrypt must yield at least one predictor"
        top = selected[0]
        assert top.effective.row.increase > 0.3
        dom = dominant_bug(
            ccrypt_experiment.reports, ccrypt_experiment.truth, top.predicate.index
        )
        assert dom is not None and dom[0] == "ccrypt1"

    def test_ccrypt_crash_is_deterministic(self, ccrypt_experiment):
        reports, truth = ccrypt_experiment.reports, ccrypt_experiment.truth
        occurred = truth.occurrence_mask("ccrypt1")
        assert (occurred == (occurred & reports.failed)).all()

    def test_bc_predictor_relates_counts(self, bc_experiment):
        selected = bc_experiment.elimination.selected
        assert selected
        dom = dominant_bug(
            bc_experiment.reports, bc_experiment.truth, selected[0].predicate.index
        )
        assert dom is not None and dom[0] == "bc1"

    def test_bc_crash_stacks_do_not_name_the_culprit(self, bc_experiment):
        """Section 4.2.2: no useful information on the stack -- the
        overrun is in more_arrays but crashes surface elsewhere."""
        reports = bc_experiment.reports
        stacks = [s for s in reports.stacks if s is not None]
        assert stacks
        in_more_arrays = sum(1 for s in stacks if s[-2:-1] == ("more_arrays",))
        assert in_more_arrays / len(stacks) < 0.5


class TestMultiBugSubjects:
    def test_exif_distinct_bugs_distinct_predictors(self, exif_experiment):
        dominated = _dominated_bugs(exif_experiment)
        assert "exif1" in dominated
        assert "exif2" in dominated

    def test_rhythmbox_races_isolated(self, rhythmbox_experiment):
        dominated = _dominated_bugs(rhythmbox_experiment)
        assert "rb1" in dominated
        assert "rb2" in dominated

    def test_rhythmbox_stacks_bottom_out_in_event_loop(self, rhythmbox_experiment):
        """Every crash goes through the unchanging main loop."""
        stacks = [s for s in rhythmbox_experiment.reports.stacks if s]
        assert stacks
        assert all("main_loop" in s or "main" in s for s in stacks)


class TestTruthIntegrity:
    @pytest.mark.parametrize(
        "fixture",
        [
            "moss_experiment",
            "ccrypt_experiment",
            "bc_experiment",
            "exif_experiment",
            "rhythmbox_experiment",
        ],
    )
    def test_every_failure_is_attributed(self, fixture, request):
        """No failing run without a recorded bug: the oracle and the
        seeded bugs fully explain every failure."""
        exp = request.getfixturevalue(fixture)
        reports, truth = exp.reports, exp.truth
        for i in range(reports.n_runs):
            if reports.failed[i]:
                assert truth.occurrences[i], f"run {i} failed with no bug recorded"
