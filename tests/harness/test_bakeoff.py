"""The measure bake-off harness: ground truth, metrics, CLI, baseline gate."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import SUBJECTS, main as cli_main
from repro.core import measures
from repro.core.importance import importance_scores
from repro.core.truth import BugSite, bug_sites_from_source, faulty_predicate_mask
from repro.harness.bakeoff import (
    BAKEOFF_SCHEMA,
    compare_to_baseline,
    rank_metrics,
    run_bakeoff,
)
from repro.harness.tables import format_bakeoff_table
from repro.instrument.tracer import instrument_source

#: Functions each hand-built subject's record_bug calls live in (ground
#: truth for the ground truth); updating a subject's bugs must update
#: this map.  Factory subjects stamp their own record_bug site, so their
#: functions are checked structurally below instead.
EXPECTED_BUG_FUNCTIONS = {
    "moss": {"index_remove_common", "main", "tokenize_file"},
    "ccrypt": {"prompt_overwrite"},
    "bc": {"more_arrays"},
    "exif": {"mnote_canon_load", "parse_thumbnail", "save_data"},
    "rhythmbox": {"on_tick", "remove_view"},
}


class TestBugSites:
    @pytest.mark.parametrize("name", sorted(EXPECTED_BUG_FUNCTIONS))
    def test_every_builtin_has_extractable_bug_sites(self, name):
        subject = SUBJECTS[name]()
        sites = bug_sites_from_source(subject.source())
        assert {s.function for s in sites} == EXPECTED_BUG_FUNCTIONS[name]
        assert {s.bug_id for s in sites} == set(subject.bug_ids)
        assert all(s.line >= 1 for s in sites)

    @pytest.mark.parametrize("name", sorted(SUBJECTS))
    def test_faulty_mask_nonempty_and_proper_subset(self, name):
        subject = SUBJECTS[name]()
        sites = subject.bug_sites()
        program = subject.build_program()
        mask = faulty_predicate_mask(program.table, sites)
        assert mask.any(), "no faulty predicates marked"
        assert not mask.all(), "every predicate marked faulty"

    def test_nested_and_module_level_calls(self):
        source = (
            "record_bug('top')\n"
            "def outer():\n"
            "    def inner():\n"
            "        record_bug('deep')\n"
            "    return inner\n"
        )
        sites = bug_sites_from_source(source)
        assert sites == [
            BugSite(bug_id="top", function="<module>", line=1),
            BugSite(bug_id="deep", function="inner", line=4),
        ]

    def test_dynamic_bug_ids_are_skipped(self):
        assert bug_sites_from_source("def f(x):\n    record_bug(x)\n") == []


class _FakeTable:
    """Minimal predicate-table stand-in for rank_metrics unit tests."""

    def __init__(self, site_indices):
        from repro.core.predicates import Predicate, PredicateKind

        self.predicates = [
            Predicate(
                index=i,
                site_index=s,
                kind=PredicateKind.BRANCH_TRUE,
                name=f"p{i}",
            )
            for i, s in enumerate(site_indices)
        ]


class TestRankMetrics:
    def test_rank_and_wasted_effort(self):
        # values rank p2 > p0 > p1; p1 is faulty -> rank 3, two distinct
        # non-faulty sites (0 and 2) examined first.
        table = _FakeTable([0, 1, 2])
        got = rank_metrics(
            table, np.array([0.5, 0.1, 0.9]), np.array([False, True, False])
        )
        assert got["rank_of_first_faulty_site"] == 3
        assert got["wasted_effort_sites"] == 2
        assert got["first_faulty_predicate"] == "p1"

    def test_duplicate_site_not_double_billed(self):
        # Two leading predicates share site 0: wasted effort counts the
        # site once, though the faulty predicate sits at rank 3.
        table = _FakeTable([0, 0, 1])
        got = rank_metrics(
            table, np.array([0.9, 0.8, 0.1]), np.array([False, False, True])
        )
        assert got["rank_of_first_faulty_site"] == 3
        assert got["wasted_effort_sites"] == 1

    def test_tie_breaks_by_predicate_index(self):
        table = _FakeTable([0, 1, 2])
        got = rank_metrics(
            table, np.array([0.5, 0.5, 0.5]), np.array([False, True, True])
        )
        assert got["rank_of_first_faulty_site"] == 2

    def test_no_faulty_predicates_reports_none(self):
        table = _FakeTable([0])
        got = rank_metrics(table, np.array([1.0]), np.array([False]))
        assert got == {
            "rank_of_first_faulty_site": None,
            "wasted_effort_sites": None,
            "first_faulty_predicate": None,
        }


@pytest.fixture(scope="module")
def ccrypt_bakeoff():
    return run_bakeoff(SUBJECTS, subject_names=["ccrypt"], runs=120, seed=0)


class TestBakeoffDocument:
    def test_schema_and_matrix_shape(self, ccrypt_bakeoff):
        doc = ccrypt_bakeoff
        assert doc["schema"] == BAKEOFF_SCHEMA
        assert doc["sampling"] == "full"
        assert set(doc["subjects"]) == {"ccrypt"}
        names = [m["measure"] for m in doc["measures"]]
        assert names == list(measures.available())
        assert len(names) >= 6
        for entry in doc["measures"]:
            assert entry["version"] >= 1
            assert entry["formula"]
            res = entry["results"]["ccrypt"]
            assert res["rank_of_first_faulty_site"] >= 1
            assert res["wasted_effort_sites"] >= 0

    def test_document_is_json_clean_and_deterministic(self, ccrypt_bakeoff):
        again = run_bakeoff(SUBJECTS, subject_names=["ccrypt"], runs=120, seed=0)
        assert json.dumps(ccrypt_bakeoff, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_importance_row_matches_historical_pipeline(self, ccrypt_bakeoff):
        """The Importance row is the paper's own ranking: recompute it from
        scratch through importance_scores and compare the graded rank."""
        from repro.harness.runner import run_trials
        from repro.instrument.sampling import SamplingPlan
        from repro.core.scores import SufficientStats

        subject = SUBJECTS["ccrypt"]()
        program = instrument_source(subject.source(), "ccrypt")
        reports, _ = run_trials(subject, program, 120, SamplingPlan.full(), seed=0)
        scores = SufficientStats.from_reports(reports).to_scores()
        imp = importance_scores(scores).importance
        # Bit-identity of the measure itself...
        assert measures.measure_values(scores, "importance").tobytes() == imp.tobytes()
        # ...and of the graded cell.
        faulty = faulty_predicate_mask(
            program.table, bug_sites_from_source(subject.source())
        )
        want = rank_metrics(program.table, imp, faulty)
        row = next(
            m for m in ccrypt_bakeoff["measures"] if m["measure"] == "importance"
        )
        assert row["results"]["ccrypt"] == want

    def test_table_rendering(self, ccrypt_bakeoff):
        text = format_bakeoff_table(ccrypt_bakeoff)
        assert "ccrypt" in text
        for name in measures.available():
            assert name in text

    def test_table_renders_each_subjects_runs(self):
        """Without ``--runs`` the document's ``runs`` is null and each
        subject ran its own count; the header used to print ``None``."""
        document = {
            "runs": None,
            "seed": 0,
            "sampling": "full",
            "subjects": {"ccrypt": {"runs": 400}, "csvlite-brel1": {"runs": 990}},
            "measures": [
                {
                    "measure": "importance",
                    "results": {
                        "ccrypt": {
                            "rank_of_first_faulty_site": 2,
                            "wasted_effort_sites": 1,
                        },
                        "csvlite-brel1": {
                            "rank_of_first_faulty_site": 1,
                            "wasted_effort_sites": 0,
                        },
                    },
                }
            ],
        }
        lines = format_bakeoff_table(document).splitlines()
        assert "None" not in "\n".join(lines)
        assert lines[0] == "bake-off: seed 0, full sampling"
        assert lines[3].split() == ["runs", "400", "990"]
        assert lines[4].split() == ["importance", "2", "1", "1", "0"]


class TestBaselineGate:
    def test_self_comparison_is_clean(self, ccrypt_bakeoff):
        assert compare_to_baseline(ccrypt_bakeoff, ccrypt_bakeoff) == []

    def test_regression_detected(self, ccrypt_bakeoff):
        worse = json.loads(json.dumps(ccrypt_bakeoff))
        row = next(m for m in worse["measures"] if m["measure"] == "importance")
        row["results"]["ccrypt"]["rank_of_first_faulty_site"] += 5
        regs = compare_to_baseline(worse, ccrypt_bakeoff)
        assert len(regs) == 1
        assert regs[0].subject == "ccrypt"
        assert "regressed" in str(regs[0])
        # Improvement in the other direction is not a regression.
        assert compare_to_baseline(ccrypt_bakeoff, worse) == []

    def test_disjoint_subjects_are_ignored(self, ccrypt_bakeoff):
        other = json.loads(json.dumps(ccrypt_bakeoff))
        row = next(m for m in other["measures"] if m["measure"] == "importance")
        row["results"] = {"moss": row["results"]["ccrypt"]}
        assert compare_to_baseline(ccrypt_bakeoff, other) == []


class TestBakeoffCLI:
    def test_json_emission_and_baseline_gate(self, capsys, tmp_path):
        out = tmp_path / "bakeoff.json"
        rc = cli_main(
            [
                "bakeoff",
                "--subject",
                "ccrypt",
                "--runs",
                "60",
                "--json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == BAKEOFF_SCHEMA
        assert json.loads(out.read_text()) == doc
        # Self-baseline passes...
        assert (
            cli_main(
                ["bakeoff", "--subject", "ccrypt", "--runs", "60",
                 "--baseline", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        # ...and a doctored (better-than-achievable) baseline fails.
        row = next(m for m in doc["measures"] if m["measure"] == "importance")
        row["results"]["ccrypt"]["rank_of_first_faulty_site"] = 0
        out.write_text(json.dumps(doc))
        assert (
            cli_main(
                ["bakeoff", "--subject", "ccrypt", "--runs", "60",
                 "--baseline", str(out)]
            )
            == 1
        )

    def test_measure_subset_and_table_output(self, capsys):
        rc = cli_main(
            [
                "bakeoff",
                "--subject",
                "ccrypt",
                "--runs",
                "60",
                "--measure",
                "tarantula",
                "--measure",
                "importance",
            ]
        )
        assert rc == 0
        outp = capsys.readouterr().out
        assert "tarantula" in outp and "importance" in outp
        assert "ochiai" not in outp
