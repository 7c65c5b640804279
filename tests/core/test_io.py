"""Tests for report-archive persistence."""

import json

import numpy as np
import pytest

from repro.core.io import (
    Archive,
    ArchiveVersionError,
    load_reports,
    save_reports,
)
from repro.core.scores import compute_scores
from repro.core.truth import GroundTruth

from tests.helpers import make_reports, rewrite_archive_header


def _population():
    stacks = [("main", "f", "Boom"), None, None]
    reports = make_reports(
        3,
        [
            (True, {0, 2}, None),
            (False, {1}, None),
            (False, set(), {0}),
        ],
        stacks=stacks,
    )
    truth = GroundTruth(bug_ids=["a", "b"])
    truth.add_run(["a"])
    truth.add_run([])
    truth.add_run([])
    return reports, truth


class TestRoundTrip:
    def test_exact_score_roundtrip(self, tmp_path):
        reports, truth = _population()
        path = tmp_path / "reports.npz"
        save_reports(str(path), reports, truth)
        loaded, loaded_truth = load_reports(str(path))

        before = compute_scores(reports)
        after = compute_scores(loaded)
        np.testing.assert_array_equal(before.F, after.F)
        np.testing.assert_array_equal(before.S, after.S)
        np.testing.assert_allclose(before.increase, after.increase)
        assert loaded.failed.tolist() == reports.failed.tolist()

    def test_stacks_and_metas_roundtrip(self, tmp_path):
        reports, truth = _population()
        path = tmp_path / "reports.npz"
        save_reports(str(path), reports, truth)
        loaded, _ = load_reports(str(path))
        assert loaded.stacks == reports.stacks
        assert loaded.seeds.tolist() == reports.seeds.tolist() == [0, 1, 2]

    def test_truth_roundtrip(self, tmp_path):
        reports, truth = _population()
        path = tmp_path / "reports.npz"
        save_reports(str(path), reports, truth)
        _, loaded_truth = load_reports(str(path))
        assert loaded_truth is not None
        assert loaded_truth.bug_ids == truth.bug_ids
        assert loaded_truth.occurrences == truth.occurrences

    def test_table_roundtrip(self, tmp_path):
        reports, _ = _population()
        path = tmp_path / "reports.npz"
        save_reports(str(path), reports)
        loaded, truth = load_reports(str(path))
        assert truth is None
        assert loaded.table.n_predicates == reports.table.n_predicates
        assert [p.name for p in loaded.table.predicates] == [
            p.name for p in reports.table.predicates
        ]

    def test_real_scheme_tables_roundtrip(self, tmp_path):
        from repro.core.predicates import PredicateTable, Scheme
        from repro.core.reports import ReportSet, RunReport

        table = PredicateTable()
        table.add_site(Scheme.BRANCHES, "f", 3, "x > 0")
        table.add_site(Scheme.RETURNS, "f", 4, "g")
        reports = ReportSet.from_runs(
            table, [RunReport(0, True, {0: 2, 1: 1}, {0: 2, 4: 1})]
        )
        path = tmp_path / "r.npz"
        save_reports(str(path), reports)
        loaded, _ = load_reports(str(path))
        assert loaded.table.sites[0].scheme is Scheme.BRANCHES
        assert loaded.table.predicates[0].name == "x > 0 is TRUE"
        assert loaded.site_counts[0, 0] == 2

    def test_version_check(self, tmp_path):
        """Any declared version but 3 is refused -- including 1 and 2 in a
        file with the current magic, which must not be parsed as v3."""
        reports, truth = _population()
        for version in (1, 2, 999):
            path = tmp_path / f"reports.v{version}"
            save_reports(str(path), reports, truth)
            rewrite_archive_header(path, format_version=version)
            for loader in (load_reports, Archive):
                with pytest.raises(ArchiveVersionError, match=f"version {version}"):
                    loader(str(path))


class TestFormatVersions:
    def test_writer_emits_current_version(self, tmp_path):
        from repro.core.io import FORMAT_VERSION, V3_MAGIC

        reports, _ = _population()
        path = tmp_path / "reports.v3"
        save_reports(str(path), reports)
        assert FORMAT_VERSION == 3
        with open(path, "rb") as fh:
            assert fh.read(len(V3_MAGIC)) == V3_MAGIC
        assert Archive(str(path)).table_sha == reports.table.signature()

    def test_unwritable_version_rejected(self, tmp_path):
        """There is one archive format; ``save_reports`` takes no version."""
        reports, _ = _population()
        for version in (2, 3):
            with pytest.raises(TypeError):
                save_reports(str(tmp_path / "r"), reports, version=version)

    def test_v3_bytes_are_deterministic(self, tmp_path):
        """Shard SHAs must be reproducible: same population, same bytes."""
        reports, truth = _population()
        p1, p2 = tmp_path / "d1", tmp_path / "d2"
        save_reports(str(p1), reports, truth)
        save_reports(str(p2), reports, truth)
        assert p1.read_bytes() == p2.read_bytes()

    def test_v3_stats_are_zero_copy_readonly(self, tmp_path):
        reports, _ = _population()
        path = tmp_path / "r.v3"
        save_reports(str(path), reports)
        F, *_ = Archive(str(path)).stats()
        assert not F.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            F[0] = 99

    def test_embedded_stats_match_recomputation(self, tmp_path):
        from repro.core.scores import SufficientStats

        reports, _ = _population()
        path = tmp_path / "reports.npz"
        save_reports(str(path), reports)
        F, S, F_obs, S_obs, numf, nums = Archive(str(path)).stats()
        want = SufficientStats.from_reports(reports)
        np.testing.assert_array_equal(F, want.F)
        np.testing.assert_array_equal(S, want.S)
        np.testing.assert_array_equal(F_obs, want.F_obs)
        np.testing.assert_array_equal(S_obs, want.S_obs)
        assert (numf, nums) == (want.num_failing, want.num_successful)


class TestShardStatsCorruption:
    """Every escape from a statistics read is a typed ``ArchiveError``."""

    def test_garbage_bytes_raise_typed_error(self, tmp_path):
        from repro.core.io import ArchiveError

        for name, payload in [
            ("zipish", b"PK\x03\x04 not really a zip archive"),
            ("text", b"hello world, definitely not an archive"),
            ("empty", b""),
            ("magic-only", b"RPROSHD3"),
            ("magic-lying-header", b"RPROSHD3" + b"\xff" * 8),
        ]:
            path = tmp_path / name
            path.write_bytes(payload)
            with pytest.raises(ArchiveError):
                Archive(str(path)).stats()

    def test_truncated_v3_archive_raises_typed_error(self, tmp_path):
        from repro.core.io import ArchiveError

        reports, truth = _population()
        path = tmp_path / "full.v3"
        save_reports(str(path), reports, truth)
        data = path.read_bytes()
        for cut in range(0, len(data), max(1, len(data) // 17)):
            bad = tmp_path / f"cut{cut}"
            bad.write_bytes(data[:cut])
            with pytest.raises(ArchiveError):
                Archive(str(bad)).stats()
            with pytest.raises(ArchiveError):
                load_reports(str(bad))


class TestPerRunColumns:
    """The header's stacks, per-run metadata and ground truth hold one
    entry per run: a stack is null or a list of frame names, and the
    metadata is one ``{"seed": s}`` with ``0 <= s < 2**63``, read back
    as ``seeds``."""

    def test_seeds_round_trip_as_seed_metas(self, tmp_path):
        from repro.core.reports import ReportSet, RunReport
        from tests.helpers import archive_header, make_table

        runs = [RunReport(s, s == 9, {0: 1}, {}) for s in (7, 9, 8)]
        reports = ReportSet.from_runs(make_table(2), runs)
        path = tmp_path / "r.v3"
        save_reports(str(path), reports)
        assert json.loads(archive_header(path)["metas_json"]) == [
            {"seed": 7},
            {"seed": 9},
            {"seed": 8},
        ]
        loaded, _ = load_reports(str(path))
        assert loaded.seeds.tolist() == [7, 9, 8]
        assert loaded.seeds.dtype == np.int64

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stacks_json", "[null]"),
            ("stacks_json", '["main", null, null]'),
            ("stacks_json", "[[1, 2], null, null]"),
            ("metas_json", '[{"seed": 0}]'),
            ("metas_json", '[{"seed": 0}, {"seed": 1}, {"seed": 2}, {"seed": 3}]'),
            ("metas_json", '[{"seed": 0}, {"seed": 1}, {}]'),
            ("metas_json", '[{"seed": 0}, {"seed": 1}, {"seed": 2, "tag": "x"}]'),
            ("metas_json", '[{"seed": 0}, {"seed": 1}, {"seed": -2}]'),
            ("metas_json", '[{"seed": 0}, {"seed": 1}, {"seed": 9223372036854775808}]'),
            ("metas_json", '[{"seed": 0}, {"seed": 1}, {"seed": 2.0}]'),
            ("metas_json", '[{"seed": 0}, {"seed": 1}, {"seed": true}]'),
            ("metas_json", '[{"seed": 0}, {"seed": 1}, [2]]'),
            ("metas_json", '{"seed": 0}'),
            ("truth_runs_json", '[["a"]]'),
            ("truth_runs_json", '[["a"], [], [], []]'),
        ],
    )
    def test_misaligned_or_free_form_columns_are_corrupt(self, tmp_path, field, value):
        """Regression: a 3-run archive with 1 stack loaded back with 1
        stack, and a later ``subset`` raised a bare ``IndexError``; with
        1 truth run, a later ``bug_profile`` raised a bare ``ValueError``;
        a seed of 2**63 raised a bare ``OverflowError``."""
        from repro.core.io import ArchiveCorruptError
        from tests.helpers import rewrite_archive_header

        reports, truth = _population()
        path = tmp_path / "r.v3"
        save_reports(str(path), reports, truth)
        rewrite_archive_header(path, **{field: value})
        with pytest.raises(ArchiveCorruptError):
            load_reports(str(path))


class TestFileSha256:
    @pytest.mark.parametrize("size", [0, 1, 1 << 20, (1 << 20) + 1, 3 * (1 << 20) - 7])
    def test_digest_equals_hashlib(self, tmp_path, size):
        import hashlib

        from repro.core.io import file_sha256

        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "blob"
        path.write_bytes(data)
        assert file_sha256(str(path)) == hashlib.sha256(data).hexdigest()
