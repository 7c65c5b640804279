"""Differential suite: ``analyze`` is bit-identical across shard layouts.

The engine's contract (``repro/core/engine.py``) is that shard layout
never changes a single output bit:

* sufficient statistics -- integer equality across shard layouts
  {1, 3, 7}, for all five subjects;
* scores, p-values, pruning -- *bitwise* float equality (``tobytes``,
  not ``allclose``) against scoring the monolithic counts;
* elimination rankings -- identical predictor sequences, importances and
  populations under every discard strategy against elimination over the
  materialised population, with Importance ties resolving in
  predicate-index order;
* the kept-column read elimination runs on -- its predicate and site
  columns, outcomes and truth equal the merged population's;
* the CLI -- byte-identical stdout for a 1-shard and a 7-shard store;
* golden digests -- every ``tests/golden`` key, collected serially and
  laid out as {1, 3, 7} shards and as the golden chunking, and collected
  by the sharded runner with observability on, reproduces its committed
  table signature, statistics, scores, ``analyze`` stdout and (golden
  chunking) shard bytes.

These tests are the enforcement arm of the determinism contract
documented in ``docs/ALGORITHM.md``; weakening any equality here to a
tolerance is a bug.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.engine import AnalysisEngine
from repro.core.elimination import DiscardStrategy, eliminate
from repro.core.scores import SufficientStats, compute_scores
from repro.core.truth import bugs_covered
from repro.harness.parallel import run_trials_sharded
from repro.harness.runner import run_trials
from repro.instrument.sampling import SamplingPlan
from repro.store import ShardStore

from tests.golden import CASES, CHUNK, assert_golden, assert_golden_store
from tests.helpers import make_reports, partition_bounds

#: Session-scoped experiment fixtures covering all five paper subjects.
SUBJECT_FIXTURES = [
    "moss_experiment",
    "ccrypt_experiment",
    "bc_experiment",
    "exif_experiment",
    "rhythmbox_experiment",
]

SHARD_LAYOUTS = (1, 3, 7)

#: Per-predicate float arrays of PredicateScores, all compared bitwise.
_SCORE_FIELDS = (
    "F",
    "S",
    "F_obs",
    "S_obs",
    "failure",
    "context",
    "increase",
    "increase_se",
    "increase_lo",
    "increase_hi",
    "pf",
    "ps",
    "z",
    "z_defined",
    "defined",
)


def _build_store(directory, reports, truth, bounds):
    """Shard a population into the contiguous ``[lo, hi)`` run ranges
    ``bounds``."""
    store = ShardStore.create(
        str(directory), "differential", reports.table, SamplingPlan.full()
    )
    for lo, hi in bounds:
        mask = np.zeros(reports.n_runs, dtype=bool)
        mask[lo:hi] = True
        store.append_shard(
            reports.subset(mask), truth=truth.subset(mask), seed_start=lo
        )
    return ShardStore.open(store.directory)


@pytest.fixture(scope="module")
def sharded_stores(tmp_path_factory):
    """Lazy per-subject cache of stores at every shard layout."""
    cache = {}

    def get(request, fixture_name):
        if fixture_name not in cache:
            experiment = request.getfixturevalue(fixture_name)
            base = tmp_path_factory.mktemp(fixture_name)
            cache[fixture_name] = {
                k: _build_store(
                    base / f"shards-{k}",
                    experiment.reports,
                    experiment.truth,
                    partition_bounds(experiment.reports.n_runs, k),
                )
                for k in SHARD_LAYOUTS
            }
        return cache[fixture_name]

    return get


def _assert_scores_bitwise_equal(got, want):
    for field in _SCORE_FIELDS:
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert got.num_failing == want.num_failing
    assert got.num_successful == want.num_successful


def _assert_stats_equal(got, want):
    for field in ("F", "S", "F_obs", "S_obs"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert got.num_failing == want.num_failing
    assert got.num_successful == want.num_successful


@pytest.mark.parametrize("subject_fixture", SUBJECT_FIXTURES)
class TestScoresBitIdentical:
    def test_stats_scores_and_pruning(self, request, sharded_stores, subject_fixture):
        """Every shard layout: statistics, scores and pruned sets match
        the monolithic population bit for bit."""
        experiment = request.getfixturevalue(subject_fixture)
        reference = SufficientStats.from_reports(experiment.reports)
        ref_scores = compute_scores(experiment.reports)
        ref_kept = AnalysisEngine().score_stats(reference).pruning.kept
        for store in sharded_stores(request, subject_fixture).values():
            engine = AnalysisEngine()
            stats = engine.store_stats(store)
            _assert_stats_equal(stats, reference)
            scoring = engine.score_stats(stats)
            _assert_scores_bitwise_equal(scoring.scores, ref_scores)
            np.testing.assert_array_equal(scoring.pruning.kept, ref_kept)

    def test_pvalues_bitwise(self, request, sharded_stores, subject_fixture):
        """The engine's z-test p-values equal the monolithic ones bitwise."""
        from repro.core.scores import z_test_pvalues

        experiment = request.getfixturevalue(subject_fixture)
        store = sharded_stores(request, subject_fixture)[3]
        scoring = AnalysisEngine().score_stats(store.sufficient_stats())
        want = z_test_pvalues(compute_scores(experiment.reports))
        assert scoring.pvalues.tobytes() == want.tobytes()


@pytest.mark.parametrize("subject_fixture", SUBJECT_FIXTURES)
@pytest.mark.parametrize("strategy", list(DiscardStrategy))
class TestEliminationBitIdentical:
    def test_rankings_match_serial(
        self, request, sharded_stores, subject_fixture, strategy
    ):
        """End-to-end analyze over a 3-shard store reproduces elimination
        over the monolithic population exactly -- order, importances,
        populations."""
        reports = request.getfixturevalue(subject_fixture).reports
        store = sharded_stores(request, subject_fixture)[3]
        pruning = AnalysisEngine().score_stats(
            SufficientStats.from_reports(reports)
        ).pruning
        reference = eliminate(
            reports,
            candidates=pruning.kept,
            strategy=strategy,
            max_predictors=6,
        )
        got = AnalysisEngine().analyze_store(
            store, strategy=strategy, max_predictors=6
        ).elimination
        assert [s.predicate.index for s in got.selected] == [
            s.predicate.index for s in reference.selected
        ]
        for g, r in zip(got.selected, reference.selected):
            assert g.rank == r.rank
            assert g.predicate.index == r.predicate.index
            for phase in ("initial", "effective"):
                gs, rs = getattr(g, phase), getattr(r, phase)
                assert gs.importance == rs.importance
                assert gs.importance_lo == rs.importance_lo
                assert gs.importance_hi == rs.importance_hi
                assert gs.num_failing == rs.num_failing
            assert g.runs_discarded == r.runs_discarded
            assert g.failing_runs_covered == r.failing_runs_covered
        assert got.iterations == reference.iterations
        assert got.remaining_failing == reference.remaining_failing


@pytest.mark.parametrize("subject_fixture", SUBJECT_FIXTURES)
@pytest.mark.parametrize("layout", SHARD_LAYOUTS)
class TestKeptColumnRead:
    def test_kept_columns_equal_the_merged_population(
        self, request, sharded_stores, subject_fixture, layout
    ):
        """``load_columns(kept)`` holds exactly the merged population's
        kept predicate columns, their sites' columns, outcomes and
        truth -- and nothing else."""
        store = sharded_stores(request, subject_fixture)[layout]
        kept = AnalysisEngine().score_stats(store.sufficient_stats()).pruning.kept
        assert kept.any()
        partial, partial_truth = store.load_columns(kept)
        whole, whole_truth = store.load_merged()

        np.testing.assert_array_equal(partial.columns, kept)
        np.testing.assert_array_equal(partial.failed, whole.failed)
        preds = np.flatnonzero(kept)
        sites = np.unique(whole.pred_site[preds])
        for attr, cols in (("true_counts", preds), ("site_counts", sites)):
            got, want = getattr(partial, attr), getattr(whole, attr)
            assert got.shape == want.shape
            np.testing.assert_array_equal(
                got[:, cols].toarray(), want[:, cols].toarray()
            )
            assert got.nnz == want[:, cols].nnz
        assert partial_truth.bug_ids == whole_truth.bug_ids
        assert partial_truth.occurrences == whole_truth.occurrences


class TestCliStdoutIdentical:
    @staticmethod
    def _stdout(capsys, argv):
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    def test_shard_layout_does_not_change_output(
        self, request, sharded_stores, capsys
    ):
        """``analyze`` prints byte-identical stdout for 1 and 7 shards."""
        stores = sharded_stores(request, "ccrypt_experiment")
        one, seven = (
            self._stdout(capsys, ["analyze", stores[k].directory, "--no-audit"])
            for k in (1, 7)
        )
        assert one == seven

    def test_stats_only_identical(self, request, sharded_stores, capsys):
        stores = sharded_stores(request, "bc_experiment")
        one, three = (
            self._stdout(
                capsys,
                ["analyze", stores[k].directory, "--stats-only", "--no-audit"],
            )
            for k in (1, 3)
        )
        assert one == three

    @pytest.mark.parametrize("command", ["analyze", "bakeoff"])
    def test_jobs_flag_is_a_usage_error(self, command, capsys):
        argv = [command, "--jobs", "2"] + (["store"] if command == "analyze" else [])
        with pytest.raises(SystemExit) as exc_info:
            cli_main(argv)
        assert exc_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err


def _lane(case, slow_mode):
    """``case`` as a parameter, in the slow lane when its sampling mode
    is ``slow_mode``.  The default lane runs every key through one local
    path here: full-sampling keys serially (their sharded-runner stores
    are asserted by ``tests/serve/test_differential.py``), uniform keys
    through the sharded runner."""
    slow = case.mode == slow_mode and case.subject != "tiny"
    return pytest.param(case, id=case.key, marks=pytest.mark.slow if slow else ())


class TestGoldenDigests:
    """The local collection paths reproduce ``tests/golden`` exactly."""

    @pytest.mark.parametrize("case", [_lane(case, "uniform") for case in CASES])
    def test_serial_collection_at_every_shard_layout(self, case, tmp_path):
        """Serial trials, then the population laid out as {1, 3, 7}
        shards and as the golden chunking (which must reproduce the
        golden shard bytes)."""
        subject = case.build_subject()
        program = subject.build_program()
        reports, truth = run_trials(subject, program, case.n_runs, case.plan())
        assert_golden(
            case.key,
            table_sha=reports.table.signature(),
            stats=SufficientStats.from_reports(reports),
            scores=compute_scores(reports),
        )
        for k in SHARD_LAYOUTS:
            bounds = partition_bounds(case.n_runs, k)
            store = _build_store(tmp_path / f"shards-{k}", reports, truth, bounds)
            assert_golden_store(case.key, store, shards=False)
        chunks = [
            (lo, min(lo + CHUNK, case.n_runs)) for lo in range(0, case.n_runs, CHUNK)
        ]
        store = _build_store(tmp_path / "chunked", reports, truth, chunks)
        assert_golden_store(case.key, store)

    @pytest.mark.parametrize("case", [_lane(case, "full") for case in CASES])
    def test_sharded_collection(self, case, tmp_path):
        """The supervised sharded runner, the stats stream and
        ``analyze``, with metrics and tracing on: observability never
        changes a bit."""
        from repro import obs

        obs.configure(trace_path=str(tmp_path / "trace.jsonl"))
        try:
            store = run_trials_sharded(
                case.build_subject(),
                case.n_runs,
                case.plan(),
                str(tmp_path / "store"),
                jobs=2,
                chunk_size=CHUNK,
            )
            assert obs.snapshot()["counters"]["collect.chunks"] > 0
            assert_golden_store(case.key, store)
        finally:
            obs.shutdown()


class TestTieDeterminism:
    """Importance ties resolve by predicate index at every shard layout."""

    def _tied_reports(self):
        # P1 and P3 are true in exactly the same runs (perfectly
        # correlated duplicates), so their Importance is identical; P0
        # and P2 are weaker noise.  The engine must select the lower
        # index (1) first at every shard layout.  The pattern repeats so
        # the Increase interval clears zero and survives pruning.
        runs = [
            (True, {1, 3}, None),
            (True, {1, 3}, None),
            (True, {1, 3, 0}, None),
            (True, {2}, None),
            (False, {0}, None),
            (False, {2}, None),
            (False, set(), None),
            (False, set(), None),
        ] * 5
        return make_reports(4, runs)

    def test_serial_selects_lowest_index(self):
        reports = self._tied_reports()
        result = eliminate(reports, max_predictors=2)
        assert result.selected[0].predicate.index == 1

    def test_shard_layouts_agree_under_ties(self, tmp_path):
        reports = self._tied_reports()
        picks = {}
        for layout in SHARD_LAYOUTS:
            store = ShardStore.create(
                str(tmp_path / f"tied-{layout}"), "tied", reports.table,
                SamplingPlan.full(),
            )
            for lo, hi in partition_bounds(reports.n_runs, layout):
                mask = np.zeros(reports.n_runs, dtype=bool)
                mask[lo:hi] = True
                store.append_shard(reports.subset(mask), seed_start=lo)
            analysis = AnalysisEngine().analyze_store(ShardStore.open(store.directory))
            picks[layout] = [s.predicate.index for s in analysis.elimination.selected]
        assert picks[1][0] == 1
        assert picks[1] == picks[3] == picks[7]


class TestLemma31ThroughEngine:
    def test_every_intersecting_bug_covered(self, tmp_path):
        """Lemma 3.1 holds through the engine: every bug whose profile
        intersects the predicated runs gets a predictor."""
        from repro.core.truth import GroundTruth

        # Two disjoint bugs, each with a faithful predictor, plus noise;
        # the pattern repeats so both predictors survive pruning.
        runs = [
            (True, {0}, None),
            (True, {0}, None),
            (True, {0, 2}, None),
            (True, {1}, None),
            (True, {1, 2}, None),
            (False, {2}, None),
            (False, set(), None),
            (False, {2}, None),
        ] * 5
        reports = make_reports(3, runs)
        truth = GroundTruth(bug_ids=["bug-a", "bug-b"])
        bug_of_run = [
            ["bug-a"], ["bug-a"], ["bug-a"], ["bug-b"], ["bug-b"], [], [], []
        ] * 5
        for bugs in bug_of_run:
            truth.add_run(bugs)
        store = ShardStore.create(
            str(tmp_path / "lemma"), "lemma", reports.table, SamplingPlan.full()
        )
        for lo, hi in partition_bounds(reports.n_runs, 2):
            mask = np.zeros(reports.n_runs, dtype=bool)
            mask[lo:hi] = True
            store.append_shard(
                reports.subset(mask), truth=truth.subset(mask), seed_start=lo
            )
        analysis = AnalysisEngine().analyze_store(ShardStore.open(store.directory))
        selected = [s.predicate.index for s in analysis.elimination.selected]
        covered = bugs_covered(analysis.reports, analysis.truth, selected)
        assert set(covered) == {"bug-a", "bug-b"}


class TestEngineUnit:
    """Direct engine coverage: the shard-layout helper and errors."""

    def test_partition_bounds_cover_exactly(self):
        for n in (0, 1, 2, 5, 17, 100):
            for parts in (1, 2, 3, 7, 150):
                bounds = partition_bounds(n, parts)
                assert len(bounds) == min(max(parts, 1), n) if n else bounds == []
                flat = [i for lo, hi in bounds for i in range(lo, hi)]
                assert flat == list(range(n))
                assert all(hi > lo for lo, hi in bounds)

    def test_partition_bounds_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            partition_bounds(-1, 2)

    def test_engine_rejects_bad_jobs(self):
        for jobs in (0, 2):
            with pytest.raises(ValueError, match="jobs"):
                AnalysisEngine(jobs=jobs)

    def test_score_stats_fires_documented_timers(self):
        """``analyze --profile`` shows ``scores.from_counts`` and
        ``analysis.prune``: the engine scores and prunes through
        ``SufficientStats.to_scores`` and ``prune_predicates``."""
        from repro import obs

        reports = make_reports(
            3, [(True, {0}, None), (True, {0, 1}, None), (False, {2}, None)]
        )
        stats = SufficientStats.from_reports(reports)
        obs.configure()
        try:
            AnalysisEngine().score_stats(stats)
            snap = obs.snapshot()
        finally:
            obs.shutdown()
        assert {"scores.from_counts", "analysis.prune"} <= set(snap["timers"])
        assert snap["gauges"]["analysis.pruning_initial"] == 3.0

    def test_summed_store_stats_equal_the_whole_population(self, tmp_path):
        """Disjoint stores' ``sufficient_stats()`` sum to the statistics
        of the population they split (in any order)."""
        reports = make_reports(
            3, [(True, {0}, None), (True, {0, 1}, None), (False, {2}, None)] * 3
        )
        stores = []
        for name, (lo, hi) in zip("abc", [(0, 4), (4, 5), (5, reports.n_runs)]):
            store = ShardStore.create(
                str(tmp_path / name), "split", reports.table, SamplingPlan.full()
            )
            mask = np.zeros(reports.n_runs, dtype=bool)
            mask[lo:hi] = True
            store.append_shard(reports.subset(mask), seed_start=lo)
            stores.append(ShardStore.open(store.directory))
        parts = [store.sufficient_stats() for store in stores]
        want = SufficientStats.from_reports(reports)
        _assert_stats_equal(parts[0] + parts[1] + parts[2], want)
        _assert_stats_equal(parts[2] + parts[0] + parts[1], want)

    def test_summing_stores_of_other_tables_rejected(self, tmp_path):
        parts = []
        for name, n_preds in (("small", 2), ("large", 3)):
            reports = make_reports(n_preds, [(True, {0}, None)])
            store = ShardStore.create(
                str(tmp_path / name), name, reports.table, SamplingPlan.full()
            )
            store.append_shard(reports, seed_start=0)
            parts.append(store.sufficient_stats())
        with pytest.raises(ValueError, match="different tables"):
            parts[0] + parts[1]

    def test_empty_store_rejected(self, tmp_path):
        reports = make_reports(2, [(True, {0}, None)])
        store = ShardStore.create(
            str(tmp_path / "empty"), "empty", reports.table, SamplingPlan.full()
        )
        with pytest.raises(ValueError, match="empty shard store"):
            AnalysisEngine().store_stats(store)

    def test_analyze_reports_stats_only(self):
        reports = make_reports(
            3, [(True, {0}, None), (True, {0, 1}, None), (False, {2}, None)]
        )
        analysis = AnalysisEngine().analyze_reports(reports, stats_only=True)
        assert analysis.elimination is None
        reference = compute_scores(reports)
        _assert_scores_bitwise_equal(analysis.scores, reference)

    def test_corruption_surfaces_as_store_error(self, tmp_path):
        """A damaged shard raises a typed store error out of the engine."""
        from repro.store.errors import StoreError

        reports = make_reports(
            3, [(True, {0}, None), (False, {1}, None), (False, {2}, None)]
        )
        store = ShardStore.create(
            str(tmp_path / "dmg"), "dmg", reports.table, SamplingPlan.full()
        )
        for lo, hi in partition_bounds(reports.n_runs, 3):
            mask = np.zeros(reports.n_runs, dtype=bool)
            mask[lo:hi] = True
            store.append_shard(reports.subset(mask), seed_start=lo)
        store = ShardStore.open(store.directory)
        victim = store.shard_paths()[1]
        with open(victim, "r+b") as fh:
            fh.seek(30)
            fh.write(b"\xff\xff\xff\xff")
        with pytest.raises(StoreError) as exc_info:
            AnalysisEngine().store_stats(store)
        assert "shard" in str(exc_info.value)
