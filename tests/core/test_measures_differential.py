"""Differential suite: every measure is bit-identical across every path.

The tentpole contract of the measure registry: for any registered
suspiciousness measure ``m`` and any subject population, the per-predicate
value arrays agree **bitwise** (``tobytes``, never ``allclose``) across

* the registry applied to the monolithic scores (``Measure.values``),
* engine scoring (``AnalysisEngine().score_stats``) of a 3-shard store,
* the collection daemon's ``GET /scores?measure=m`` payload, and
* the summed ``sufficient_stats()`` of a two-store split of the same seeds,

on all five paper subjects.  The identity holds *structurally* (measures
are elementwise over sufficient statistics that add exactly) -- these
tests are the enforcement arm.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import measures
from repro.core.engine import AnalysisEngine
from repro.core.ranking import rank
from repro.core.importance import importance_scores
from repro.instrument.sampling import SamplingPlan
from repro.store import ShardStore

from tests.helpers import partition_bounds

SUBJECT_FIXTURES = [
    "moss_experiment",
    "ccrypt_experiment",
    "bc_experiment",
    "exif_experiment",
    "rhythmbox_experiment",
]


def _build_store(directory, experiment, n_shards, lo_runs=0, hi_runs=None):
    """Shard a slice of an experiment's population into one store."""
    reports, truth = experiment.reports, experiment.truth
    hi_runs = reports.n_runs if hi_runs is None else hi_runs
    store = ShardStore.create(
        str(directory), "differential", reports.table, SamplingPlan.full()
    )
    span = hi_runs - lo_runs
    for lo, hi in partition_bounds(span, n_shards):
        mask = np.zeros(reports.n_runs, dtype=bool)
        mask[lo_runs + lo : lo_runs + hi] = True
        store.append_shard(
            reports.subset(mask), truth=truth.subset(mask), seed_start=lo_runs + lo
        )
    return ShardStore.open(store.directory)


@pytest.fixture(scope="module")
def measure_stores(tmp_path_factory):
    """Per-subject cache: one 3-shard store plus a disjoint 2-store split."""
    cache = {}

    def get(request, fixture_name):
        if fixture_name not in cache:
            experiment = request.getfixturevalue(fixture_name)
            base = tmp_path_factory.mktemp(fixture_name)
            n = experiment.reports.n_runs
            cache[fixture_name] = {
                "experiment": experiment,
                "whole": _build_store(base / "whole", experiment, 3),
                "split": [
                    _build_store(base / "left", experiment, 2, 0, n // 2),
                    _build_store(base / "right", experiment, 2, n // 2, n),
                ],
            }
        return cache[fixture_name]

    return get


@pytest.mark.parametrize("subject_fixture", SUBJECT_FIXTURES)
class TestMeasureBitIdentity:
    def test_engine_vs_registry(self, request, measure_stores, subject_fixture):
        """Every measure: streamed engine values == the registry applied
        to the monolithic population's scores, bitwise."""
        from repro.core.scores import compute_scores

        stores = measure_stores(request, subject_fixture)
        engine = AnalysisEngine()
        stats = engine.store_stats(stores["whole"])
        monolithic = compute_scores(stores["experiment"].reports)
        for name in measures.available():
            scoring = engine.score_stats(stats, measure=name)
            assert scoring.measure == name
            want = measures.get(name).values(monolithic)
            assert scoring.measure_values.tobytes() == want.tobytes(), name

    def test_federated_vs_single_store(self, request, measure_stores, subject_fixture):
        """Every measure: federated two-store scoring == whole store, bitwise."""
        stores = measure_stores(request, subject_fixture)
        engine = AnalysisEngine()
        whole_stats = engine.store_stats(stores["whole"])
        split_stats = sum(
            (store.sufficient_stats() for store in stores["split"][1:]),
            stores["split"][0].sufficient_stats(),
        )
        for name in measures.available():
            whole = engine.score_stats(whole_stats, measure=name)
            federated = engine.score_stats(split_stats, measure=name)
            assert federated.measure == name
            assert (
                federated.measure_values.tobytes() == whole.measure_values.tobytes()
            ), name

    def test_scores_payload_vs_serial(self, request, measure_stores, subject_fixture):
        """Every measure: the service's /scores document carries the same
        bits and the same ranking as the serial CLI expression."""
        from repro.serve import CollectionService

        stores = measure_stores(request, subject_fixture)
        experiment = stores["experiment"]
        service = CollectionService(stores["whole"], experiment.config.subject)
        engine = AnalysisEngine()
        stats = engine.store_stats(stores["whole"])
        for name in measures.available():
            scoring = engine.score_stats(stats, measure=name)
            values = scoring.measure_values
            # An independent reference order: Python's stable sort,
            # descending, so ties keep ascending predicate index.
            order = sorted(
                scoring.pruning.kept_indices.tolist(),
                key=lambda i: values[i],
                reverse=True,
            )
            payload = service.scores_payload(measure=name)
            assert payload["measure"] == name
            got = [(p["index"], p["score"]) for p in payload["predicates"]]
            want = [(i, float(values[i])) for i in order]
            assert got == want, name  # float() round-trips exactly via IEEE

    def test_default_payload_is_importance(self, request, measure_stores, subject_fixture):
        """No measure= parameter keeps the historical Importance document."""
        from repro.serve import CollectionService

        stores = measure_stores(request, subject_fixture)
        experiment = stores["experiment"]
        service = CollectionService(stores["whole"], experiment.config.subject)
        payload = service.scores_payload(k=10)
        assert payload["measure"] == "importance"
        engine = AnalysisEngine()
        scoring = engine.score_stats(engine.store_stats(stores["whole"]))
        imp = importance_scores(scoring.scores).importance
        for p in payload["predicates"]:
            assert p["score"] == p["importance"] == float(imp[p["index"]])


class TestScoresEndpointHTTP:
    """The real HTTP surface: query parsing, 400s, payload equality."""

    @pytest.fixture()
    def server(self, request, measure_stores):
        from repro.serve import CollectionService, FeedbackServer

        stores = measure_stores(request, "ccrypt_experiment")
        service = CollectionService(stores["whole"], stores["experiment"].config.subject)
        server = FeedbackServer(service, port=0).start()
        try:
            yield stores, service, server
        finally:
            server.close(drain=True)

    def _get(self, server, path):
        with urllib.request.urlopen(f"http://127.0.0.1:{server.port}{path}") as resp:
            return json.loads(resp.read().decode("utf-8"))

    def test_measure_param_round_trips(self, server):
        stores, service, srv = server
        for name in measures.available():
            doc = self._get(srv, f"/scores?k=5&measure={name}")
            assert doc["measure"] == name
            want = service.scores_payload(k=5, measure=name)
            assert doc == want

    def test_negative_k_is_a_400(self, server):
        _stores, _service, srv = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(srv, "/scores?k=-2")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body == {"error": "bad-query", "detail": "k=-2"}

    def test_unknown_measure_is_a_400(self, server):
        _stores, _service, srv = server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(srv, "/scores?measure=bogus")
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"] == "unknown-measure"
        assert "tarantula" in body["detail"]


class TestRankingPathsAgree:
    """``analyze --stats-only``, ``GET /scores`` and ``rank``
    order tied measure values identically: by ascending predicate index."""

    @pytest.fixture()
    def tied_store(self, tmp_path):
        from tests.helpers import make_reports

        # P1 and P3 are true in exactly the same runs, so every measure
        # gives them the same value; the pattern repeats so both survive
        # pruning.
        runs = [
            (True, {1, 3}, None),
            (True, {1, 3}, None),
            (True, {0, 1, 3}, None),
            (True, {2}, None),
            (False, {0}, None),
            (False, {2}, None),
            (False, set(), None),
            (False, set(), None),
        ] * 5
        reports = make_reports(4, runs)
        store = ShardStore.create(
            str(tmp_path / "tied"), "tied", reports.table, SamplingPlan.full()
        )
        for lo, hi in partition_bounds(reports.n_runs, 2):
            mask = np.zeros(reports.n_runs, dtype=bool)
            mask[lo:hi] = True
            store.append_shard(reports.subset(mask), seed_start=lo)
        return ShardStore.open(store.directory)

    def test_tied_values_rank_identically(self, tied_store, capsys):
        from repro.cli import main as cli_main
        from repro.serve import CollectionService

        service = CollectionService(tied_store, None, steering=False)
        engine = AnalysisEngine()
        stats = engine.store_stats(tied_store)
        for name in measures.available():
            scoring = engine.score_stats(stats, measure=name)
            assert scoring.pruning.kept[1] and scoring.pruning.kept[3]
            assert scoring.measure_values[1] == scoring.measure_values[3]
            ranking = rank(
                tied_store.table(),
                scoring.scores,
                scoring.measure_values,
                candidates=scoring.pruning.kept,
            )
            want = [e.predicate.name for e in ranking]
            assert want.index("P1") < want.index("P3"), name

            payload = service.scores_payload(measure=name)
            assert [p["name"] for p in payload["predicates"]] == want, name

            argv = ["analyze", tied_store.directory, "--stats-only", "--measure", name]
            assert cli_main(argv) == 0
            rows = capsys.readouterr().out.splitlines()[2:]
            assert [row.split()[-1] for row in rows] == want, name

    def test_negative_k_rejected(self, tied_store):
        from repro.serve import CollectionService

        service = CollectionService(tied_store, None, steering=False)
        assert len(service.scores_payload(k=0)["predicates"]) == 0
        with pytest.raises(ValueError, match="k must be >= 0"):
            service.scores_payload(k=-2)

    def test_cli_rejects_negative_top(self, tied_store, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["analyze", tied_store.directory, "--stats-only", "--top", "-2"])
        assert excinfo.value.code == 2
        assert "--top: must be >= 0" in capsys.readouterr().err
