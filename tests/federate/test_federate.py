"""Federation core tests: plan, merge, dedup, provenance, faults, CLI,
and the daemon's federation endpoints.

The pinned property throughout: a store federated from N sources is
*bit-identical* -- shard bytes, manifest membership, statistics, scores
-- to the single store a lone daemon would have collected over the same
seeds.
"""

import dataclasses
import json
import os
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.federate import (
    FederationError,
    FederationFetchError,
    HTTPSource,
    LocalSource,
    MANIFEST_SCHEMA,
    cross_audit,
    federate_stores,
    open_source,
    plan_sync,
)
from repro.harness.parallel import run_trials_sharded
from repro.store import ManifestError, ShardIntegrityError, ShardStore
from repro.store.faults import Fault, FaultInjector
from repro.store.manifest import ShardEntry, ShardManifest

from tests.conftest import build_synthetic_store
from tests.federate.conftest import (
    assert_federated_equals_baseline,
    distribute,
    read_shard,
    shard_essence,
)
from tests.golden import CASES, CHUNK, assert_golden_store

#: Retry timing for fault tests: fast, deterministic.
FAST = dict(backoff_base=0.001, backoff_cap=0.002)


def _federate_fleet(tmp_path, baseline, n_stores, **kwargs):
    fleet = distribute(
        baseline, [tmp_path / f"fleet-{i}" for i in range(n_stores)]
    )
    dest = ShardStore.create_like(str(tmp_path / "dest"), baseline.manifest)
    sources = [LocalSource(s.directory) for s in fleet]
    report = federate_stores(sources, dest, **kwargs)
    return fleet, sources, dest, report


class TestFederateEqualsSingleStore:
    @pytest.mark.parametrize("n_stores", [1, 2, 3, 5])
    def test_bit_identical_to_baseline(self, tmp_path, baseline_store, n_stores):
        _, _, dest, report = _federate_fleet(tmp_path, baseline_store, n_stores)
        assert report.clean
        assert len(report.pulled) == baseline_store.n_shards
        assert report.runs_merged == baseline_store.n_runs
        assert_federated_equals_baseline(dest, baseline_store)

    def test_dest_audit_clean_after_merge(self, tmp_path, baseline_store):
        _, sources, dest, _ = _federate_fleet(tmp_path, baseline_store, 3)
        audit = cross_audit(dest, sources)
        assert audit.clean
        assert all(not a.missing and not a.diverged for a in audit.sources)
        assert sum(len(a.replicated) for a in audit.sources) == dest.n_shards

    def test_idempotent_second_pass(self, tmp_path, baseline_store):
        _, sources, dest, _ = _federate_fleet(tmp_path, baseline_store, 3)
        before = json.load(open(os.path.join(dest.directory, "manifest.json")))
        again = federate_stores(sources, ShardStore.open(dest.directory))
        assert not again.pulled
        assert sorted(again.present) == sorted(
            e.filename for e in baseline_store.manifest.shards
        )
        after = json.load(open(os.path.join(dest.directory, "manifest.json")))
        assert before == after

    def test_incremental_federation(self, tmp_path, baseline_store):
        """Federating source-by-source lands in the same place."""
        fleet = distribute(
            baseline_store, [tmp_path / f"f{i}" for i in range(3)]
        )
        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        for store in fleet:
            federate_stores([LocalSource(store.directory)], dest)
            dest = ShardStore.open(dest.directory)
        assert_federated_equals_baseline(dest, baseline_store)

    def test_provenance_recorded_and_round_trips(self, tmp_path, baseline_store):
        _, sources, dest, _ = _federate_fleet(tmp_path, baseline_store, 2)
        labels = {s.label for s in sources}
        for entry in dest.manifest.shards:
            assert entry.source in labels
        reloaded = ShardStore.open(dest.directory)
        assert [e.source for e in reloaded.manifest.shards] == [
            e.source for e in dest.manifest.shards
        ]
        # Local shards keep the old manifest shape: no source key at all.
        for entry in baseline_store.manifest.shards:
            assert "source" not in entry.to_json()


#: One golden key federates in the default lane; the slow lane covers
#: every subject under both sampling modes.
GOLDEN_FLEET_CASES = [
    pytest.param(
        case,
        id=case.key,
        marks=() if case.key.startswith("ccrypt/full/") else pytest.mark.slow,
    )
    for case in CASES
    if case.subject != "tiny"  # the acceptance matrix federates it
]


@pytest.mark.parametrize("case", GOLDEN_FLEET_CASES)
def test_federated_fleet_matches_golden(tmp_path, case):
    """Two stores collecting disjoint, chunk-aligned seed ranges
    federate into exactly the golden population."""
    subject = case.build_subject()
    split = CHUNK * (case.n_runs // CHUNK // 2 or 1)
    fleet = [
        run_trials_sharded(
            subject,
            hi - lo,
            case.plan(),
            str(tmp_path / f"daemon-{lo}"),
            seed=lo,
            jobs=2,
            chunk_size=CHUNK,
        )
        for lo, hi in ((0, split), (split, case.n_runs))
    ]
    dest = ShardStore.create_like(str(tmp_path / "merged"), fleet[0].manifest)
    report = federate_stores([LocalSource(s.directory) for s in fleet], dest)
    assert report.clean and report.runs_merged == case.n_runs
    assert_golden_store(case.key, ShardStore.open(dest.directory))


class TestDedup:
    def test_duplicate_shards_deduped_deterministically(
        self, tmp_path, baseline_store
    ):
        # Both sources hold every shard; labels decide the winner.
        fleet = distribute(baseline_store, [tmp_path / "a-src"])
        fleet += distribute(baseline_store, [tmp_path / "b-src"])
        sources = [LocalSource(s.directory) for s in fleet]
        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        report = federate_stores(sources, dest)
        assert len(report.pulled) == baseline_store.n_shards
        assert len(report.deduped) == baseline_store.n_shards
        assert {label for _, label in report.deduped} == {sources[1].label}
        # Every pull came from the smaller label.
        assert {e.source for e in dest.manifest.shards} == {sources[0].label}
        assert_federated_equals_baseline(dest, baseline_store)

    def test_plan_is_order_insensitive(self, tmp_path, baseline_store):
        fleet = distribute(
            baseline_store, [tmp_path / f"f{i}" for i in range(3)]
        )
        dest_manifest = dataclasses.replace(baseline_store.manifest, shards=[])
        pairs = [
            (LocalSource(s.directory), s.manifest) for s in fleet
        ]
        forward = plan_sync(dest_manifest, pairs)
        backward = plan_sync(dest_manifest, list(reversed(pairs)))
        key = lambda plan: [
            (i.entry.filename, [s.label for s in i.sources]) for i in plan.pulls
        ]
        assert key(forward) == key(backward)
        assert forward.duplicates == backward.duplicates


class TestSeedDisjointness:
    def _entry(self, seed_start, n_runs, sha="0" * 64):
        return ShardEntry(
            seed_start=seed_start, n_runs=n_runs, num_failing=1, sha256=sha
        )

    def _manifest_like(self, store, entries):
        return dataclasses.replace(store.manifest, shards=entries)

    class _FakeSource:
        def __init__(self, label, manifest):
            self.label = label
            self._manifest = manifest

        def manifest(self):
            return self._manifest

    def test_partial_overlap_rejected(self, baseline_store):
        a = self._manifest_like(
            baseline_store, [self._entry(0, 10)]
        )
        b = self._manifest_like(
            baseline_store, [self._entry(5, 10, sha="1" * 64)]
        )
        dest = self._manifest_like(baseline_store, [])
        with pytest.raises(FederationError, match="double-count"):
            plan_sync(
                dest,
                [(self._FakeSource("a", a), a), (self._FakeSource("b", b), b)],
            )

    def test_same_range_different_content_rejected(self, baseline_store):
        a = self._manifest_like(baseline_store, [self._entry(0, 10)])
        b = self._manifest_like(
            baseline_store, [self._entry(0, 10, sha="f" * 64)]
        )
        dest = self._manifest_like(baseline_store, [])
        with pytest.raises(FederationError, match="different content"):
            plan_sync(
                dest,
                [(self._FakeSource("a", a), a), (self._FakeSource("b", b), b)],
            )

    def _document_with(self, store, **changes):
        """``store``'s manifest document, its first entry changed (a
        ``None`` value deletes the key)."""
        document = store.manifest.to_json()
        entry = document["shards"][0]
        entry.update(changes)
        for key in [k for k, v in changes.items() if v is None]:
            del entry[key]
        return document

    @pytest.mark.parametrize("sha256", [None, "unknown"])
    def test_entry_without_digest_rejected(self, baseline_store, sha256):
        # Without digests there is no proof two copies agree: such an
        # entry never gets past the manifest check to plan_sync.
        document = self._document_with(baseline_store, sha256=sha256)
        with pytest.raises(ManifestError) as info:
            ShardManifest.from_json(document)
        assert info.value.field == "sha256"

    @pytest.mark.parametrize("seed_start", [None, -1, "0"])
    def test_unseeded_entry_rejected(self, baseline_store, seed_start):
        # Federation cannot prove disjointness for unseeded shards; the
        # manifest check refuses them before any plan is made.
        document = self._document_with(baseline_store, seed_start=seed_start)
        with pytest.raises(ManifestError) as info:
            ShardManifest.from_json(document)
        assert info.value.field == "seed_start"

    def test_overlap_with_destination_rejected(self, tmp_path, baseline_store):
        fleet = distribute(baseline_store, [tmp_path / "src"])
        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        first = baseline_store.manifest.shards[0]
        shifted = dataclasses.replace(first, seed_start=first.seed_start + 1)
        dest.ingest_shard_bytes(read_shard(baseline_store, first.filename), shifted)
        with pytest.raises(FederationError, match="double-count"):
            federate_stores([LocalSource(fleet[0].directory)], dest)

    def test_incompatible_table_rejected(self, tmp_path, baseline_store):
        other, _ = build_synthetic_store(
            tmp_path / "other", k=2, n_runs=16, n_preds=3, seed=5
        )
        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        with pytest.raises(FederationError, match="predicate table"):
            federate_stores([LocalSource(other.directory)], dest)


class TestIngestShardBytes:
    def test_checksum_mismatch_refused(self, tmp_path, baseline_store):
        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        entry = baseline_store.manifest.shards[0]
        with pytest.raises(ShardIntegrityError):
            dest.ingest_shard_bytes(b"not the shard", entry)
        # Refusal leaves no trace: no file, no pending file, no entry.
        assert dest.manifest.find(entry.filename) is None
        assert not any(
            name.startswith(entry.filename)
            for name in os.listdir(dest.directory)
            if name != "manifest.json"
        )

    def test_entry_digest_always_checked(self, tmp_path, baseline_store):
        # Every entry carries a digest (the manifest check refuses one
        # without), and ingest checks it even against intact bytes.
        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        entry = dataclasses.replace(
            baseline_store.manifest.shards[0], sha256="0" * 64
        )
        with pytest.raises(ShardIntegrityError) as info:
            dest.ingest_shard_bytes(
                read_shard(baseline_store, entry.filename), entry
            )
        assert info.value.reason == "checksum-mismatch"
        assert sorted(os.listdir(dest.directory)) == ["manifest.json"]

    def test_create_like_copies_identity(self, tmp_path, baseline_store):
        dest = ShardStore.create_like(
            str(tmp_path / "dest"), baseline_store.manifest
        )
        for attr in ("subject", "table_sha", "config_sha", "plan", "format_version"):
            assert getattr(dest.manifest, attr) == getattr(
                baseline_store.manifest, attr
            )
        assert dest.manifest.shards == []
        with pytest.raises(FileExistsError):
            ShardStore.create_like(str(tmp_path / "dest"), baseline_store.manifest)


class TestFederationFaults:
    def test_fetch_error_retried(self, tmp_path, baseline_store):
        injector = FaultInjector(
            (Fault("fed-fetch-error", chunk=0), Fault("fed-fetch-error", chunk=2))
        )
        _, _, dest, report = _federate_fleet(
            tmp_path, baseline_store, 2, faults=injector, **FAST
        )
        assert report.clean
        assert report.retries == 2
        assert_federated_equals_baseline(dest, baseline_store)

    def test_corrupt_fetch_caught_and_retried(self, tmp_path, baseline_store):
        injector = FaultInjector((Fault("fed-corrupt-fetch", chunk=1),))
        _, _, dest, report = _federate_fleet(
            tmp_path, baseline_store, 2, faults=injector, **FAST
        )
        assert report.clean
        assert report.retries == 1
        assert_federated_equals_baseline(dest, baseline_store)

    def test_exhausted_retries_skip_with_audited_reason(
        self, tmp_path, baseline_store
    ):
        injector = FaultInjector(
            tuple(
                Fault("fed-fetch-error", chunk=0, attempt=a) for a in range(3)
            )
        )
        _, _, dest, report = _federate_fleet(
            tmp_path, baseline_store, 2, faults=injector, max_attempts=3, **FAST
        )
        assert not report.clean
        assert len(report.skipped) == 1
        record = report.skipped[0]
        first = baseline_store.manifest.shards[0]
        assert record.filename == first.filename
        assert record.reason == "fetch-error"
        assert record.seed_start == first.seed_start
        # The skip is audited in the destination, not just reported.
        reason_path = os.path.join(
            dest.directory, "quarantine", f"{first.filename}.reason.json"
        )
        assert json.load(open(reason_path))["reason"] == "fetch-error"
        events = [r["event"] for r in dest.read_log()]
        assert "federate-skip" in events
        # Everything else landed; only the injected range is missing.
        assert shard_essence(dest) == shard_essence(baseline_store)[1:]


class TestServeEndpoints:
    @pytest.fixture
    def server(self, tmp_path, baseline_store):
        """A daemon fronting a store pre-seeded with baseline shards."""
        from repro.serve import FeedbackServer
        from repro.serve.server import CollectionService
        from repro.subjects.ccrypt import CcryptSubject

        store = distribute(baseline_store, [tmp_path / "daemon"])[0]
        service = CollectionService(
            ShardStore.open(store.directory), CcryptSubject()
        )
        server = FeedbackServer(service)
        server.start()
        yield server
        server.close(drain=False)

    def test_manifest_endpoint(self, server, baseline_store):
        with urllib.request.urlopen(f"{server.url}/manifest") as response:
            document = json.loads(response.read())
        assert document["schema"] == MANIFEST_SCHEMA
        manifest = ShardManifest.from_json(document["manifest"])
        assert [e.sha256 for e in manifest.shards] == [
            e.sha256 for e in baseline_store.manifest.shards
        ]

    def test_shard_endpoint_serves_exact_bytes(self, server, baseline_store):
        entry = baseline_store.manifest.shards[0]
        with urllib.request.urlopen(
            f"{server.url}/shards/{entry.filename}"
        ) as response:
            data = response.read()
            assert response.headers["X-Repro-Sha256"] == entry.sha256
        assert data == read_shard(baseline_store, entry.filename)

    def test_unregistered_shard_404s(self, server):
        for name in ("nope.npz", "..%2Fmanifest.json", "ingest_wal.jsonl"):
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{server.url}/shards/{name}")
            assert exc.value.code == 404

    def test_http_federation_matches_local(self, tmp_path, server, baseline_store):
        source = HTTPSource(server.url)
        dest = ShardStore.create_like(
            str(tmp_path / "http-dest"), source.manifest()
        )
        report = federate_stores([source], dest)
        assert report.clean
        assert_federated_equals_baseline(dest, baseline_store)
        assert all(e.source == source.label for e in dest.manifest.shards)
        assert cross_audit(dest, [source]).clean

    def test_open_source_picks_transport(self, tmp_path):
        assert isinstance(open_source("http://127.0.0.1:1/"), HTTPSource)
        assert isinstance(open_source(str(tmp_path)), LocalSource)


class TestFetchErrors:
    def test_missing_file_reason(self, tmp_path, baseline_store):
        source = LocalSource(baseline_store.directory)
        entry = dataclasses.replace(
            baseline_store.manifest.shards[0], seed_start=10**6
        )
        with pytest.raises(FederationFetchError) as exc:
            source.fetch(entry)
        assert exc.value.reason == "missing-file"

    def test_unreachable_daemon_fetch(self, baseline_store):
        source = HTTPSource("http://127.0.0.1:9", timeout=0.2)
        with pytest.raises(FederationError):
            source.manifest()
        with pytest.raises(FederationFetchError):
            source.fetch(baseline_store.manifest.shards[0])

    def test_non_store_directory_rejected(self, tmp_path):
        with pytest.raises(FederationError, match="not a shard store"):
            LocalSource(str(tmp_path)).manifest()

    @pytest.mark.parametrize(
        "body",
        [
            b"[]",
            b'"manifest"',
            b"null",
            json.dumps({"schema": MANIFEST_SCHEMA}).encode(),
            json.dumps({"manifest": {}}).encode(),
            b"\xff\xfe not utf-8",
        ],
        ids=["list", "string", "null", "no-manifest", "no-schema", "not-utf8"],
    )
    def test_daemon_answer_without_manifest_refused(self, monkeypatch, body):
        """A ``GET /manifest`` answer that is not a manifest document is
        a FederationError, never a KeyError or AttributeError."""

        class Answer:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return body

        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: Answer())
        with pytest.raises(FederationError, match="manifest"):
            HTTPSource("http://127.0.0.1:9").manifest()


class TestHostileManifest:
    """A source manifest is outside input: its entries are checked
    before anything is pulled, planned or written."""

    def _traversal_source(self, tmp_path, baseline_store):
        """A source store whose one entry names ``../elsewhere/x.npz``
        -- a real shard, with its true digest, outside the source."""
        source = tmp_path / "a" / "src"
        elsewhere = tmp_path / "a" / "elsewhere"
        os.makedirs(source)
        os.makedirs(elsewhere)
        entry = baseline_store.manifest.shards[0]
        (elsewhere / "x.npz").write_bytes(read_shard(baseline_store, entry.filename))
        document = baseline_store.manifest.to_json()
        document["shards"] = [dict(entry.to_json(), filename="../elsewhere/x.npz")]
        (source / "manifest.json").write_text(json.dumps(document))
        return source

    def test_traversal_entry_refused_before_any_write(
        self, tmp_path, baseline_store, capsys
    ):
        source = self._traversal_source(tmp_path, baseline_store)
        # Where the entry points from inside a destination at b/dest.
        os.makedirs(tmp_path / "b" / "elsewhere")
        dest = tmp_path / "b" / "dest"
        code = cli_main(["federate", str(source), str(dest)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: manifest entry '../elsewhere/x.npz': filename must be "
            "'shard-00000000.npz', the name of its seed_start, got "
            "'../elsewhere/x.npz'"
        ]
        # Nothing was written: no destination, nothing beside it.
        assert os.listdir(tmp_path / "b") == ["elsewhere"]
        assert os.listdir(tmp_path / "b" / "elsewhere") == []

    def test_traversal_entry_refused_into_existing_store(
        self, tmp_path, baseline_store
    ):
        source = self._traversal_source(tmp_path, baseline_store)
        # Where the entry points from inside a destination at b/dest.
        os.makedirs(tmp_path / "b" / "elsewhere")
        dest = ShardStore.create_like(
            str(tmp_path / "b" / "dest"), baseline_store.manifest
        )
        with pytest.raises(ManifestError) as info:
            federate_stores([LocalSource(str(source))], dest)
        assert (info.value.field, info.value.entry) == (
            "filename", "'../elsewhere/x.npz'"
        )
        assert sorted(os.listdir(tmp_path / "b")) == ["dest", "elsewhere"]
        assert os.listdir(tmp_path / "b" / "elsewhere") == []
        assert os.listdir(dest.directory) == ["manifest.json"]
        assert ShardStore.open(dest.directory).manifest.shards == []


class TestCli:
    def test_federate_subcommand_end_to_end(
        self, tmp_path, baseline_store, capsys
    ):
        fleet = distribute(
            baseline_store, [tmp_path / f"f{i}" for i in range(3)]
        )
        dest_dir = str(tmp_path / "dest")
        code = cli_main(
            ["federate", *(s.directory for s in fleet), dest_dir]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"{baseline_store.n_shards} shards pulled" in out
        assert "fully replicated" in out
        assert_federated_equals_baseline(
            ShardStore.open(dest_dir), baseline_store
        )

    def test_exit_1_on_skips(self, tmp_path, baseline_store, capsys):
        fleet = distribute(baseline_store, [tmp_path / "src"])
        entry = fleet[0].manifest.shards[0]
        os.unlink(os.path.join(fleet[0].directory, entry.filename))
        code = cli_main(
            [
                "federate", fleet[0].directory, str(tmp_path / "dest"),
                "--max-attempts", "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "skipped" in captured.err
        assert "missing-file" in captured.err

    def test_exit_2_on_structural_refusal(self, tmp_path, baseline_store, capsys):
        other, _ = build_synthetic_store(
            tmp_path / "other", k=1, n_runs=8, n_preds=3, seed=9
        )
        fleet = distribute(baseline_store, [tmp_path / "src"])
        code = cli_main(
            ["federate", fleet[0].directory, other.directory, str(tmp_path / "d")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fault_flag_requires_testing(self, tmp_path, capsys):
        code = cli_main(
            [
                "federate", str(tmp_path / "a"), str(tmp_path / "b"),
                "--inject-fault", "fed-fetch-error@0",
            ]
        )
        assert code == 2
        assert "--testing" in capsys.readouterr().err

    def test_injected_fault_via_cli(self, tmp_path, baseline_store, capsys):
        fleet = distribute(baseline_store, [tmp_path / "src"])
        code = cli_main(
            [
                "federate", fleet[0].directory, str(tmp_path / "dest"),
                "--testing", "--inject-fault", "fed-fetch-error@0",
            ]
        )
        assert code == 0
        assert "1 retries" in capsys.readouterr().out
