"""CLI smoke tests."""

import pytest

from repro.cli import SUBJECTS, build_parser, main
from repro.factory.mutate import MUTATION_CLASSES


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SUBJECTS:
            assert name in out

    def test_run_requires_subject(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_subject_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--subject", "nope"])

    def test_strategy_choices(self):
        args = build_parser().parse_args(
            ["run", "--subject", "ccrypt", "--strategy", "3"]
        )
        assert args.strategy == 3


class TestRunCommand:
    def test_small_ccrypt_run(self, capsys):
        code = main(
            [
                "run",
                "--subject",
                "ccrypt",
                "--runs",
                "200",
                "--sampling",
                "full",
                "--training-runs",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ccrypt" in out
        assert "predicate" in out

    def test_save_then_analyze_round_trip(self, capsys, tmp_path):
        archive = tmp_path / "reports.npz"
        html = tmp_path / "report.html"
        code = main(
            [
                "run",
                "--subject",
                "ccrypt",
                "--runs",
                "150",
                "--sampling",
                "full",
                "--training-runs",
                "0",
                "--save",
                str(archive),
                "--html",
                str(html),
            ]
        )
        assert code == 0
        assert archive.exists() and html.exists()
        run_out = capsys.readouterr().out

        code = main(["analyze", str(archive)])
        assert code == 0
        analyze_out = capsys.readouterr().out
        # The same predictor list is recovered from the archive.
        for line in run_out.splitlines():
            if "cursor" in line:
                assert any("cursor" in l for l in analyze_out.splitlines())
                break

    def test_analyze_ztest_method(self, capsys, tmp_path):
        archive = tmp_path / "reports.npz"
        main(
            [
                "run", "--subject", "ccrypt", "--runs", "150",
                "--sampling", "full", "--training-runs", "0",
                "--save", str(archive),
            ]
        )
        capsys.readouterr()
        assert main(["analyze", str(archive), "--method", "ztest"]) == 0
        out = capsys.readouterr().out
        assert "elimination selected" in out


class TestCollectCommand:
    def _collect(self, store_dir, runs="90", seed=None):
        argv = [
            "collect", "--subject", "ccrypt", "--runs", runs,
            "--sampling", "full", "--out", str(store_dir),
            "--jobs", "2", "--chunk-size", "30",
        ]
        if seed is not None:
            argv += ["--seed", seed]
        return main(argv)

    def test_collect_then_analyze_store(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert self._collect(store_dir) == 0
        out = capsys.readouterr().out
        assert "3 shards, 90 runs" in out
        assert (store_dir / "manifest.json").exists()

        assert main(["analyze", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "scored incrementally" in out
        assert "predicate" in out

    def test_collect_appends_across_sessions(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert self._collect(store_dir, runs="60") == 0
        capsys.readouterr()
        # Second session with no --seed continues at the next free seed.
        assert self._collect(store_dir, runs="30") == 0
        out = capsys.readouterr().out + capsys.readouterr().err
        assert "90 runs" in out

    def test_analyze_store_stats_only(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        self._collect(store_dir)
        capsys.readouterr()
        assert main(["analyze", str(store_dir), "--stats-only", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Importance" in out
        assert "predicate" in out

    def test_store_analysis_matches_archive_analysis(self, capsys, tmp_path):
        """`collect` + `analyze DIR` finds the same top predictor as the
        monolithic `run --save` + `analyze FILE` path at equal seeds."""
        archive = tmp_path / "reports.npz"
        main(
            [
                "run", "--subject", "ccrypt", "--runs", "90",
                "--sampling", "full", "--training-runs", "0",
                "--save", str(archive),
            ]
        )
        capsys.readouterr()
        main(["analyze", str(archive)])
        mono_out = capsys.readouterr().out

        store_dir = tmp_path / "store"
        self._collect(store_dir, seed="0")
        capsys.readouterr()
        main(["analyze", str(store_dir)])
        store_out = capsys.readouterr().out

        def predictor_lines(text):
            return [
                line for line in text.splitlines()
                if "is TRUE" in line or "is FALSE" in line
            ]

        assert predictor_lines(store_out) == predictor_lines(mono_out)

    def test_stats_only_measure_same_for_archive_and_store(self, capsys, tmp_path):
        """``--stats-only --measure`` ranks an archive exactly as it ranks
        a store of the same runs, not with the elimination table."""
        archive = tmp_path / "reports.npz"
        main(
            [
                "run", "--subject", "ccrypt", "--runs", "90",
                "--sampling", "full", "--training-runs", "0",
                "--save", str(archive),
            ]
        )
        store_dir = tmp_path / "store"
        self._collect(store_dir, seed="0")
        capsys.readouterr()

        def ranked_rows(path):
            argv = ["analyze", str(path), "--stats-only", "--measure", "ochiai"]
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            header = next(i for i, line in enumerate(lines) if "Ochiai" in line)
            return lines[header:]

        archive_rows = ranked_rows(archive)
        assert len(archive_rows) > 1
        assert archive_rows == ranked_rows(store_dir)


class TestFaultInjectionCLI:
    def _collect(self, store_dir, *extra):
        return main(
            [
                "collect", "--subject", "ccrypt", "--runs", "90",
                "--sampling", "full", "--out", str(store_dir),
                "--jobs", "2", "--chunk-size", "30", "--seed", "0",
                *extra,
            ]
        )

    def test_inject_fault_requires_testing_flag(self, capsys, tmp_path):
        code = self._collect(tmp_path / "store", "--inject-fault", "kill-worker@0")
        assert code == 2
        err = capsys.readouterr().err
        assert "--testing" in err
        assert not (tmp_path / "store").exists()

    def test_collect_survives_injected_faults(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        code = self._collect(
            store_dir,
            "--testing",
            "--inject-fault", "kill-worker@1",
            "--inject-fault", "flip-bytes@2",
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "2 retries" in captured.err
        assert "1 dead workers" in captured.err
        assert "1 corrupt shards quarantined" in captured.err
        assert "3 shards, 90 runs" in captured.out
        assert (store_dir / "quarantine").is_dir()

        assert main(["analyze", str(store_dir), "--stats-only"]) == 0
        out = capsys.readouterr().out
        assert "Importance" in out

    def test_analyze_audit_reports_post_commit_loss(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert (
            self._collect(
                store_dir, "--testing", "--inject-fault", "stale-manifest@1"
            )
            == 0
        )
        capsys.readouterr()
        assert main(["analyze", str(store_dir), "--stats-only"]) == 0
        captured = capsys.readouterr()
        assert "quarantined shard-00000030.npz [missing-file]" in captured.err
        assert "30 of 90 runs lost to quarantine" in captured.err
        assert "60 surviving runs" in captured.err
        assert "Importance" in captured.out

    def test_analyze_no_audit_surfaces_typed_error(self, capsys, tmp_path):
        from repro.store import StaleManifestError

        store_dir = tmp_path / "store"
        self._collect(store_dir, "--testing", "--inject-fault", "stale-manifest@1")
        capsys.readouterr()
        with pytest.raises(StaleManifestError, match="audit"):
            main(["analyze", str(store_dir), "--stats-only", "--no-audit"])


class TestObservabilityCLI:
    def _collect(self, store_dir, *extra):
        return main(
            [
                "collect", "--subject", "ccrypt", "--runs", "60",
                "--out", str(store_dir),
                "--jobs", "2", "--chunk-size", "20", "--seed", "0",
                *extra,
            ]
        )

    def test_collect_writes_metrics_and_trace(self, capsys, tmp_path):
        import json

        from repro.obs.metrics import METRICS_SCHEMA
        from repro.obs.trace import read_trace

        metrics_path = tmp_path / "METRICS.json"
        trace_path = tmp_path / "TRACE.jsonl"
        code = self._collect(
            tmp_path / "store",
            "--metrics", str(metrics_path),
            "--trace", str(trace_path),
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "wrote metrics" in err and "wrote trace spans" in err

        doc = json.loads(metrics_path.read_text())
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["counters"]["collect.chunks"] == 3
        assert doc["counters"]["store.shards_committed"] == 3
        assert "collect.worker_chunk" in doc["timers"]

        names = {event["name"] for event in read_trace(str(trace_path))}
        assert {"collect.session", "collect.worker_chunk"} <= names

    def test_collect_without_flags_leaves_obs_off(self, capsys, tmp_path):
        from repro import obs

        assert self._collect(tmp_path / "store") == 0
        assert not obs.enabled()
        assert "wrote metrics" not in capsys.readouterr().err

    def test_analyze_profile_prints_timer_table(self, capsys, tmp_path):
        self._collect(tmp_path / "store")
        capsys.readouterr()
        assert main(["analyze", str(tmp_path / "store"), "--profile"]) == 0
        captured = capsys.readouterr()
        assert "timer" in captured.err
        assert "store.stream_stats" in captured.err
        assert "Importance" not in captured.err  # results stay on stdout

    def test_bench_appends_both_documents(self, capsys, tmp_path):
        from repro.obs.bench import validate_file

        code = main(
            [
                "bench", "--quick", "--scale", "0.01",
                "--out-dir", str(tmp_path), "--label", "cli-test",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH_collection.json" in out and "BENCH_analysis.json" in out
        for name, kind in (
            ("BENCH_collection.json", "collection"),
            ("BENCH_analysis.json", "analysis"),
        ):
            doc = validate_file(str(tmp_path / name))
            assert doc["kind"] == kind
            assert doc["entries"][0]["label"] == "cli-test"


class TestListJson:
    def test_machine_readable_listing(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == sorted(SUBJECTS)
        for entry in entries:
            subject = SUBJECTS[entry["name"]]()
            assert entry["bug_ids"] == list(subject.bug_ids)
            assert entry["bug_count"] == len(subject.bug_ids)
            assert entry["trial_budget"] == subject.trial_budget
            assert entry["trial_budget"] > 0
            assert entry["kind"] == subject.kind
            assert entry["n_sites"] > 0
            assert entry["n_predicates"] > entry["n_sites"]
            if entry["kind"] == "factory":
                assert entry["mutation_class"] in MUTATION_CLASSES
            else:
                assert entry["mutation_class"] is None


class TestJobsDefaultsUnified:
    def test_every_jobs_flag_defaults_to_one(self):
        """Only trial collection has worker processes; analysis is serial."""
        parser = build_parser()
        for argv in (
            ["run", "--subject", "ccrypt"],
            ["collect", "--subject", "ccrypt", "--out", "x"],
        ):
            assert parser.parse_args(argv).jobs == 1, argv
        for argv in (["analyze", "store"], ["bakeoff"]):
            assert not hasattr(parser.parse_args(argv), "jobs"), argv

    def test_runs_defaults_to_subject_budget(self):
        parser = build_parser()
        assert parser.parse_args(["run", "--subject", "ccrypt"]).runs is None
        assert (
            parser.parse_args(
                ["collect", "--subject", "moss", "--out", "x"]
            ).runs
            is None
        )


class TestServeSubmitCLI:
    def test_serve_new_store_requires_subject(self, capsys, tmp_path):
        assert main(["serve", str(tmp_path / "store")]) == 2
        assert "--subject is required" in capsys.readouterr().err

    def test_serve_rejects_subject_mismatch(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        assert (
            main(
                [
                    "collect", "--subject", "ccrypt", "--runs", "30",
                    "--sampling", "full", "--out", str(store_dir),
                    "--chunk-size", "30", "--seed", "0",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["serve", str(store_dir), "--subject", "moss"]) == 2
        err = capsys.readouterr().err
        assert "holds subject 'ccrypt'" in err

    def test_submit_inject_fault_requires_testing(self, capsys, tmp_path):
        code = main(
            [
                "submit", "--subject", "ccrypt",
                "--url", "http://127.0.0.1:9",
                "--spool", str(tmp_path / "spool"),
                "--inject-fault", "net-refuse@0",
            ]
        )
        assert code == 2
        assert "--testing" in capsys.readouterr().err

    def test_serve_inject_fault_requires_testing(self, capsys, tmp_path):
        code = main(
            [
                "serve", str(tmp_path / "store"), "--subject", "ccrypt",
                "--inject-fault", "net-500@0",
            ]
        )
        assert code == 2
        assert "--testing" in capsys.readouterr().err

    def test_submit_defaults(self):
        args = build_parser().parse_args(
            [
                "submit", "--subject", "ccrypt",
                "--url", "http://127.0.0.1:8080", "--spool", "spool",
            ]
        )
        assert args.runs is None  # resolved to the subject's trial budget
        assert args.batch_size == 32
        assert args.max_attempts == 8

    def test_serve_defaults(self):
        args = build_parser().parse_args(
            ["serve", "store", "--subject", "ccrypt"]
        )
        assert args.port == 8080
        assert args.batch_runs == 200
        assert args.max_buffered == 100_000
