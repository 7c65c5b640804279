"""CLI smoke tests."""

import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys

import pytest

from repro.cli import SUBJECTS, build_parser, main
from repro.core.io import file_sha256
from repro.factory.mutate import MUTATION_CLASSES
from repro.store import ShardStore

from tests.conftest import build_synthetic_store
from tests.helpers import shorten_archive_stats

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


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
        store_dir = tmp_path / "store"
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
                str(store_dir),
                "--html",
                str(html),
            ]
        )
        assert code == 0
        assert html.exists()
        store = ShardStore.open(str(store_dir))
        assert (store.n_shards, store.n_runs) == (1, 150)
        assert store.manifest.shards[0].seed_start == 0
        run_out = capsys.readouterr().out

        code = main(["analyze", str(store_dir)])
        assert code == 0
        analyze_out = capsys.readouterr().out
        # The same predictor list is recovered from the store.
        for line in run_out.splitlines():
            if "cursor" in line:
                assert any("cursor" in l for l in analyze_out.splitlines())
                break

    def test_analyze_ztest_method(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        main(
            [
                "run", "--subject", "ccrypt", "--runs", "150",
                "--sampling", "full", "--training-runs", "0",
                "--save", str(store_dir),
            ]
        )
        capsys.readouterr()
        assert main(["analyze", str(store_dir), "--method", "ztest"]) == 0
        out = capsys.readouterr().out
        assert "elimination selected" in out

    @pytest.mark.parametrize("existing", ["store", "file"])
    def test_save_onto_an_existing_path_refused_before_any_trial(
        self, capsys, monkeypatch, tmp_path, existing
    ):
        """``run --save`` makes a new store: an existing store or file is
        one ``error:`` line before the trials, and stays as it was."""
        import repro.cli as cli

        target = tmp_path / "target"
        if existing == "store":
            assert main([
                "collect", "--subject", "ccrypt", "--runs", "20",
                "--sampling", "full", "--out", str(target),
            ]) == 0
            before = sorted(os.listdir(target))
        else:
            target.write_bytes(b"not a store")
        capsys.readouterr()

        def refuse(config):
            raise AssertionError("ran the experiment")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        assert main([
            "run", "--subject", "ccrypt", "--runs", "20", "--save", str(target),
        ]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {target} is a file or a shard store; "
            "`run --save` writes a new store"
        ]
        if existing == "store":
            assert sorted(os.listdir(target)) == before
        else:
            assert target.read_bytes() == b"not a store"


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

    @pytest.mark.parametrize("sampling", ["uniform", "adaptive"])
    def test_append_collects_under_the_store_plan(
        self, capsys, monkeypatch, tmp_path, sampling
    ):
        """A second session keeps the manifest's plan whatever
        ``--sampling`` says, and trains no adaptive plan for it."""
        import repro.harness.experiment as experiment

        def collect(store_dir, runs, *extra):
            return main([
                "collect", "--subject", "ccrypt", "--runs", runs,
                "--out", str(store_dir), "--chunk-size", "20", *extra,
            ])

        reference = tmp_path / "reference"
        assert collect(reference, "40", "--sampling", "full") == 0
        store_dir = tmp_path / "store"
        assert collect(store_dir, "20", "--sampling", "full") == 0
        capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("trained a sampling plan")

        monkeypatch.setattr(experiment, "collect_site_means", refuse)
        assert collect(store_dir, "20", "--sampling", sampling) == 0
        assert "(seeds 20..39, the store's full sampling)" in capsys.readouterr().err
        store = ShardStore.open(str(store_dir))
        assert store.manifest.plan == {"mode": "full"}
        assert [e.sha256 for e in store.manifest.shards] == [
            e.sha256 for e in ShardStore.open(str(reference)).manifest.shards
        ]

    def test_per_site_plan_must_rate_every_site(self, capsys, tmp_path):
        """A manifest plan with one rate for ccrypt's many sites is refused
        by collect and serve with one error line, before any trial."""
        store_dir = tmp_path / "store"
        assert self._collect(store_dir, runs="30") == 0
        path = store_dir / "manifest.json"
        doc = json.loads(path.read_text())
        doc["plan"] = {"mode": "per-site", "site_rates": [0.5]}
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        for argv in (
            ["collect", "--subject", "ccrypt", "--runs", "30",
             "--out", str(store_dir)],
            ["serve", str(store_dir), "--port", "0"],
        ):
            assert main(argv) == 1
            err = [
                line for line in capsys.readouterr().err.splitlines()
                if line.startswith("error:")
            ]
            assert err == [
                "error: manifest: plan has 1 site rates for a table of "
                f"{SUBJECTS['ccrypt']().build_program().table.n_sites} sites"
            ]
        assert ShardStore.open(str(store_dir)).n_runs == 30

    @pytest.mark.parametrize("seed", [0, 10])
    def test_overlapping_seed_range_refused_before_any_trial(
        self, capsys, tmp_path, seed
    ):
        """A session whose seeds overlap a registered shard is one
        ``error:`` line before any trial: no session is logged and no
        pending shard is left behind."""
        store_dir = tmp_path / "store"
        argv = [
            "collect", "--subject", "ccrypt", "--runs", "20", "--sampling", "full",
            "--chunk-size", "20", "--out", str(store_dir), "--seed",
        ]
        assert main(argv + ["0"]) == 0
        before = sorted(os.listdir(store_dir))
        log = ShardStore.open(str(store_dir)).read_log()
        capsys.readouterr()
        assert main(argv + [str(seed)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert [l for l in captured.err.splitlines() if l.startswith("error:")] == [
            f"error: seeds [{seed}, {seed + 20}) overlap registered shard "
            f"shard-00000000.npz in {store_dir}; choose a disjoint seed range "
            "(next free seed: 20)"
        ]
        assert sorted(os.listdir(store_dir)) == before
        assert ShardStore.open(str(store_dir)).read_log() == log

    def test_analyze_store_stats_only(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        self._collect(store_dir)
        capsys.readouterr()
        assert main(["analyze", str(store_dir), "--stats-only", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "Importance" in out
        assert "predicate" in out

    def test_saved_run_and_collected_store_analyze_identically(
        self, capsys, tmp_path
    ):
        """The one-shard store of `run --save` and a three-shard `collect`
        store of the same seeds give byte-identical `analyze` stdout."""
        saved = tmp_path / "saved"
        assert main(
            [
                "run", "--subject", "ccrypt", "--runs", "90",
                "--sampling", "full", "--training-runs", "0",
                "--save", str(saved),
            ]
        ) == 0
        store_dir = tmp_path / "store"
        assert self._collect(store_dir, seed="0") == 0
        assert ShardStore.open(str(saved)).n_shards == 1
        assert ShardStore.open(str(store_dir)).n_shards == 3
        capsys.readouterr()

        def stdout(path, flags):
            assert main(["analyze", str(path), *flags]) == 0
            return capsys.readouterr().out

        for flags in (
            [],
            ["--strategy", "2"],
            ["--strategy", "3"],
            ["--method", "ztest"],
            ["--stats-only", "--measure", "ochiai"],
        ):
            out = stdout(saved, flags)
            assert "is TRUE" in out or "is FALSE" in out
            assert out == stdout(store_dir, flags), flags

    @pytest.mark.parametrize("strategy", ["1", "2", "3"])
    def test_store_and_archive_of_same_runs_rank_identically(
        self, capsys, tmp_path, strategy
    ):
        """`analyze DIR` (elimination over the kept columns) prints the
        same ranked rows, co-occurrence columns included, as `run` does
        with elimination over the whole population of the same runs."""
        store_dir = tmp_path / "store"
        assert main(
            [
                "run", "--subject", "ccrypt", "--runs", "90",
                "--sampling", "full", "--training-runs", "0",
                "--strategy", strategy, "--save", str(store_dir),
            ]
        ) == 0
        run_out = capsys.readouterr().out.splitlines()
        # `run` prints the summary table, a blank line, then the rows.
        run_rows = run_out[run_out.index("") + 1:]

        assert main(["analyze", str(store_dir), "--strategy", strategy]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("pruning kept")
        store_rows = [
            line for line in out
            if not line.startswith(("pruning kept", "elimination selected"))
        ]
        assert len(store_rows) > 1
        assert store_rows == run_rows


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

    def test_fault_environment_variable_is_ignored(self, capsys, monkeypatch, tmp_path):
        # Faults reach collection only through --testing --inject-fault;
        # an environment variable must not kill a worker behind the gate.
        monkeypatch.setenv("REPRO_INJECT_FAULTS", "kill-worker@0")
        store_dir = tmp_path / "store"
        assert self._collect(store_dir) == 0
        assert "retries" not in capsys.readouterr().err
        events = [e["event"] for e in ShardStore.open(str(store_dir)).read_log()]
        assert "chunk-failed" not in events

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
        store_dir = tmp_path / "store"
        self._collect(store_dir, "--testing", "--inject-fault", "stale-manifest@1")
        capsys.readouterr()
        assert main(["analyze", str(store_dir), "--stats-only", "--no-audit"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: manifest lists shard-00000030.npz but the file is "
            "missing; run audit() to quarantine it"
        )


class TestForeignFaultKinds:
    """A fault kind the command never fires is refused with one error
    line and exit 2, before any trial runs or any store is touched."""

    @pytest.mark.parametrize(
        "command, kind",
        [
            ("collect", "net-500@0"),
            ("serve", "net-refuse@0"),
            ("submit", "net-500@0"),
            ("federate", "kill-worker@0"),
        ],
    )
    def test_refused(self, capsys, monkeypatch, tmp_path, command, kind):
        from repro.serve import FeedbackServer

        def never(self):
            raise AssertionError("serve started despite a foreign fault kind")

        monkeypatch.setattr(FeedbackServer, "start", never)
        source = tmp_path / "source"
        assert main([
            "collect", "--subject", "ccrypt", "--runs", "20",
            "--sampling", "full", "--out", str(source),
        ]) == 0
        capsys.readouterr()
        target = tmp_path / "target"
        argv = {
            "collect": [
                "collect", "--subject", "ccrypt", "--runs", "20",
                "--sampling", "full", "--out", str(target),
            ],
            "serve": [
                "serve", str(target), "--subject", "ccrypt", "--port", "0",
                "--sampling", "full",
            ],
            "submit": [
                "submit", "--subject", "ccrypt", "--url", "http://127.0.0.1:9",
                "--runs", "0", "--spool", str(target),
            ],
            "federate": ["federate", str(source), str(target)],
        }[command]
        assert main([*argv, "--testing", "--inject-fault", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {command} never fires {kind}; ")
        assert not target.exists()


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

    def test_serve_restart_trains_no_plan(self, capsys, tmp_path):
        """An existing store keeps the plan it was created with, so a
        restarted daemon never runs the adaptive plan's training trials."""
        store_dir = tmp_path / "store"
        assert main([
            "collect", "--subject", "ccrypt", "--runs", "20",
            "--sampling", "full", "--out", str(store_dir),
        ]) == 0
        script = (
            "import sys\n"
            "import repro.harness.experiment as experiment\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('trained a sampling plan')\n"
            "experiment.collect_site_means = refuse\n"
            "from repro.cli import main\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        process = subprocess.Popen(
            [sys.executable, "-c", script, "serve", str(store_dir), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = process.stdout.readline()
            assert line.startswith("serving ccrypt on http://"), (
                line + process.stderr.read()
            )
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert "store now holds 1 shards, 20 runs" in out

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

    def test_submit_that_gives_up_is_one_error_line(self, capsys, tmp_path):
        """Regression: an upload that ran out of attempts ended the
        command in an ``UploadError`` traceback.  It is one ``error:``
        line naming the spool, which keeps every report for a retry."""
        from repro.serve.client import ReportSpool

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        spool = tmp_path / "spool"
        code = main(
            [
                "submit", "--subject", "ccrypt", "--url", url,
                "--runs", "4", "--spool", str(spool), "--sampling", "full",
                "--max-attempts", "1",
            ]
        )
        assert code == 1
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1
        assert f"spool {spool} still holds 4 reports" in errors[0]
        assert ReportSpool(str(spool)).pending_seeds() == [0, 1, 2, 3]

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


class TestBadArguments:
    """Counts and rates outside their domain are usage errors (exit 2),
    refused before any trial runs or any store is created."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["collect", "--chunk-size", "0"], "--chunk-size"),
            (["collect", "--chunk-size", "-2"], "--chunk-size"),
            (["collect", "--runs", "-3"], "--runs"),
            (["collect", "--runs", "0"], "--runs"),
            (["collect", "--jobs", "-2"], "--jobs"),
            (["collect", "--rate", "1.5"], "--rate"),
            (["collect", "--training-runs", "-1"], "--training-runs"),
            (["collect", "--max-attempts", "0"], "--max-attempts"),
            (["run", "--subject", "ccrypt", "--runs", "-3"], "--runs"),
            (["run", "--subject", "ccrypt", "--jobs", "0"], "--jobs"),
            (["run", "--subject", "ccrypt", "--rate", "0"], "--rate"),
            (["run", "--subject", "ccrypt", "--rate", "nan"], "--rate"),
            (["bakeoff", "--runs", "0"], "--runs"),
            (["serve", "store", "--batch-runs", "0"], "--batch-runs"),
            (["serve", "store", "--refit-runs", "0"], "--refit-runs"),
            (["serve", "store", "--rate", "-0.5"], "--rate"),
            (["submit", "--runs", "-1"], "--runs"),
            (["submit", "--rate", "2"], "--rate"),
            (["submit", "--batch-size", "0"], "--batch-size"),
            (["federate", "a", "b", "--max-attempts", "0"], "--max-attempts"),
            (["serve", "store", "--watchlist-k", "-1"], "--watchlist-k"),
            (["serve", "store", "--max-buffered", "0"], "--max-buffered"),
            (["collect", "--chunk-timeout", "0"], "--chunk-timeout"),
            (["collect", "--chunk-timeout", "nan"], "--chunk-timeout"),
            (["submit", "--timeout", "0"], "--timeout"),
            (["submit", "--timeout", "-1"], "--timeout"),
            (["federate", "a", "b", "--timeout", "inf"], "--timeout"),
            (["serve", "store", "--stop-epsilon", "0"], "--stop-epsilon"),
            (["serve", "store", "--stop-epsilon", "nan"], "--stop-epsilon"),
            (["submit", "--max-rounds", "0"], "--max-rounds"),
            (["serve", "store", "--stop-min-runs", "-1"], "--stop-min-runs"),
            (["serve", "store", "--stop-min-failing", "-1"], "--stop-min-failing"),
            (["serve", "store", "--port", "65536"], "--port"),
        ],
    )
    def test_rejected_as_usage_error(self, capsys, tmp_path, argv, flag):
        if argv[0] == "collect":
            argv = argv[:1] + [
                "--subject", "ccrypt", "--out", str(tmp_path / "store"),
            ] + argv[1:]
        elif argv[0] == "submit":
            argv = argv[:1] + [
                "--subject", "ccrypt", "--url", "http://127.0.0.1:9",
                "--spool", str(tmp_path / "spool"),
            ] + argv[1:]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("port", ["-1", "65536", "http"])
    def test_bad_port_creates_no_store(self, capsys, tmp_path, port):
        """The port is checked with the other arguments, not when the
        daemon binds -- by then the store would exist."""
        with pytest.raises(SystemExit) as info:
            main(["serve", str(tmp_path / "S"), "--subject", "ccrypt",
                  "--port", port])
        assert info.value.code == 2
        assert "argument --port" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_edge_values_still_accepted(self):
        args = build_parser().parse_args(
            ["serve", "S", "--port", "0", "--stop-min-runs", "0",
             "--stop-min-failing", "0", "--stop-epsilon", "1e-9"]
        )
        assert (args.port, args.stop_min_runs, args.stop_min_failing) == (0, 0, 0)
        assert build_parser().parse_args(
            ["serve", "S", "--port", "65535"]
        ).port == 65535

    def test_zero_submit_runs_still_means_drain_only(self):
        args = build_parser().parse_args(
            [
                "submit", "--subject", "ccrypt", "--url", "http://127.0.0.1:9",
                "--spool", "spool", "--runs", "0", "--training-runs", "0",
            ]
        )
        assert (args.runs, args.training_runs) == (0, 0)

    def test_bench_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--quick"])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestTypedErrors:
    """Damaged or missing inputs end in one ``error:`` line and exit 1."""

    def _analyze(self, capsys, path):
        code = main(["analyze", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "Traceback" not in captured.err
        return captured.err.splitlines()

    def test_store_with_short_statistics(self, capsys, tmp_path):
        """A one-shard store whose header declares its statistic columns
        one entry short of the table, under a matching digest: neither
        analysis may rank over the short columns or die in a traceback."""
        store_dir = tmp_path / "store"
        assert main([
            "collect", "--subject", "ccrypt", "--runs", "20", "--sampling", "full",
            "--out", str(store_dir),
        ]) == 0
        store = ShardStore.open(str(store_dir))
        (path,) = store.shard_paths()
        shorten_archive_stats(path)
        store.manifest.shards[0] = dataclasses.replace(
            store.manifest.shards[0], sha256=file_sha256(path)
        )
        store.manifest.save(store.manifest_path)
        for extra in (["--stats-only"], []):
            capsys.readouterr()
            assert main(["analyze", str(store_dir), "--no-audit", *extra]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Traceback" not in captured.err
            errors = [l for l in captured.err.splitlines() if l.startswith("error:")]
            assert errors == captured.err.splitlines()[-1:]
            assert errors[0].startswith(
                "error: shard shard-00000000.npz is corrupt: "
            )
            assert "statistic section" in errors[0]
        assert main(["analyze", str(store_dir), "--stats-only"]) == 1
        err = capsys.readouterr().err
        assert "quarantined shard-00000000.npz [unreadable]" in err
        assert "audit left no usable shards" in err

    def test_garbage_archive(self, capsys, tmp_path):
        """``analyze`` reads only stores: a file is refused, whatever it holds."""
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not an archive" * 10)
        assert self._analyze(capsys, junk) == [
            f"error: no manifest.json in {junk}; not a shard store"
        ]

    def test_manifest_entry_without_n_runs(self, capsys, tmp_path):
        store, _ = build_synthetic_store(tmp_path / "store")
        with open(store.manifest_path) as fh:
            document = json.load(fh)
        del document["shards"][1]["n_runs"]
        with open(store.manifest_path, "w") as fh:
            json.dump(document, fh)
        name = store.manifest.shards[1].filename
        assert self._analyze(capsys, store.directory) == [
            f"error: manifest entry {name!r}: n_runs is missing"
        ]

    def test_serve_over_manifest_with_unreadable_plan(self, capsys, tmp_path):
        """``serve`` takes an existing store's plan, so a plan it cannot
        read is one ``error:`` line at open, not a traceback later."""
        store_dir = tmp_path / "store"
        assert main([
            "collect", "--subject", "ccrypt", "--runs", "20",
            "--sampling", "full", "--out", str(store_dir),
        ]) == 0
        capsys.readouterr()
        manifest_path = store_dir / "manifest.json"
        document = json.loads(manifest_path.read_text())
        document["plan"] = {"mode": "per-site", "site_rates": [2.0]}
        manifest_path.write_text(json.dumps(document))
        assert main(["serve", str(store_dir), "--port", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: manifest: plan is not a sampling plan "
            "(site rates must be in (0, 1])"
        ]

    def test_manifest_not_json(self, capsys, tmp_path):
        (tmp_path / "manifest.json").write_bytes(b'{"shards": [')
        lines = self._analyze(capsys, tmp_path)
        assert len(lines) == 1
        assert lines[0].startswith("error: manifest: document is not JSON")

    def test_directory_without_manifest(self, capsys, tmp_path):
        lines = self._analyze(capsys, tmp_path)
        assert lines == [
            f"error: no manifest.json in {tmp_path}; not a shard store"
        ]

    def test_missing_path(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        assert self._analyze(capsys, missing) == [
            f"error: no manifest.json in {missing}; not a shard store"
        ]
