"""Steering smoke test: a real daemon steering real client processes.

The CI ``steering-smoke`` scenario: one collection daemon as a real
subprocess with a lenient stopping policy, two steered ``repro-cbi
submit`` clients (one fixed round, one ``--until-converged``), a
SIGKILL + restart proving the steering document survives recovery, and
a graceful drain -- after which the store must recover and audit clean.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request

import pytest

from repro.store import ShardStore

pytestmark = pytest.mark.slow

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return env


def _cli(*argv, **kwargs):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def _start_server(store_dir, *extra):
    process = _cli(
        "serve", str(store_dir), "--port", "0", "--batch-runs", "20",
        "--sampling", "full", "--refit-runs", "20",
        "--stop-epsilon", "1.0", "--stop-min-runs", "60",
        "--stop-min-failing", "5", *extra,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("serving ccrypt on http://"), line
    url = line.split(" on ", 1)[1].split(" ", 1)[0]
    return process, url


def _get(url, path, timeout=5.0):
    with urllib.request.urlopen(url + path, timeout=timeout) as response:
        return json.loads(response.read())


def test_steering_smoke(tmp_path):
    store_dir = tmp_path / "store"
    server, url = _start_server(store_dir, "--subject", "ccrypt")
    try:
        # The daemon publishes a steering document from the first breath
        # (epoch 0: full-rate defaults, nothing converged yet).
        doc = _get(url, "/steering")
        assert doc["schema"] == "repro-steering/v1"
        assert doc["epoch"] == 0
        assert doc["converged"] is False
        assert all(0.0 < rate <= 1.0 for rate in doc["rates"])

        # Client one: a single steered round over seeds 0..19.
        first = _cli(
            "submit", "--subject", "ccrypt", "--url", url,
            "--runs", "20", "--seed", "0", "--steered",
            "--spool", str(tmp_path / "spool-a"), "--batch-size", "10",
            "--sampling", "full",
        )
        out, err = first.communicate(timeout=180)
        assert first.returncode == 0, err
        assert "submitted: 20 accepted" in out

        # Client two: steered rounds from seed 20 until the daemon's
        # stopping rule flips; rounds keep seeds contiguous so every
        # batch commits.
        until = _cli(
            "submit", "--subject", "ccrypt", "--url", url,
            "--runs", "20", "--seed", "20", "--until-converged",
            "--max-rounds", "10",
            "--spool", str(tmp_path / "spool-b"), "--batch-size", "10",
            "--sampling", "full",
        )
        out, err = until.communicate(timeout=600)
        assert until.returncode == 0, err
        assert out.startswith("converged after "), out

        health = _get(url, "/healthz")
        assert health["steering"] is True
        assert health["converged"] is True
        assert health["steering_epoch"] >= 60
        served_epoch = health["steering_epoch"]

        # Kill -9: no drain, no goodbye.
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    # Restart over the same store: the recovered daemon re-fits and
    # re-serves a steering document for the recovered population.
    server, url = _start_server(store_dir)
    try:
        doc = _get(url, "/steering")
        assert doc["epoch"] > 0
        assert doc["converged"] is True
        assert doc["version"].endswith(f"/{doc['epoch']}")

        server.send_signal(signal.SIGTERM)
        out, err = server.communicate(timeout=60)
        assert server.returncode == 0, err
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    store = ShardStore.open(str(store_dir))
    assert store.n_runs >= served_epoch
    assert store.recover() == ([], [])
    audit = store.audit()
    assert audit.runs_lost == 0
    # Provenance: every committed batch is logged, and at least one
    # carries a non-empty steering version list from the steered clients.
    log_path = os.path.join(str(store_dir), "steering_log.jsonl")
    entries = [json.loads(line) for line in open(log_path) if line.strip()]
    assert sum(entry["n_runs"] for entry in entries) == store.n_runs
    assert any(entry["versions"] for entry in entries)
