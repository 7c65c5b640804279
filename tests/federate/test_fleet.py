"""Federation fleet smoke: real daemon subprocesses, spooling clients,
a SIGKILL mid-ingest, and a CLI federate that must reproduce the serial
baseline bit for bit.

This is the CI ``federation-smoke`` scenario: three ``repro-cbi serve``
daemons own disjoint thirds of a 120-run ccrypt population; a dozen
spooling submit clients drain into them; daemon 1 takes a kill -9 with
acknowledged-but-uncommitted reports in its WAL and restarts; then
``repro-cbi federate`` merges the three stores and the result is
compared -- shard digests and streamed statistics -- against a serial
single-store collection over the same seeds.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.core.engine import AnalysisEngine
from repro.harness.parallel import run_trials_sharded
from repro.instrument.sampling import SamplingPlan
from repro.store import ShardStore
from repro.subjects.ccrypt import CcryptSubject

pytestmark = pytest.mark.slow

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Three daemons, disjoint 40-seed thirds, shard boundaries every 20.
RANGES = [(0, 40), (40, 80), (80, 120)]
BATCH_RUNS = 20


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return env


def _cli(*argv):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=REPO,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _start_daemon(store_dir, *extra):
    process = _cli(
        "serve", str(store_dir), "--port", "0", "--batch-runs",
        str(BATCH_RUNS), "--sampling", "full", *extra,
    )
    line = process.stdout.readline().strip()
    assert line.startswith("serving ccrypt on http://"), line
    url = line.split(" on ", 1)[1].split(" ", 1)[0]
    return process, url


def _submit(url, spool_dir, seed, runs):
    return _cli(
        "submit", "--subject", "ccrypt", "--url", url,
        "--runs", str(runs), "--seed", str(seed),
        "--spool", str(spool_dir), "--batch-size", "10",
        "--sampling", "full",
    )


def _await(clients, timeout=240):
    for client in clients:
        out, err = client.communicate(timeout=timeout)
        assert client.returncode == 0, err
        assert "0 rejected" in out, out


def _healthz(url):
    with urllib.request.urlopen(url + "/healthz", timeout=5.0) as response:
        return json.loads(response.read())


def _stop(process):
    process.send_signal(signal.SIGTERM)
    out, err = process.communicate(timeout=60)
    assert process.returncode == 0, err


def test_federation_fleet_smoke(tmp_path):
    stores = [tmp_path / f"daemon-{i}" for i in range(3)]
    daemons = []
    try:
        for i, store_dir in enumerate(stores):
            daemons.append(_start_daemon(store_dir, "--subject", "ccrypt"))

        # Daemons 0 and 2: two concurrent 20-seed clients each.
        clients = []
        for daemon_index in (0, 2):
            _, url = daemons[daemon_index]
            lo, _ = RANGES[daemon_index]
            for j in range(2):
                clients.append(
                    _submit(url, tmp_path / f"spool-{daemon_index}-{j}",
                            lo + 20 * j, 20)
                )
        # Daemon 1: first 10 seeds land as an acknowledged half-batch.
        _, url1 = daemons[1]
        clients.append(_submit(url1, tmp_path / "spool-1-0", 40, 10))
        _await(clients)
        assert _healthz(url1)["queue_depth"] == 10

        # Kill -9 daemon 1 with those 10 reports living only in its WAL.
        process1, _ = daemons[1]
        process1.send_signal(signal.SIGKILL)
        process1.wait(timeout=30)

        # Restart over the same store (subject pinned by the manifest);
        # the WAL replay restores the acknowledged tail, and the
        # remaining clients complete the daemon's seed range.
        daemons[1] = _start_daemon(stores[1])
        _, url1 = daemons[1]
        assert _healthz(url1)["queue_depth"] == 10
        _await([
            _submit(url1, tmp_path / f"spool-1-{j}", 40 + 10 * j, 10)
            for j in range(1, 4)
        ])

        for i, (process, url) in enumerate(daemons):
            lo, hi = RANGES[i]
            deadline = time.time() + 60
            while _healthz(url)["n_runs"] < hi - lo and time.time() < deadline:
                time.sleep(0.2)
            _stop(process)
            daemons[i] = None
    finally:
        for daemon in daemons:
            if daemon and daemon[0].poll() is None:
                daemon[0].kill()
                daemon[0].wait(timeout=30)

    # Every daemon store must have committed its whole range, cleanly.
    for (lo, hi), store_dir in zip(RANGES, stores):
        store = ShardStore.open(str(store_dir))
        assert store.n_runs == hi - lo
        assert store.recover() == ([], [])
        assert store.audit().clean

    # The tentpole: `repro-cbi federate SRC... DEST` merges the fleet.
    dest_dir = tmp_path / "merged"
    federate = _cli("federate", *map(str, stores), str(dest_dir))
    out, err = federate.communicate(timeout=120)
    assert federate.returncode == 0, err
    assert "6 shards pulled (120 runs" in out, out
    assert "0 skipped" in out
    assert out.count("fully replicated") == 3

    # Bitwise differential against a serial single-store collection.
    subject = CcryptSubject()
    serial = run_trials_sharded(
        subject, 120, SamplingPlan.full(), str(tmp_path / "serial"),
        seed=0, jobs=2, chunk_size=BATCH_RUNS,
    )
    merged = ShardStore.open(str(dest_dir))
    assert [
        (e.filename, e.seed_start, e.n_runs, e.sha256)
        for e in merged.manifest.shards
    ] == [
        (e.filename, e.seed_start, e.n_runs, e.sha256)
        for e in serial.manifest.shards
    ]
    engine = AnalysisEngine()
    a = engine.store_stats(serial)
    b = engine.store_stats(merged)
    np.testing.assert_array_equal(a.F, b.F)
    np.testing.assert_array_equal(a.S, b.S)
    np.testing.assert_array_equal(a.F_obs, b.F_obs)
    np.testing.assert_array_equal(a.S_obs, b.S_obs)
    assert (a.num_failing, a.num_successful) == (b.num_failing, b.num_successful)
    assert merged.audit().clean
