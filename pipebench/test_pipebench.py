"""Self-test of the pipeline benchmark at a tiny size.

Run from the repository root::

    python3 -m pytest -q pipebench/test_pipebench.py
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pipeline  # noqa: E402
import run  # noqa: E402

#: Sizes small enough for a test, large enough that elimination still
#: finds each subject's bug predictor at the seed below.
TINY = {
    "ingest-ccrypt": dict(round_trials=64, setups=1, traced_rounds=1),
    "trials-moss": dict(round_trials=96, setups=1, traced_rounds=1),
    "rank-exif": dict(bulk_runs=200, setup_trials=32, setups=1, traced_rounds=2),
}
SEED = 3


@pytest.fixture
def tiny(monkeypatch):
    for name, sizes in TINY.items():
        monkeypatch.setitem(
            pipeline.WORKLOADS, name, dataclasses.replace(pipeline.WORKLOADS[name], **sizes)
        )


def _run(name, workdir, trace=False):
    return run.run_workload(name, SEED, seconds=0, trace=trace, workdir=str(workdir))


def test_benchmark_json_lists_what_the_run_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in run.PER_LAYER
    ]
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(pipeline.WORKLOADS)


@pytest.mark.parametrize(
    "name,trace",
    [
        ("ingest-ccrypt", False),
        ("ingest-ccrypt", True),
        ("trials-moss", False),
        ("rank-exif", False),
        ("rank-exif", True),
    ],
)
def test_every_metric_is_emitted_and_the_checks_pass(tiny, tmp_path, name, trace):
    result, metrics, _ = _run(name, tmp_path, trace)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(metrics) == [m[0] for m in expected]
    assert all(math.isfinite(value) for value in metrics.values()), metrics
    assert result.tally.attempted > 0
    assert result.tally.failed == 0, result.tally.problems
    if trace:
        assert metrics["unaccounted_share"] < 0.05


def test_a_corrupted_store_counts_as_failed(tiny, tmp_path, monkeypatch):
    read_phase = pipeline.Run.read_phase

    def corrupt_then_read(self, store_dir, program, samples):
        shard = sorted(n for n in os.listdir(store_dir) if n.startswith("shard-"))[0]
        with open(os.path.join(store_dir, shard), "ab") as handle:
            handle.write(b"\0damaged")
        return read_phase(self, store_dir, program, samples)

    monkeypatch.setattr(pipeline.Run, "read_phase", corrupt_then_read)
    result, _, _ = _run("ingest-ccrypt", tmp_path)
    assert result.tally.failed > 0


def test_a_mismatched_count_counts_as_failed(tiny, tmp_path, monkeypatch):
    expected_counts = pipeline.expected_counts
    monkeypatch.setattr(
        pipeline, "expected_counts", lambda records, table: expected_counts(records[:-1], table)
    )
    result, _, _ = _run("ingest-ccrypt", tmp_path)
    assert result.tally.failed > 0
    assert any("counts differ" in problem for problem in result.tally.problems)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert pipeline.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0, 100)
    assert pipeline.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "pipebench/run.py", "--workload", "ingest-ccrypt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
