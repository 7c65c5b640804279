"""Regenerate ``tests/golden/GOLDEN_digests.json``.

Usage (from the repository root)::

    PYTHONPATH=src python -m tests.golden.regenerate            # rewrite
    PYTHONPATH=src python -m tests.golden.regenerate --check    # compare

``--check`` exits 1 on any difference and prints one line per differing
key and field (``table_sha``, ``stats``, ``scores``, ``shards`` with the
differing shard positions, ``analyze``), so one run on an interpreter
says which layer moved.

Every value comes from the two local collection paths only: the serial
runner (:func:`repro.harness.runner.run_trials`) gives the table
signature, statistics and scores; :func:`run_trials_sharded` at the
golden chunk size gives the shard digests and the ``analyze`` stdout,
after its streamed statistics and scores are checked equal to the
serial ones.  Regenerate only when a change alters the pipeline's output
on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Dict, List

from tests.golden import (
    CASES,
    CHUNK,
    GOLDEN_PATH,
    GoldenCase,
    analyze_digest,
    scores_digest,
    shard_digests,
    stats_digest,
)


def case_digests(case: GoldenCase, workdir: str) -> Dict[str, object]:
    """Compute one key's digests through ``run_trials`` and
    ``run_trials_sharded``."""
    from repro.core.scores import compute_scores
    from repro.harness.parallel import run_trials_sharded
    from repro.harness.runner import run_trials
    from repro.core.scores import SufficientStats

    subject = case.build_subject()
    program = subject.build_program()
    reports, _ = run_trials(subject, program, case.n_runs, case.plan())
    serial = {
        "table_sha": program.table.signature(),
        "stats": stats_digest(SufficientStats.from_reports(reports)),
        "scores": scores_digest(compute_scores(reports)),
    }

    store = run_trials_sharded(
        subject,
        case.n_runs,
        case.plan(),
        os.path.join(workdir, case.key.replace("/", "_")),
        jobs=2,
        chunk_size=CHUNK,
    )
    stats = store.sufficient_stats()
    sharded = {
        "table_sha": store.manifest.table_sha,
        "stats": stats_digest(stats),
        "scores": scores_digest(stats.to_scores()),
    }
    if sharded != serial:
        raise SystemExit(f"{case.key}: sharded collection disagrees with serial")
    serial["shards"] = shard_digests(store)
    serial["analyze"] = analyze_digest(store.directory)
    return serial


def render(golden: Dict[str, Dict[str, object]]) -> str:
    return json.dumps(golden, indent=2, sort_keys=True) + "\n"


def differences(
    committed: Dict[str, Dict[str, object]], fresh: Dict[str, Dict[str, object]]
) -> List[str]:
    """One line per key and field on which two golden documents differ."""
    lines: List[str] = []
    for key in sorted(set(committed) | set(fresh)):
        if key not in fresh:
            lines.append(f"{key}: committed but no longer generated")
            continue
        if key not in committed:
            lines.append(f"{key}: generated but not committed")
            continue
        old, new = committed[key], fresh[key]
        for field in sorted(set(old) | set(new)):
            a, b = old.get(field), new.get(field)
            if a == b:
                continue
            if field == "shards" and isinstance(a, list) and isinstance(b, list):
                moved = [
                    i
                    for i in range(max(len(a), len(b)))
                    if i >= len(a) or i >= len(b) or a[i] != b[i]
                ]
                lines.append(f"{key}: shards differ at positions {moved}")
            else:
                lines.append(f"{key}: {field} differs ({a!r} -> {b!r})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed file instead of rewriting it",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as workdir:
        golden = {case.key: case_digests(case, workdir) for case in CASES}
    text = render(golden)
    if args.check:
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            committed_text = handle.read()
        if committed_text != text:
            print(f"{GOLDEN_PATH} differs from a fresh regeneration:", file=sys.stderr)
            lines = differences(json.loads(committed_text), golden)
            for line in lines or ["(formatting only; every value agrees)"]:
                print(f"  {line}", file=sys.stderr)
            return 1
        print(f"{GOLDEN_PATH} reproduced byte for byte")
        return 0
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {len(golden)} keys to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
