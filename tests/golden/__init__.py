"""Golden digests: the pipeline's outputs pinned as SHA-256s.

``GOLDEN_digests.json`` maps one key per (subject, sampling mode, seed
range, chunk size) to five digests of that population:

* ``table_sha`` -- the predicate table's signature;
* ``stats`` -- SHA-256 over the int64 bytes of ``F``, ``S``, ``F_obs``,
  ``S_obs``, then ``NumF`` and ``NumS``;
* ``scores`` -- SHA-256 over the ``tobytes()`` of every
  :class:`~repro.core.scores.PredicateScores` array field;
* ``shards`` -- the SHA-256 of each shard archive of a store collected
  in ``chunk``-run shards, in seed order;
* ``analyze`` -- the SHA-256 of ``repro-cbi analyze STORE`` stdout.

The file is written by ``python -m tests.golden.regenerate`` and
asserted with :func:`assert_golden` from every collection path (local
serial, local sharded, daemon, federated, observability on); see
``tests/golden/README``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
from typing import Dict, List, Optional, Sequence

import numpy as np

#: The committed digest file.
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "GOLDEN_digests.json")

#: Shard size of every golden store (the daemon's ``batch_runs``).
CHUNK = 20

#: Rate of the golden uniform plan.
UNIFORM_RATE = 0.5


@dataclasses.dataclass(frozen=True)
class GoldenCase:
    """One pinned population: trials of seeds ``0 .. n_runs``, stored in
    :data:`CHUNK`-run shards."""

    subject: str
    mode: str
    n_runs: int

    @property
    def key(self) -> str:
        return f"{self.subject}/{self.mode}/seeds-0-{self.n_runs}/chunk-{CHUNK}"

    def plan(self):
        from repro.instrument.sampling import SamplingPlan

        if self.mode == "full":
            return SamplingPlan.full()
        if self.mode == "per-site":
            # Seven rates from 0.05 to ~0.82, cycling over the sites.
            n_sites = self.build_subject().build_program().table.n_sites
            return SamplingPlan.per_site(
                [0.05 + 0.9 * (i % 7) / 7 for i in range(n_sites)]
            )
        return SamplingPlan.uniform(UNIFORM_RATE)

    def build_subject(self):
        if self.subject == "tiny":
            from tests.harness.test_runner import TinySubject

            return TinySubject()
        from repro.cli import SUBJECTS

        return SUBJECTS[self.subject]()


#: (subject, runs): the five paper subjects and one factory subject, at
#: the daemon differential suite's budgets.
SUBJECT_RUNS = (
    ("moss", 45),
    ("ccrypt", 60),
    ("bc", 50),
    ("exif", 45),
    ("rhythmbox", 45),
    ("jsonscan-off1", 40),
)

#: Every key: each subject under both modes, moss under a per-site plan
#: (the mode adaptive sampling runs through), plus the federation
#: acceptance matrix's tiny subject.
CASES: List[GoldenCase] = [
    GoldenCase(name, mode, n_runs)
    for name, n_runs in SUBJECT_RUNS
    for mode in ("full", "uniform")
] + [GoldenCase("moss", "per-site", 45), GoldenCase("tiny", "full", 120)]


def stats_digest(stats) -> str:
    """Digest of a :class:`~repro.core.scores.SufficientStats`."""
    digest = hashlib.sha256()
    for name in ("F", "S", "F_obs", "S_obs"):
        digest.update(np.asarray(getattr(stats, name), dtype="<i8").tobytes())
    totals = [stats.num_failing, stats.num_successful]
    digest.update(np.asarray(totals, dtype="<i8").tobytes())
    return digest.hexdigest()


def scores_digest(scores) -> str:
    """Digest of every array field of a ``PredicateScores``, in order."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(scores):
        value = getattr(scores, field.name)
        if isinstance(value, np.ndarray):
            digest.update(value.tobytes())
    return digest.hexdigest()


def shard_digests(store) -> List[str]:
    """SHA-256 of each committed shard's bytes, in seed order."""
    from repro.core.io import file_sha256

    return [file_sha256(path) for path in store.shard_paths()]


def analyze_digest(directory: str) -> str:
    """SHA-256 of ``repro-cbi analyze DIRECTORY`` stdout."""
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(directory)]) == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def assert_golden(
    key: str,
    *,
    table_sha: Optional[str] = None,
    stats=None,
    scores=None,
    shards: Optional[Sequence[str]] = None,
    analyze: Optional[str] = None,
) -> None:
    """Assert every given value matches the committed digest for ``key``.

    ``stats`` and ``scores`` are the objects themselves (digested here);
    ``shards`` is a list of shard SHA-256s and ``analyze`` an already
    computed :func:`analyze_digest`.
    """
    want = load_golden()[key]
    got: Dict[str, object] = {}
    if table_sha is not None:
        got["table_sha"] = table_sha
    if stats is not None:
        got["stats"] = stats_digest(stats)
    if scores is not None:
        got["scores"] = scores_digest(scores)
    if shards is not None:
        got["shards"] = list(shards)
    if analyze is not None:
        got["analyze"] = analyze
    assert got, "assert_golden needs at least one value"
    for name, value in got.items():
        assert value == want[name], f"{key}: {name} differs from the golden digest"


def assert_golden_store(key: str, store, shards: bool = True) -> None:
    """Assert a whole store against ``key``: table, streamed statistics,
    scores, analyze stdout and (when its layout is the golden chunking)
    shard bytes."""
    stats = store.sufficient_stats()
    assert_golden(
        key,
        table_sha=store.manifest.table_sha,
        stats=stats,
        scores=stats.to_scores(),
        shards=shard_digests(store) if shards else None,
        analyze=analyze_digest(store.directory),
    )
