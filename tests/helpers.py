"""Shared test utilities: compact builders for synthetic report sets."""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.predicates import PredicateTable
from repro.core.reports import ReportSet, RunReport


def partition_bounds(n: int, parts: int) -> List[Tuple[int, int]]:
    """Cut ``range(n)`` into at most ``parts`` contiguous ``[lo, hi)`` slices.

    Deterministic and balanced (sizes differ by at most one, larger
    slices first), with no empty slices: ``parts`` is clamped to ``n``.
    The differential suites use it to lay one population out as
    1, 3 or 7 shards.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative range ({n})")
    parts = max(1, min(parts, n))
    if n == 0:
        return []
    base, extra = divmod(n, parts)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def make_table(n_predicates: int) -> PredicateTable:
    """A table of ``n_predicates`` single-predicate custom sites.

    Site ``i`` carries exactly predicate ``i`` (named ``P<i>``), so tests
    can treat site and predicate indices interchangeably.
    """
    table = PredicateTable()
    for i in range(n_predicates):
        table.add_custom_site("test", i + 1, f"P{i}", [f"P{i}"])
    return table


def make_reports(
    n_predicates: int,
    runs: Sequence[Tuple[bool, Iterable[int], Optional[Iterable[int]]]],
    stacks: Optional[Sequence[Optional[Tuple[str, ...]]]] = None,
    first_seed: int = 0,
) -> ReportSet:
    """Build a report set from per-run specs.

    Each run is ``(failed, true_predicates, observed_sites)``; when
    ``observed_sites`` is ``None`` it defaults to *all* sites (complete
    observation, i.e. no sampling).  Predicates listed as true are always
    also observed.  Run ``i`` gets seed ``first_seed + i``.
    """
    table = make_table(n_predicates)
    records = []
    for idx, (failed, true_preds, observed) in enumerate(runs):
        true_set: Set[int] = set(true_preds)
        if observed is None:
            obs_set: Set[int] = set(range(n_predicates))
        else:
            obs_set = set(observed) | true_set
        stack = None
        if stacks is not None:
            stack = stacks[idx]
        records.append(
            RunReport(
                first_seed + idx, failed, {s: 1 for s in obs_set}, {p: 1 for p in true_set}, stack
            )
        )
    return ReportSet.from_runs(table, records)


def make_population(
    n_preds: int = 4, n_runs: int = 24, seed: int = 0, first_seed: int = 0
) -> ReportSet:
    """A deterministic synthetic population with mixed outcomes.

    Failure rate ~40%; predicates fire more often in failing runs (60%
    vs 20%) under ~80% observation, so scores are non-degenerate.  Its
    runs carry the trial seeds ``first_seed, first_seed + 1, ...``.
    """
    rng = random.Random(seed)
    runs = []
    for _ in range(n_runs):
        failed = rng.random() < 0.4
        true = {i for i in range(n_preds) if rng.random() < (0.6 if failed else 0.2)}
        observed = {i for i in range(n_preds) if rng.random() < 0.8} | true
        runs.append((failed, true, observed))
    return make_reports(n_preds, runs, first_seed=first_seed)


def split_reports(reports: ReportSet, k: int) -> List[ReportSet]:
    """Partition a report set into k contiguous shards."""
    bounds = np.linspace(0, reports.n_runs, k + 1).astype(int)
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mask = np.zeros(reports.n_runs, dtype=bool)
        mask[lo:hi] = True
        parts.append(reports.subset(mask))
    return parts


def run_pattern(
    reports: ReportSet, predicate_index: int
) -> List[int]:
    """Sorted run indices where the predicate was observed true."""
    return sorted(reports.runs_where_true(predicate_index).tolist())


def archive_header(path) -> dict:
    """A report archive's parsed JSON header."""
    import json
    import struct

    with open(path, "rb") as handle:
        (length,) = struct.unpack("<Q", handle.read(16)[8:])
        return json.loads(handle.read(length))


def rewrite_archive_header(path, **fields) -> None:
    """Rewrite a report archive's JSON header with ``fields`` replaced.

    The array sections are carried over unchanged behind the re-padded
    header, so the result is a well-formed archive that differs from
    the original only in the given header fields.
    """
    import json
    import struct

    data = open(path, "rb").read()
    (length,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16 : 16 + length])
    body = data[-(-(16 + length) // 64) * 64 :]
    header.update(fields)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    pad = -(16 + len(raw)) % 64
    with open(path, "wb") as handle:
        handle.write(data[:8] + struct.pack("<Q", len(raw)) + raw + b"\0" * pad + body)


def shorten_archive_stats(path) -> None:
    """Declare an archive's four statistic sections one entry short.

    Their bytes stay where they are, so the file is still well formed,
    but its statistics no longer cover its predicate matrix.
    """
    arrays = archive_header(path)["arrays"]
    for name in ("stats_F", "stats_S", "stats_F_obs", "stats_S_obs"):
        spec = arrays[name]
        n = spec["shape"][0] - 1
        itemsize = np.dtype(spec["dtype"]).itemsize
        arrays[name] = {**spec, "shape": [n], "nbytes": n * itemsize}
    rewrite_archive_header(path, arrays=arrays)


def poke_archive_array(path, name: str, index: int, value: int) -> None:
    """Overwrite entry ``index`` of the archive's array section ``name``.

    Everything else -- header, statistics, the other sections -- keeps
    its bytes, as when a buggy writer or a hostile source produced the
    file; callers that need the shard to pass its checksum re-digest it.
    """
    import json
    import struct

    with open(path, "rb") as handle:
        data = handle.read(16)
        (length,) = struct.unpack("<Q", data[8:16])
        header = json.loads(handle.read(length))
    spec = header["arrays"][name]
    dtype = np.dtype(spec["dtype"])
    start = -(-(16 + length) // 64) * 64 + spec["offset"] + index * dtype.itemsize
    with open(path, "r+b") as handle:
        handle.seek(start)
        handle.write(np.asarray([value], dtype=dtype).tobytes())
