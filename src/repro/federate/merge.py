"""Pull-based store-to-store replication and merge of committed shards.

The paper's deployment is a *fleet*: many independent ingestion points,
one analysis.  This module turns N daemon-owned stores into one merged
store without a coordinator, exploiting the property that makes the
whole reproduction incremental -- all scores are functions of integer
sufficient statistics (:class:`~repro.core.scores.SufficientStats`)
that add exactly across disjoint seed ranges.
Replicating committed shard *bytes* (not reports, not counts) therefore
preserves every downstream result bit for bit: shard SHAs, streamed
statistics, scores, rankings.  The same property holds for every
registered suspiciousness measure (:mod:`repro.core.measures`): scoring
the sum of the N stores' ``store.sufficient_stats()`` with
``AnalysisEngine.score_stats(..., measure=...)`` is bit-identical to
scoring the merged store this module produces, under any measure.

Protocol (manifest-diff sync):

1. read every source's manifest and the destination's;
2. :func:`plan_sync` diffs them into a deterministic pull plan --
   entries already committed in the destination are noted as present,
   byte-identical copies held by several sources collapse to one pull
   (dedup rule: candidates order by source label, smallest first), and
   *divergent* claims on overlapping seed ranges raise
   :class:`~repro.federate.errors.FederationError` (the
   seed-disjointness invariant: merging them would double-count runs);
3. pulls run in seed order; the destination stages each fetched shard
   under its pending name and commits it only if the store's one shard
   check (:func:`~repro.store.shards.check_shard`) accepts it against
   the source entry
   (:meth:`~repro.store.shards.ShardStore.ingest_shard_bytes`);
4. a shard that keeps failing the check rotates through its
   byte-identical candidates and, if every attempt fails, is *skipped*
   with an audited reason (a quarantine record in the destination plus
   a ``federate-skip`` log event) -- damaged source data degrades the
   merge, never corrupts it;
5. :func:`cross_audit` closes the loop: a full destination audit plus a
   per-source replication check (every healthy source shard present in
   the destination with the same digest).

Determinism: the plan depends only on the *set* of (manifest, label)
pairs -- not the order sources were given -- and commits happen in seed
order, so federating the same fleet in any order, any grouping, or any
number of passes produces byte-identical manifests and shard files.
``tests/federate/`` proves order-insensitivity, idempotence and
associativity as Hypothesis properties, and bit-equality against a
single-daemon collection at fleet scale.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.federate.errors import FederationError, FederationFetchError
from repro.federate.sources import StoreSource
from repro.obs import (
    enabled as _obs_enabled,
    inc as _obs_inc,
    span as _obs_span,
    timer as _obs_timer,
)
from repro.store.errors import ShardCheckError
from repro.store.faults import FaultInjector, flip_middle
from repro.store.manifest import ShardEntry, ShardManifest
from repro.store.shards import AuditReport, QuarantineRecord, ShardStore


@dataclass
class PullItem:
    """One shard the destination is missing.

    Attributes:
        entry: The canonical membership entry (from the smallest-label
            holder; byte-identical across all candidates).
        sources: Every source holding this exact shard, ordered by
            label -- the pull rotates through them on retry, so one
            damaged copy does not lose the seed range.
    """

    entry: ShardEntry
    sources: List[StoreSource]


@dataclass
class SyncPlan:
    """The manifest diff: what to pull, what collapsed, what's there.

    Attributes:
        pulls: Missing shards in seed order.
        duplicates: ``(filename, source label)`` pairs deduped because a
            byte-identical copy is already planned or committed.
        present: Filenames already committed in the destination.
    """

    pulls: List[PullItem] = field(default_factory=list)
    duplicates: List[Tuple[str, str]] = field(default_factory=list)
    present: List[str] = field(default_factory=list)


@dataclass
class FederationReport:
    """Outcome of one :func:`federate_stores` pass.

    Attributes:
        pulled: Filenames committed into the destination, in commit
            (seed) order.
        deduped: ``(filename, source label)`` pairs collapsed by the
            dedup rule.
        present: Filenames that were already committed.
        skipped: Seed ranges lost to unrecoverable source damage, with
            audited reasons (also recorded in the destination's
            quarantine and collection log).
        runs_merged: Runs the pulled shards added.
        bytes_pulled: Total shard bytes fetched and committed.
        retries: Fetch attempts beyond each shard's first.
    """

    pulled: List[str] = field(default_factory=list)
    deduped: List[Tuple[str, str]] = field(default_factory=list)
    present: List[str] = field(default_factory=list)
    skipped: List[QuarantineRecord] = field(default_factory=list)
    runs_merged: int = 0
    bytes_pulled: int = 0
    retries: int = 0

    @property
    def clean(self) -> bool:
        """True when no seed range was skipped."""
        return not self.skipped


@dataclass
class SourceAudit:
    """One source's replication status against the destination.

    Attributes:
        label: The source's identity.
        replicated: Source shards present in the destination with the
            same digest.
        missing: Source shards absent from the destination (skipped
            during federation, or never federated).
        diverged: Seed ranges where source and destination hold
            different bytes -- never produced by a clean federation.
    """

    label: str
    replicated: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    diverged: List[str] = field(default_factory=list)


@dataclass
class FederationAudit:
    """Outcome of one :func:`cross_audit` pass."""

    dest: AuditReport
    sources: List[SourceAudit] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Destination audit clean and every source fully replicated."""
        return self.dest.clean and not any(
            s.missing or s.diverged for s in self.sources
        )


def _seeds(entry: ShardEntry) -> str:
    """``entry``'s seed range as ``[start, stop)``."""
    return f"[{entry.seed_start}, {entry.seed_range.stop})"


def _require_compatible(
    dest_manifest: ShardManifest, label: str, manifest: ShardManifest
) -> None:
    for attr, what in (
        ("subject", "subject"),
        ("table_sha", "predicate table"),
        ("config_sha", "instrumentation config"),
    ):
        ours, theirs = getattr(dest_manifest, attr), getattr(manifest, attr)
        if ours != theirs:
            raise FederationError(
                f"source {label} was collected with a different {what} "
                f"({theirs!r} vs {ours!r}); merging would mis-attribute counters"
            )


def plan_sync(
    dest_manifest: ShardManifest,
    sources: Sequence[Tuple[StoreSource, ShardManifest]],
) -> SyncPlan:
    """Diff source manifests against the destination into a pull plan.

    Deterministic in the *set* of sources: candidates are considered in
    label order, so permuting the input changes nothing.  Enforces the
    seed-disjointness invariant -- two entries may share a seed range
    only when they are byte-identical (same range *and* same SHA-256),
    in which case the extra copies dedup to fallback candidates.
    Anything else (partial overlap, same range with different digests)
    raises :class:`FederationError`: no dedup rule can merge diverging
    claims on the same seeds without double-counting or guessing.

    Every entry here passed :meth:`ShardManifest.from_json`, so it is
    seeded and digested, and its name is that of its seed: a manifest
    can offer nothing but shard archives (never a store-local file such
    as ``steering.json``), and nothing outside the destination.
    """
    plan = SyncPlan()
    chosen: Dict[Tuple[int, int], PullItem] = {}
    counted_present: set = set()

    for source, manifest in sorted(sources, key=lambda pair: pair[0].label):
        _require_compatible(dest_manifest, source.label, manifest)
        for entry in manifest.shards:
            key = (entry.seed_start, entry.n_runs)

            # Against the destination's committed membership.
            dest_same = next(
                (
                    e
                    for e in dest_manifest.shards
                    if (e.seed_start, e.n_runs) == key
                ),
                None,
            )
            if dest_same is not None:
                if entry.sha256 == dest_same.sha256:
                    if dest_same.filename not in counted_present:
                        counted_present.add(dest_same.filename)
                        plan.present.append(dest_same.filename)
                    else:
                        plan.duplicates.append((entry.filename, source.label))
                    continue
                raise FederationError(
                    f"source {source.label} shard {entry.filename} claims seeds "
                    f"{_seeds(entry)} already committed as {dest_same.filename} "
                    "with different content; refusing to merge diverging "
                    "claims on one seed range"
                )
            dest_clash = dest_manifest.overlapping(entry)
            if dest_clash is not None:
                raise FederationError(
                    f"source {source.label} shard {entry.filename} "
                    f"{_seeds(entry)} overlaps committed shard "
                    f"{dest_clash.filename} {_seeds(dest_clash)}; merging "
                    "would double-count runs"
                )

            # Against what earlier (smaller-label) sources contributed.
            if key in chosen:
                item = chosen[key]
                if entry.sha256 == item.entry.sha256:
                    item.sources.append(source)
                    plan.duplicates.append((entry.filename, source.label))
                    continue
                raise FederationError(
                    f"sources {item.sources[0].label} and {source.label} both "
                    f"claim seeds {_seeds(entry)} with different content "
                    f"({item.entry.filename}); refusing to pick one"
                )
            clash_item = next(
                (i for i in chosen.values() if i.entry.overlaps(entry)), None
            )
            if clash_item is not None:
                raise FederationError(
                    f"source {source.label} shard {entry.filename} "
                    f"{_seeds(entry)} overlaps {clash_item.entry.filename} "
                    f"{_seeds(clash_item.entry)} from source "
                    f"{clash_item.sources[0].label}; merging would "
                    "double-count runs"
                )
            chosen[key] = PullItem(entry=entry, sources=[source])

    plan.pulls = sorted(chosen.values(), key=lambda item: item.entry.seed_start)
    return plan


def federate_stores(
    sources: Sequence[StoreSource],
    dest: ShardStore,
    faults: Optional[FaultInjector] = None,
    max_attempts: int = 3,
    backoff_base: float = 0.05,
    backoff_cap: float = 0.5,
    sleep=time.sleep,
) -> FederationReport:
    """Replicate every committed source shard into ``dest``.

    See the module docstring for the protocol.  Transient pull failures
    (and the ``fed-*`` injectable faults) retry up to ``max_attempts``
    times per shard with exponential backoff, rotating through
    byte-identical candidate sources; a shard failing every attempt is
    skipped with an audited reason rather than aborting the merge.

    Raises:
        FederationError: Structural incompatibility -- see
            :func:`plan_sync`.
    """
    injector = faults or FaultInjector()
    plan = plan_sync(dest.manifest, [(src, src.manifest()) for src in sources])
    report = FederationReport(
        deduped=list(plan.duplicates), present=list(plan.present)
    )

    with _obs_span(
        "federate.sync",
        sources=len(sources),
        pulls=len(plan.pulls),
        dest=dest.directory,
    ):
        for ordinal, item in enumerate(plan.pulls):
            entry = item.entry
            outcome: Optional[Tuple[str, str]] = None
            delivered: Optional[StoreSource] = None
            data = b""
            for attempt in range(max_attempts):
                if attempt:
                    report.retries += 1
                    sleep(min(backoff_cap, backoff_base * (2 ** (attempt - 1))))
                source = item.sources[attempt % len(item.sources)]
                try:
                    if injector.fires("fed-fetch-error", ordinal, attempt):
                        raise FederationFetchError(
                            source.label, entry.filename,
                            f"injected fed-fetch-error@{ordinal}#{attempt}",
                        )
                    with _obs_timer("federate.pull_shard"):
                        data = source.fetch(entry)
                        if injector.fires("fed-corrupt-fetch", ordinal, attempt):
                            data = flip_middle(data)
                        committed = dataclasses.replace(entry, source=source.label)
                        dest.ingest_shard_bytes(data, committed)
                except (FederationFetchError, ShardCheckError) as exc:
                    outcome = (exc.reason, exc.detail)
                    continue
                delivered = source
                break

            if delivered is None:
                assert outcome is not None
                record = dest.quarantine_file(
                    entry.filename,
                    outcome[0],
                    f"skipped during federation: {outcome[1]}",
                    n_runs=entry.n_runs,
                    num_failing=entry.num_failing,
                    seed_start=entry.seed_start,
                )
                report.skipped.append(record)
                dest.log_event(
                    "federate-skip",
                    filename=entry.filename,
                    reason=outcome[0],
                    detail=outcome[1],
                    sources=[s.label for s in item.sources],
                    attempts=max_attempts,
                )
                if _obs_enabled():
                    _obs_inc("federate.shards_skipped")
                continue

            dest.log_event(
                "federate-pull",
                filename=entry.filename,
                source=delivered.label,
                n_runs=entry.n_runs,
                sha256=committed.sha256,
            )
            report.pulled.append(entry.filename)
            report.runs_merged += entry.n_runs
            report.bytes_pulled += len(data)
            if _obs_enabled():
                _obs_inc("federate.shards_pulled")
                _obs_inc("federate.bytes_pulled", len(data))
                _obs_inc("federate.runs_merged", entry.n_runs)

    if report.pulled:
        # Canonical membership order: seed ranges ascending.  A one-pass
        # federation commits in this order anyway; re-sorting makes
        # *multi-pass* federation land on the identical manifest (the
        # associativity the property suite pins), and matches the order
        # a single daemon collecting the same seeds would have written.
        dest.manifest.shards.sort(key=lambda e: e.seed_start)
        dest.manifest.save(dest.manifest_path)

    if _obs_enabled():
        _obs_inc("federate.shards_deduped", len(report.deduped))
        _obs_inc("federate.retries", report.retries)
    dest.log_event(
        "federate",
        sources=sorted(s.label for s in sources),
        pulled=len(report.pulled),
        deduped=len(report.deduped),
        present=len(report.present),
        skipped=len(report.skipped),
        runs_merged=report.runs_merged,
    )
    return report


def cross_audit(
    dest: ShardStore, sources: Sequence[StoreSource]
) -> FederationAudit:
    """Audit the destination *and* its coverage of every source.

    Runs a full :meth:`~repro.store.shards.ShardStore.audit` on the
    destination, then checks each source's current manifest against it:
    every source shard should be present with the same digest
    (``replicated``); ``missing`` means a skipped or never-federated
    seed range, ``diverged`` means the two stores hold different bytes
    for the same seeds -- a state a clean federation never produces.
    """
    with _obs_span("federate.cross_audit", sources=len(sources)):
        audit = FederationAudit(dest=dest.audit())
        by_range = {(e.seed_start, e.n_runs): e for e in dest.manifest.shards}
        for source in sorted(sources, key=lambda s: s.label):
            result = SourceAudit(label=source.label)
            for entry in source.manifest().shards:
                committed = by_range.get((entry.seed_start, entry.n_runs))
                if committed is None:
                    result.missing.append(entry.filename)
                elif entry.sha256 != committed.sha256:
                    result.diverged.append(entry.filename)
                else:
                    result.replicated.append(entry.filename)
            audit.sources.append(result)
    return audit
