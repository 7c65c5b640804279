"""Sharded feedback-report store.

The paper's deployment collected feedback reports from user populations
far too large for one process, so this package splits a population into
*shards*: independently written report archives (the memory-mappable
format of :mod:`repro.core.io`) described by a JSON *manifest*.  Three
properties make the split safe:

1. **Merge exactness** -- :meth:`repro.core.reports.ReportSet.merge`
   concatenates shards in collection order, reproducing the monolithic
   population row for row.
2. **Incremental scoring** -- all Section 3.1-3.2 scores are functions
   of per-predicate integer counts (``F``, ``S``, ``F_obs``, ``S_obs``)
   plus ``NumF``/``NumS``, which add exactly across disjoint shards
   (:class:`~repro.core.scores.SufficientStats`), so a shard
   directory can be scored without materialising any run matrix.
3. **Compatibility checking** -- every shard and the manifest carry the
   predicate table's content signature, so shards from different
   instrumentations can never be silently mixed.

Because the collection fleet is assumed unreliable (PAPER.md section 2's
deployed user population), the store is additionally *fault tolerant*:
shard writes are crash-safe with the manifest append as the commit point
(:mod:`repro.store.shards`), damaged shards are quarantined with
machine-readable reasons rather than aborting analysis
(:meth:`ShardStore.audit`), every failure mode has a typed exception
(:mod:`repro.store.errors`), and the whole pipeline can be exercised
under injected faults (:mod:`repro.store.faults`).
"""

from repro.store.errors import (
    CollectionError,
    DuplicateSeedRangeError,
    ManifestError,
    ShardCorruptionError,
    ShardIntegrityError,
    StaleManifestError,
    StoreError,
    StoreVersionError,
)
from repro.store.faults import (
    FAULT_KINDS,
    Fault,
    FaultInjector,
    parse_faults,
)
from repro.store.manifest import (
    CONFIG_SHA,
    ShardEntry,
    ShardManifest,
    plan_from_json,
    plan_to_json,
)
from repro.store.shards import (
    COLLECTION_LOG_NAME,
    MANIFEST_NAME,
    PENDING_SUFFIX,
    QUARANTINE_DIR,
    AuditReport,
    QuarantineRecord,
    ShardStore,
)

__all__ = [
    "AuditReport",
    "COLLECTION_LOG_NAME",
    "CONFIG_SHA",
    "CollectionError",
    "DuplicateSeedRangeError",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "MANIFEST_NAME",
    "ManifestError",
    "PENDING_SUFFIX",
    "QUARANTINE_DIR",
    "QuarantineRecord",
    "ShardCorruptionError",
    "ShardEntry",
    "ShardIntegrityError",
    "ShardManifest",
    "ShardStore",
    "StaleManifestError",
    "StoreError",
    "StoreVersionError",
    "parse_faults",
    "plan_from_json",
    "plan_to_json",
]
