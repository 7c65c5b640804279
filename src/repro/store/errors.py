"""Typed errors for the sharded store and its collection pipeline.

The paper's deployment model assumes feedback reports arrive from
thousands of unreliable machines, so every way a shard directory can be
damaged gets its own exception type: callers (and tests) distinguish "a
shard's bytes are bad" from "the manifest and the directory disagree"
from "two collections claimed the same seed range".  None of these are
ever allowed to surface as a silent mis-count -- the analysis either
quarantines the offending shard (:meth:`repro.store.shards.ShardStore.audit`)
or raises one of these.
"""

from __future__ import annotations


class StoreError(Exception):
    """Base class for all shard-store failures."""


class ShardCorruptionError(StoreError):
    """A shard archive's bytes are unreadable (truncated, flipped, ...).

    Raised when a shard fails to load as a report archive; wraps the
    underlying zip/JSON/NumPy error as ``__cause__``.
    """

    def __init__(self, filename: str, detail: str) -> None:
        super().__init__(f"shard {filename} is corrupt: {detail}")
        self.filename = filename
        self.detail = detail

    def __reduce__(self):
        # BaseException pickles as ``cls(*self.args)``, which breaks for
        # multi-argument constructors; these errors cross process
        # boundaries (analysis-engine workers raise them inside a pool
        # map), so spell out the real constructor arguments.
        return (type(self), (self.filename, self.detail))


class ShardIntegrityError(StoreError):
    """A shard is readable but inconsistent with the store's manifest.

    Covers checksum mismatches, predicate-table signature mismatches and
    run-count disagreements -- anything where the bytes parse but cannot
    be trusted to count toward this store's population.
    """

    def __init__(self, filename: str, detail: str) -> None:
        super().__init__(f"shard {filename} fails integrity check: {detail}")
        self.filename = filename
        self.detail = detail

    def __reduce__(self):
        # See ShardCorruptionError.__reduce__.
        return (type(self), (self.filename, self.detail))


class DuplicateSeedRangeError(StoreError):
    """Two shards claim overlapping trial seed ranges.

    Counting both would double-count runs, silently inflating every
    sufficient statistic, so overlap is always an error (at registration
    time) or a quarantine (at audit time) -- never a merge.
    """


class StaleManifestError(StoreError):
    """The manifest references a shard file that does not exist.

    Seen when a shard was deleted (or never renamed into place) after
    the manifest committed it.  :meth:`ShardStore.audit` downgrades this
    to a quarantine record so analysis can proceed over survivors.
    """


class StoreVersionError(StoreError):
    """A store's manifest declares a shard format this build cannot read.

    Stores of the retired ``.npz`` formats (manifest ``format_version``
    1 or 2, or no such field) are refused rather than half-read; their
    runs must be re-collected.
    """


class CollectionError(StoreError):
    """A collection chunk exhausted its retries.

    Carries the failed seed range so a later session can re-collect it.
    """

    def __init__(self, seed_start: int, count: int, attempts: int, detail: str) -> None:
        super().__init__(
            f"chunk seeds [{seed_start}, {seed_start + count}) failed after "
            f"{attempts} attempts: {detail}"
        )
        self.seed_start = seed_start
        self.count = count
        self.attempts = attempts
        self.detail = detail

    def __reduce__(self):
        # See ShardCorruptionError.__reduce__.
        return (type(self), (self.seed_start, self.count, self.attempts, self.detail))
