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

from typing import Optional


class StoreError(Exception):
    """Base class for all shard-store failures."""


class ShardCheckError(StoreError):
    """Shard bytes that cannot count toward a store.

    The ways :func:`repro.store.shards.check_shard` refuses a shard.
    ``reason`` is the failure's code in the audit vocabulary (the
    ``reason`` of a quarantine record) and ``detail`` its human-readable
    elaboration, so every caller reports a refusal the same way.
    """

    reason: str
    detail: str


class ShardCorruptionError(ShardCheckError):
    """A shard archive's bytes are unreadable (truncated, flipped, ...).

    Raised when a shard fails to load as a report archive; wraps the
    underlying zip/JSON/NumPy error as ``__cause__``.
    """

    reason = "unreadable"

    def __init__(self, filename: str, detail: str) -> None:
        super().__init__(f"shard {filename} is corrupt: {detail}")
        self.filename = filename
        self.detail = detail

    def __reduce__(self):
        # BaseException pickles and copies as ``cls(*self.args)``, and
        # ``args`` here is the one formatted message; spell out the real
        # constructor arguments so the error rebuilds intact.
        return (type(self), (self.filename, self.detail))


class ShardIntegrityError(ShardCheckError):
    """A shard is readable but inconsistent with what should count.

    ``reason`` tells the three cases apart: ``checksum-mismatch`` (the
    bytes do not hash to the entry's SHA-256), ``table-mismatch`` (a
    foreign predicate table) and ``count-mismatch`` (the archive holds a
    different number of runs than the entry says).
    """

    def __init__(
        self, filename: str, detail: str, reason: str = "table-mismatch"
    ) -> None:
        super().__init__(f"shard {filename} fails integrity check: {detail}")
        self.filename = filename
        self.detail = detail
        self.reason = reason

    def __reduce__(self):
        # See ShardCorruptionError.__reduce__.
        return (type(self), (self.filename, self.detail, self.reason))


class DuplicateSeedRangeError(StoreError):
    """Two shards claim overlapping trial seed ranges.

    Counting both would double-count runs, silently inflating every
    sufficient statistic, so overlap is always an error (at registration
    time) or a quarantine (at audit time) -- never a merge.
    """

    reason = "duplicate-seed-range"


class StaleManifestError(ShardCheckError):
    """A shard file that should be on disk is not.

    Seen when a shard was deleted (or never renamed into place) after
    the manifest committed it.  :meth:`ShardStore.audit` downgrades this
    to a quarantine record so analysis can proceed over survivors.
    """

    reason = "missing-file"

    @property
    def detail(self) -> str:
        return str(self)


class StoreVersionError(StoreError):
    """A store's manifest declares a shard format this build cannot read.

    Stores of the retired ``.npz`` formats (manifest ``format_version``
    1 or 2, or no such field) are refused rather than half-read; their
    runs must be re-collected.
    """


class ManifestError(StoreError):
    """A manifest document not of the manifest's shape
    (:meth:`repro.store.manifest.ShardManifest.from_json`).

    ``entry`` names the offending shard entry (``None`` for a
    store-level field) and ``field`` its key.
    """

    def __init__(self, field: str, detail: str, entry: Optional[str] = None) -> None:
        where = "manifest" if entry is None else f"manifest entry {entry}"
        super().__init__(f"{where}: {field} {detail}")
        self.field = field
        self.detail = detail
        self.entry = entry

    def __reduce__(self):
        # See ShardCorruptionError.__reduce__.
        return (type(self), (self.field, self.detail, self.entry))


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
