"""Typed errors for store-to-store federation."""

from __future__ import annotations

from repro.store.errors import StoreError


class FederationError(StoreError):
    """A federation cannot proceed as asked.

    Raised for structural problems the pull loop must not paper over:
    incompatible source stores (different subject, predicate table or
    instrumentation config) and -- the paper-level invariant -- two
    stores claiming *overlapping* seed ranges with different content,
    which no dedup rule can merge without double-counting or guessing.
    Transient per-shard failures (unreachable daemon, damaged bytes) are
    NOT this error; they are retried and, if persistent, skipped with an
    audited reason.
    """


class FederationFetchError(StoreError):
    """One shard pull failed; transient, retried by the pull loop.

    Carries the source label, shard filename and a machine-readable
    ``reason`` code (``fetch-error`` or ``missing-file``) so exhausted
    retries produce a precise skip record.
    """

    def __init__(
        self, source: str, filename: str, detail: str, reason: str = "fetch-error"
    ) -> None:
        super().__init__(f"pull of {filename} from {source} failed: {detail}")
        self.source = source
        self.filename = filename
        self.detail = detail
        self.reason = reason

    def __reduce__(self):
        # BaseException pickles as ``cls(*self.args)``; spell out the
        # real constructor arguments (see repro.store.errors).
        return (type(self), (self.source, self.filename, self.detail, self.reason))
