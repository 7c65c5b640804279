"""Deterministic fault injection for the collection pipeline.

The store's robustness guarantees (crash-safe writes, quarantine,
retry/backoff) are only believable if they can be exercised on demand, so
this module defines a small language of injectable faults used by both
the test suite and the CLI (``repro-cbi collect --testing
--inject-fault ...``).  Each kind fires in one command, named in the
table (:data:`COMMAND_FAULTS`); the CLI refuses a kind its command
never fires:

==================  ==========  =========================================
kind                command     effect
==================  ==========  =========================================
``kill-worker``     collect     the worker SIGKILLs itself before writing
                                its shard (models an OOM-killed or
                                crashed collection machine)
``hang-worker``     collect     the worker sleeps forever (models a wedged
                                machine; caught by the parent's per-chunk
                                timeout)
``truncate-shard``  collect     the written shard file is truncated to 60%
                                of its bytes after the worker hashed it
                                (corruption in transit)
``flip-bytes``      collect     bytes in the middle of the written shard
                                are inverted after hashing (bit rot / bad
                                disk)
``duplicate-shard`` collect     an unregistered copy of the shard appears
                                in the store directory (a retried upload
                                that landed twice)
``stale-manifest``  collect     the shard file is deleted *after* the
                                manifest committed it (models
                                post-collection data loss)
``net-disconnect``  serve       the server drops the TCP connection
                                mid-request, so the client sees a reset
                                instead of a response
``net-500``         serve       the server answers with ``500 Internal
                                Server Error`` after reading the request
                                (transient server bug)
``net-slow``        serve       the server stalls before responding
                                (congestion / overload; exercises client
                                timeouts)
``net-refuse``      submit      the client's connection attempt is refused
                                before any bytes are sent (server down /
                                firewall)
``fed-fetch-error`` federate    a federation pull fails in flight before
                                any bytes arrive (source daemon briefly
                                unreachable); retried
``fed-corrupt-fetch`` federate  the fetched shard bytes are damaged in
                                transit; the checksum verify catches it
                                and the pull retries
==================  ==========  =========================================

The ``net-*`` kinds target the networked collection path of
:mod:`repro.serve`: for them, "chunk" means the zero-based upload batch
index on the client side (``net-refuse``) or the zero-based POST ordinal
on the server side (the others), and "attempt" the retry number.  Like
every other kind, each fires on exactly one (index, attempt) pair, so
the uploader's retry loop always converges.

The ``fed-*`` kinds target store-to-store replication
(:mod:`repro.federate`): "chunk" is the zero-based ordinal of the shard
in the federation's pull plan and "attempt" the pull retry number.

A fault spec is ``kind@chunk`` with an optional ``#attempt`` suffix,
e.g. ``kill-worker@1`` (kill the worker for chunk 1 on its first
attempt) or ``flip-bytes@2#1`` (corrupt chunk 2's shard on its second
attempt).  Specs combine with commas: ``kill-worker@0,flip-bytes@2``.
Every fault fires on exactly one (chunk, attempt) pair, so a retried
chunk succeeds -- which is precisely what the integration tests assert.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

#: The fault kinds each CLI command fires, in docstring order: the
#: ``collect`` workers and their supervising parent (``stale-manifest``),
#: the ``serve`` daemon's request handler, the ``submit`` client's
#: uploader and the ``federate`` pull loop.  A command refuses every
#: other kind, since it could never fire one.
COMMAND_FAULTS = {
    "collect": (
        "kill-worker",
        "hang-worker",
        "truncate-shard",
        "flip-bytes",
        "duplicate-shard",
        "stale-manifest",
    ),
    "serve": ("net-disconnect", "net-500", "net-slow"),
    "submit": ("net-refuse",),
    "federate": ("fed-fetch-error", "fed-corrupt-fetch"),
}

#: All recognised fault kinds.
FAULT_KINDS = tuple(kind for kinds in COMMAND_FAULTS.values() for kind in kinds)


@dataclass(frozen=True)
class Fault:
    """One injectable fault, pinned to a chunk index and attempt number.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        chunk: Zero-based collection chunk index the fault targets.
        attempt: Zero-based attempt number on which it fires (0 = the
            chunk's first execution), so retries see a healthy worker.
    """

    kind: str
    chunk: int = 0
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(known: {', '.join(FAULT_KINDS)})"
            )

    def spec(self) -> str:
        """The spec string that parses back to this fault."""
        text = f"{self.kind}@{self.chunk}"
        if self.attempt:
            text += f"#{self.attempt}"
        return text


def parse_fault(spec: str) -> Fault:
    """Parse one ``kind@chunk[#attempt]`` spec."""
    text = spec.strip()
    attempt = 0
    if "#" in text:
        text, attempt_text = text.rsplit("#", 1)
        attempt = int(attempt_text)
    chunk = 0
    if "@" in text:
        text, chunk_text = text.rsplit("@", 1)
        chunk = int(chunk_text)
    return Fault(kind=text, chunk=chunk, attempt=attempt)


def parse_faults(spec: Optional[str]) -> Tuple[Fault, ...]:
    """Parse a comma-separated fault list; ``None``/empty means no faults."""
    if not spec:
        return ()
    return tuple(parse_fault(part) for part in spec.split(",") if part.strip())


class FaultInjector:
    """Decides whether a fault fires at a given pipeline point.

    Picklable (carries only the fault tuple) so it can cross the fork
    boundary into collection workers.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self.faults: Tuple[Fault, ...] = tuple(faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def fires(self, kind: str, chunk: int, attempt: int) -> bool:
        """True when a fault of ``kind`` targets this (chunk, attempt)."""
        return any(
            f.kind == kind and f.chunk == chunk and f.attempt == attempt
            for f in self.faults
        )


def damage_truncate(path: str, keep_fraction: float = 0.6) -> None:
    """Truncate a file to ``keep_fraction`` of its bytes."""
    size = os.path.getsize(path)
    with open(path, "rb+") as handle:
        handle.truncate(max(1, int(size * keep_fraction)))


def flip_middle(data: bytes, n_bytes: int = 32) -> bytes:
    """``data`` with ``n_bytes`` in its middle inverted.

    The one damage rule behind ``flip-bytes`` (a shard file) and
    ``fed-corrupt-fetch`` (fetched shard bytes).
    """
    offset = max(0, len(data) // 2 - n_bytes // 2)
    block = data[offset : offset + n_bytes]
    return data[:offset] + bytes(b ^ 0xFF for b in block) + data[offset + len(block):]


def damage_flip_bytes(path: str, n_bytes: int = 32) -> None:
    """Invert ``n_bytes`` in the middle of a file (:func:`flip_middle`)."""
    with open(path, "rb+") as handle:
        data = handle.read()
        handle.seek(0)
        handle.write(flip_middle(data, n_bytes))


def apply_worker_damage(
    injector: FaultInjector, chunk: int, attempt: int, shard_path: str
) -> None:
    """Apply post-write worker-side damage faults to a shard file.

    Called by the collection worker *after* it hashed the healthy bytes,
    so the supervisor's checksum verification is what catches the damage.
    """
    if injector.fires("truncate-shard", chunk, attempt):
        damage_truncate(shard_path)
    if injector.fires("flip-bytes", chunk, attempt):
        damage_flip_bytes(shard_path)
    if injector.fires("duplicate-shard", chunk, attempt):
        import shutil

        final = shard_path
        if final.endswith(".pending"):
            final = final[: -len(".pending")]
        root, ext = os.path.splitext(final)
        shutil.copyfile(shard_path, f"{root}-dup{ext}")
