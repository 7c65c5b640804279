"""The shard store: a directory of report shards plus a manifest.

A :class:`ShardStore` wraps a directory laid out as::

    store/
      manifest.json           # ShardManifest: provenance + membership
      shard-00000000.npz      # report archives (core/io.py); the .npz
      shard-00000200.npz      #   suffix is historical -- shards are
                              #   mmap-columnar files
      ...
      collection_log.jsonl    # append-only record of collection events
      quarantine/             # damaged shards, moved aside with reasons
        shard-00000400.npz
        shard-00000400.npz.reason.json

Shards are appended by collection sessions (possibly across machines --
workers write shards directly, see
:func:`repro.harness.parallel.run_trials_sharded`) and analysed either
by streaming sufficient statistics (:meth:`ShardStore.sufficient_stats`,
memory bounded by one predicate-length array set), by reading only
chosen predicates' columns (:meth:`ShardStore.load_columns`, what
iterative elimination over the pruned predicates needs), or by
materialising the merged population (:meth:`ShardStore.load_merged`).

Fault tolerance
---------------

Collection machines are assumed unreliable (the paper's deployment
model), so the store follows a write-ahead commit protocol:

1. a shard's bytes are written crash-safely to ``<name>.pending``
   (temp file + fsync + atomic rename inside
   :func:`repro.core.io.save_reports`);
2. the manifest entry -- including the file's SHA-256 -- is appended and
   the manifest saved crash-safely, fsynced with its directory before
   the save returns: **this is the commit point**;
3. the pending file is renamed to its final name.

A crash between (1) and (2) leaves an uncommitted ``.pending`` file that
:meth:`ShardStore.recover` rolls back (deletes); a crash between (2) and
(3) leaves a committed entry whose bytes sit under the pending name,
which recovery rolls forward (renames).  No interleaving leaves a
partially written shard under a committed name.

Every read of a committed shard and every shard check goes through one
routine, :func:`_read_shard`: it resolves the path, opens the archive
once through the store's header memo, compares its recorded table
signature with the manifest's and its run counts with the entry's, and
turns archive errors into
:class:`~repro.store.errors.ShardCorruptionError`.

Bytes count toward a store only after :func:`check_shard` accepts them.
Damage that slips past collection (bit rot, truncation, deletion) is
caught by :meth:`ShardStore.audit`, which runs that check on every
committed shard, moves offenders to ``quarantine/``
with a machine-readable reason file, and reports exactly how many runs
were lost.  Scores over the surviving shards are bit-identical to a
clean collection of just those seed ranges -- the sufficient statistics
are per-shard sums, so dropping a shard drops exactly its runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, TypeVar

import numpy as np
from scipy import sparse

from repro.core.io import (
    Archive,
    ArchiveError,
    HeaderMemo,
    atomic_write_bytes_via,
    file_sha256,
    load_reports,
    save_reports,
)
from repro.core.predicates import PredicateTable
from repro.core.reports import ReportSet
from repro.core.scores import SufficientStats
from repro.core.truth import GroundTruth
from repro.instrument.sampling import SamplingPlan
from repro.obs import (
    enabled as _obs_enabled,
    inc as _obs_inc,
    span as _obs_span,
    timer as _obs_timer,
)
from repro.store.errors import (
    DuplicateSeedRangeError,
    ManifestError,
    ShardCheckError,
    ShardCorruptionError,
    ShardIntegrityError,
    StaleManifestError,
)
from repro.store.manifest import (
    CONFIG_SHA,
    ShardEntry,
    ShardManifest,
    plan_from_json,
    plan_to_json,
    shard_filename,
)

#: Manifest filename inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Subdirectory damaged shards are moved into.
QUARANTINE_DIR = "quarantine"

#: Append-only JSONL record of collection/audit events.
COLLECTION_LOG_NAME = "collection_log.jsonl"

#: Suffix of written-but-uncommitted shard files.
PENDING_SUFFIX = ".pending"


#: What a shard read returns.
T = TypeVar("T")


def _check_plan_fits(plan: SamplingPlan, table: PredicateTable) -> None:
    """Refuse a per-site plan without exactly one rate per site."""
    if plan.mode == "per-site" and len(plan.site_rates) != table.n_sites:
        raise ManifestError(
            "plan",
            f"has {len(plan.site_rates)} site rates for a table of "
            f"{table.n_sites} sites",
        )


def _merged_truth(truths) -> Optional[GroundTruth]:
    """The shards' ground truth in collection order, when every shard
    carries it; otherwise ``None``."""
    if any(t is None for t in truths):
        return None
    return GroundTruth.merge(truths)


def _read_shard(
    path: str,
    entry: ShardEntry,
    table_sha: str,
    read: Callable[[Archive], T],
    headers: Optional[HeaderMemo] = None,
    check: bool = False,
) -> T:
    """Read the bytes at ``path`` as ``entry``, a shard of a store whose
    manifest records predicate table ``table_sha``.

    The one routine behind every shard read and check.  In order:

    1. the file must exist (``missing-file``);
    2. under ``check``, it must hash to ``entry.sha256``
       (``checksum-mismatch``);
    3. it opens as an archive -- one mapping, and one header parse,
       reused from ``headers`` (the reading store's memo) while the
       header bytes are those last parsed (``unreadable``);
    4. its recorded table signature must be ``table_sha``
       (``table-mismatch``);
    5. ``read(archive)`` takes the sections the caller needs from the
       open archive; what those reads refuse is ``unreadable`` too, as
       are header run counts that disagree with the matrices
       (:meth:`~repro.core.io.Archive.counts`);
    6. it must hold ``entry.n_runs`` runs, ``entry.num_failing`` of them
       failing (``count-mismatch``).

    Only archive errors become :class:`ShardCorruptionError`: ``read``
    should do nothing but archive reads, and the caller's own work on
    what it returns stays outside this routine.

    Raises:
        StaleManifestError: ``missing-file``.
        ShardIntegrityError: ``checksum-mismatch``, ``table-mismatch`` or
            ``count-mismatch``.
        ShardCorruptionError: ``unreadable``.
    """
    if not os.path.exists(path):
        raise StaleManifestError(
            f"{os.path.basename(path)} is missing"
            if check
            else f"manifest lists {entry.filename} but the file is missing; "
            "run audit() to quarantine it"
        )
    if check:
        actual = file_sha256(path)
        if actual != entry.sha256:
            raise ShardIntegrityError(
                entry.filename,
                f"checksum mismatch: entry says {entry.sha256[:12]}..., "
                f"file hashes to {actual[:12]}...",
                reason="checksum-mismatch",
            )
    try:
        archive = Archive(path, headers)
        if archive.table_sha != table_sha:
            raise ShardIntegrityError(
                entry.filename,
                f"carries table signature {archive.table_sha[:12]}..., manifest "
                f"expects {table_sha[:12]}...",
                reason="table-mismatch",
            )
        result = read(archive)
        num_failing, num_successful = archive.counts()
    except ArchiveError as exc:
        raise ShardCorruptionError(entry.filename, str(exc)) from exc
    n_runs = num_failing + num_successful
    if (n_runs, num_failing) != (entry.n_runs, entry.num_failing):
        raise ShardIntegrityError(
            entry.filename,
            f"archive holds {n_runs} runs ({num_failing} failing), entry says "
            f"{entry.n_runs} ({entry.num_failing} failing)",
            reason="count-mismatch",
        )
    return result


def _sound(archive: Archive) -> None:
    """The shard check's read: every run-level and statistic section."""
    archive.runs()
    archive.stats()


def check_shard(path: str, entry: ShardEntry, table_sha: str) -> None:
    """Refuse shard bytes at ``path`` that cannot count as ``entry``.

    The one shard check.  :meth:`ShardStore.audit` runs it on committed
    files, the parallel collector on a worker's staged file, and
    :meth:`ShardStore.ingest_shard_bytes` on replicated bytes before
    their commit.  It checks, in order: the file exists, it hashes to
    ``entry.sha256``, it parses as an archive, its predicate
    table is ``table_sha``, its sections are sound, and it holds
    ``entry.n_runs`` runs, ``entry.num_failing`` of them failing (see
    :func:`_read_shard`).  Sound means
    count-matrix CSR sections in range, header run counts that match
    the matrices and the outcome column
    (:meth:`~repro.core.io.Archive.runs`), and statistic columns of the
    predicate matrix's width (:meth:`~repro.core.io.Archive.stats`) -- a
    shard that breaks any of these is ``unreadable``, even under a
    matching digest.  The table is compared before any section is read,
    so a shard that is both foreign and malformed is ``table-mismatch``.

    Raises:
        StaleManifestError: ``missing-file``.
        ShardIntegrityError: ``checksum-mismatch``, ``table-mismatch``
            or ``count-mismatch``.
        ShardCorruptionError: ``unreadable``.
    """
    _read_shard(path, entry, table_sha, _sound, check=True)


@dataclass
class QuarantineRecord:
    """Why one shard (or manifest entry) was quarantined.

    Attributes:
        filename: The shard's name relative to the store directory.
        reason: Machine-readable reason code: a
            :class:`~repro.store.errors.ShardCheckError` ``reason``,
            ``duplicate-seed-range``, or ``failed-verification`` (a
            collector's staged shard that failed :func:`check_shard`).
        detail: Human-readable elaboration.
        n_runs: Runs the store lost with this shard (0 when the shard
            was never committed).
        num_failing: Failing runs lost.
        seed_start: The shard's base seed, when known -- this is the
            range a later session must re-collect.
    """

    filename: str
    reason: str
    detail: str
    n_runs: int = 0
    num_failing: int = 0
    seed_start: Optional[int] = None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class AuditReport:
    """Outcome of one :meth:`ShardStore.audit` pass.

    Attributes:
        checked: Manifest entries examined.
        quarantined: Entries removed from membership, with reasons.
        orphans: Shard-like files present in the directory but not in
            the manifest (never counted, so only reported).
        rolled_forward: Committed shards recovered from pending names.
        rolled_back: Uncommitted pending files deleted.
    """

    checked: int = 0
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    orphans: List[str] = field(default_factory=list)
    rolled_forward: List[str] = field(default_factory=list)
    rolled_back: List[str] = field(default_factory=list)

    @property
    def runs_lost(self) -> int:
        """Exactly how many runs the quarantined shards took with them."""
        return sum(r.n_runs for r in self.quarantined)

    @property
    def clean(self) -> bool:
        """True when nothing was quarantined and nothing was orphaned."""
        return not self.quarantined and not self.orphans


class ShardStore:
    """A directory of feedback-report shards with a manifest.

    Use :meth:`create` for a new store, :meth:`open` for an existing one,
    or :meth:`open_or_create` for append-style collection sessions.

    Every read of a committed shard (:meth:`audit`,
    :meth:`sufficient_stats`, :meth:`table`, :meth:`load_columns`,
    :meth:`load_merged`, :meth:`site_totals`) goes through one routine,
    :func:`_read_shard`, which parses the header through the store's
    header memo: a shard whose header bytes are those of its last parse
    is not parsed again, while rewritten or damaged bytes are.  Every
    other check -- digest (audit), extent, header counts, count-matrix
    sections, table signature, run counts -- still runs on every read
    that covers it.
    """

    def __init__(self, directory: str, manifest: ShardManifest) -> None:
        self.directory = directory
        self.manifest = manifest
        self._table: Optional[PredicateTable] = None
        self._headers: HeaderMemo = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: str,
        subject: str,
        table: PredicateTable,
        plan: SamplingPlan,
    ) -> "ShardStore":
        """Initialise an empty store (directory may exist but not a manifest)."""
        store = cls.create_like(
            directory,
            ShardManifest(
                subject=subject,
                table_sha=table.signature(),
                config_sha=CONFIG_SHA,
                plan=plan_to_json(plan),
            ),
        )
        store._table = table
        return store

    @classmethod
    def create_like(cls, directory: str, like: ShardManifest) -> "ShardStore":
        """Initialise an empty store copying another store's identity.

        Used by cross-store replication (:mod:`repro.federate`), where
        the destination must accept a source's shards byte-for-byte: the
        subject, table signature, config digest and sampling plan are
        copied from ``like`` (every store has the one archive format);
        membership starts empty.  No predicate table object is needed -- the first
        replicated shard carries it.
        """
        os.makedirs(directory, exist_ok=True)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            raise FileExistsError(
                f"{manifest_path} already exists; use ShardStore.open() to append"
            )
        manifest = dataclasses.replace(like, plan=dict(like.plan), shards=[])
        manifest.save(manifest_path)
        return cls(directory, manifest)

    @classmethod
    def open(cls, directory: str) -> "ShardStore":
        """Open an existing store."""
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(
                f"no {MANIFEST_NAME} in {directory}; not a shard store"
            )
        return cls(directory, ShardManifest.load(manifest_path))

    @classmethod
    def open_or_create(
        cls,
        directory: str,
        subject: str,
        table: PredicateTable,
        plan: SamplingPlan,
    ) -> "ShardStore":
        """Open ``directory`` for appending, creating it on first use.

        When the store exists, the subject, the instrumentation digest
        (:data:`~repro.store.manifest.CONFIG_SHA`) and the predicate table
        must match what it was created with; the sampling plan may differ
        between sessions (the analysis is sampling-agnostic) but the
        manifest keeps the original.

        Raises:
            ManifestError: The store's plan (or, for a new store,
                ``plan``) is per-site without exactly one rate per site
                of ``table``.
        """
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            _check_plan_fits(plan, table)
            return cls.create(directory, subject, table, plan)
        store = cls.open(directory)
        if store.manifest.subject != subject:
            raise ValueError(
                f"store holds subject {store.manifest.subject!r}, refusing to "
                f"append {subject!r} reports"
            )
        if store.manifest.table_sha != table.signature():
            raise ValueError(
                "store was collected with a different predicate table "
                "(instrumentation changed?); appending would mis-attribute "
                "counters"
            )
        if store.manifest.config_sha != CONFIG_SHA:
            raise ValueError(
                "store was collected with a different instrumentation "
                "configuration; appending would mix incompatible predicates"
            )
        _check_plan_fits(store.plan(), table)
        store._table = table
        return store

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        """Path of the manifest file."""
        return os.path.join(self.directory, MANIFEST_NAME)

    @property
    def quarantine_dir(self) -> str:
        """Path of the quarantine subdirectory (may not exist yet)."""
        return os.path.join(self.directory, QUARANTINE_DIR)

    @property
    def collection_log_path(self) -> str:
        """Path of the append-only collection event log."""
        return os.path.join(self.directory, COLLECTION_LOG_NAME)

    @property
    def n_shards(self) -> int:
        """Number of shards registered."""
        return len(self.manifest.shards)

    @property
    def n_runs(self) -> int:
        """Total runs across shards."""
        return self.manifest.n_runs

    @property
    def num_failing(self) -> int:
        """Total failing runs across shards."""
        return self.manifest.num_failing

    @property
    def next_seed(self) -> int:
        """First unused trial seed (for contiguous append sessions)."""
        return self.manifest.next_seed

    def plan(self) -> SamplingPlan:
        """The sampling plan recorded at store creation."""
        return plan_from_json(self.manifest.plan)

    def shard_paths(self) -> List[str]:
        """Absolute shard paths in collection (merge) order."""
        return [os.path.join(self.directory, e.filename) for e in self.manifest.shards]

    def table(self) -> PredicateTable:
        """The store's one predicate table, shared by every shard read.

        Stores made by :meth:`create` or :meth:`open_or_create` hold the
        program's table from the start.  Otherwise :meth:`load_merged`
        fills it from the first shard it reads, or, called first, this decodes
        just the first shard's embedded table -- so a store decodes at
        most one table per open.

        Raises:
            ValueError: The store is empty and was opened without a table.
            StaleManifestError: The first shard's file is missing.
            ShardCorruptionError: Its bytes fail to parse.
            ShardIntegrityError: It carries a different predicate table
                than the manifest, or another number of runs than its
                entry.
        """
        if self._table is None:
            if not self.manifest.shards:
                raise ValueError("empty store has no shards to read a table from")
            self._table = self._read(self.manifest.shards[0], Archive.table)
        return self._table

    def _read(
        self, entry: ShardEntry, read: Callable[[Archive], T], check: bool = False
    ) -> T:
        """``read`` of committed shard ``entry`` (see :func:`_read_shard`),
        against the manifest's table signature and through the header memo."""
        return _read_shard(
            os.path.join(self.directory, entry.filename),
            entry,
            self.manifest.table_sha,
            read,
            self._headers,
            check,
        )

    def forget_headers(self) -> None:
        """Drop the header memo; the next read of each shard parses again.

        For a long-lived owner whose shard reads are over, such as the
        daemon after its restart reads: the memo holds a copy of every
        committed header (~0.3 MB a shard on exif) that nothing reads.
        """
        self._headers.clear()

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def log_event(self, event: str, **fields: object) -> None:
        """Append one event record to ``collection_log.jsonl``.

        Each line is a self-contained JSON object with at least ``event``
        and a wall-clock ``ts``; collection and audit use it to leave a
        machine-readable trail of attempts, failures and quarantines.
        """
        record = {"event": event, "ts": time.time(), **fields}
        # An append, not a whole-file replace: rewriting the log per event
        # would cost its whole length, and it is a trail, not store state.
        with open(self.collection_log_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def read_log(self) -> List[dict]:
        """All event records logged so far (empty when no log exists).

        A torn final line is dropped, as the daemon's WAL replay drops
        one; a bad line before it raises ``json.JSONDecodeError``.
        """
        if not os.path.exists(self.collection_log_path):
            return []
        with open(self.collection_log_path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        records = []
        for index, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                # A torn final line is an append a crash cut short.
                if index < len(lines) - 1:
                    raise
        return records

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append_shard(
        self,
        reports: ReportSet,
        truth: Optional[GroundTruth] = None,
        *,
        seed_start: int,
    ) -> str:
        """Write one shard archive and register it in the manifest.

        Follows the store's commit protocol: the bytes land under a
        ``.pending`` name first, the manifest append is the commit point,
        and only then is the shard renamed into place -- an interruption
        at any step is repaired by :meth:`recover`.

        Args:
            reports: The shard's report population; its table signature
                must match the store's.
            truth: Optional run-aligned ground truth, persisted alongside.
            seed_start: Base seed of the shard's first trial; it names
                the shard (:func:`~repro.store.manifest.shard_filename`).

        Returns:
            The shard's absolute path.

        Raises:
            ValueError: The shard's table is not the store's, or its
                seeds are not ``seed_start, seed_start + 1, ...`` (the
                seed range its entry names).
        """
        if reports.table.signature() != self.manifest.table_sha:
            raise ValueError(
                "shard was collected against a different predicate table than "
                "this store; refusing to append"
            )
        seeds = reports.seeds
        if len(seeds) and (seeds[0] != seed_start or np.any(np.diff(seeds) != 1)):
            raise ValueError(
                f"shard seeds {seeds[0]}..{seeds[-1]} are not the contiguous "
                f"range starting at seed_start={seed_start}; refusing to append"
            )
        filename = shard_filename(seed_start)
        path = os.path.join(self.directory, filename)
        if os.path.exists(path):
            raise FileExistsError(f"shard {filename} already exists in the store")
        staged = path + PENDING_SUFFIX
        save_reports(staged, reports, truth)
        return self.commit_shard(
            ShardEntry(
                seed_start=seed_start,
                n_runs=reports.n_runs,
                num_failing=reports.num_failing,
                sha256=file_sha256(staged),
            )
        )

    def register_shard(self, entry: ShardEntry) -> None:
        """Add a membership entry for a shard file already on disk.

        Used by the parallel collector, whose workers write shard
        archives directly; the parent only registers the entries (in
        collection order) and rewrites the manifest.

        Raises:
            DuplicateSeedRangeError: When the entry's seed range overlaps
                a registered shard -- counting both would double-count.
                A name already registered is such an overlap: names are
                those of their seeds.
        """
        clash = self.manifest.overlapping(entry)
        if clash is not None:
            raise DuplicateSeedRangeError(
                f"shard {entry.filename} covers seeds "
                f"[{entry.seed_start}, {entry.seed_range.stop}) which "
                f"overlaps registered shard {clash.filename} "
                f"[{clash.seed_start}, {clash.seed_range.stop}); "
                "merging both would double-count runs"
            )
        self.manifest.shards.append(entry)
        self.manifest.save(self.manifest_path)

    def commit_shard(self, entry: ShardEntry) -> str:
        """Commit a shard whose bytes sit under its pending name.

        Registers the manifest entry (the commit point) and then renames
        ``<filename>.pending`` to ``<filename>``.  Safe against crashes
        at every step; see the module docstring for the protocol.

        Returns:
            The committed shard's absolute path.
        """
        final = os.path.join(self.directory, entry.filename)
        staged = final + PENDING_SUFFIX
        if not os.path.exists(staged):
            raise FileNotFoundError(f"no pending shard at {staged} to commit")
        with _obs_timer("store.commit_shard"):
            self.register_shard(entry)
            os.replace(staged, final)
        if _obs_enabled():
            _obs_inc("store.shards_committed")
            _obs_inc("store.runs_committed", entry.n_runs)
        return final

    def ingest_shard_bytes(self, data: bytes, entry: ShardEntry) -> str:
        """Commit a shard replicated from another store, byte-for-byte.

        The cross-store commit primitive of :mod:`repro.federate`: the
        raw archive bytes (exactly as committed at the source) are
        staged under the shard's pending name and must pass
        :func:`check_shard` against ``entry`` before the commit.  A
        refused shard's staged file is deleted, so it leaves no file and
        no manifest entry; a crash mid-replication leaves only the
        pending file, which :meth:`recover` rolls back.

        Raises:
            ShardCheckError: ``data`` fails :func:`check_shard` --
                damaged in transit or mislabelled, refuse to commit.

        Returns:
            The committed shard's absolute path.
        """
        final = os.path.join(self.directory, entry.filename)
        if os.path.exists(final):
            raise FileExistsError(f"shard {entry.filename} already exists in the store")
        staged = final + PENDING_SUFFIX
        # Not atomic_write_bytes_via: the pending name is already the
        # temp name of the commit protocol, which recover() rolls back.
        with open(staged, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        try:
            check_shard(staged, entry, self.manifest.table_sha)
        except ShardCheckError:
            os.unlink(staged)
            raise
        return self.commit_shard(entry)

    # ------------------------------------------------------------------
    # Recovery, quarantine, audit
    # ------------------------------------------------------------------
    def recover(self) -> Tuple[List[str], List[str]]:
        """Repair interrupted commits; idempotent and cheap.

        Rolls *forward* committed shards still sitting under their
        pending names (crash after manifest append, before rename) and
        rolls *back* (deletes) pending files with no manifest entry
        (crash before the commit point -- their seed range was never
        counted and will be re-collected).

        Returns:
            ``(rolled_forward, rolled_back)`` filename lists.
        """
        rolled_forward: List[str] = []
        rolled_back: List[str] = []
        with _obs_timer("store.recover"):
            for entry in self.manifest.shards:
                final = os.path.join(self.directory, entry.filename)
                staged = final + PENDING_SUFFIX
                if not os.path.exists(final) and os.path.exists(staged):
                    os.replace(staged, final)
                    rolled_forward.append(entry.filename)
            for name in sorted(os.listdir(self.directory)):
                if not name.endswith(PENDING_SUFFIX):
                    continue
                final_name = name[: -len(PENDING_SUFFIX)]
                if self.manifest.find(final_name) is None:
                    os.unlink(os.path.join(self.directory, name))
                    rolled_back.append(name)
        if rolled_forward or rolled_back:
            self.log_event(
                "recover", rolled_forward=rolled_forward, rolled_back=rolled_back
            )
        return rolled_forward, rolled_back

    def quarantine_file(
        self,
        filename: str,
        reason: str,
        detail: str,
        n_runs: int = 0,
        num_failing: int = 0,
        seed_start: Optional[int] = None,
    ) -> QuarantineRecord:
        """Move a damaged shard aside with a machine-readable reason.

        The file (when present) lands in ``quarantine/`` under its own
        name, next to ``<name>.reason.json`` describing why, what seed
        range was lost, and when.  The manifest is *not* modified here;
        callers that drop a committed entry order the steps themselves
        (see :meth:`audit`).
        """
        self._move_to_quarantine(filename)
        return self._record_quarantine(
            QuarantineRecord(filename, reason, detail, n_runs, num_failing, seed_start)
        )

    def _move_to_quarantine(self, filename: str) -> None:
        os.makedirs(self.quarantine_dir, exist_ok=True)
        source = os.path.join(self.directory, filename)
        if os.path.exists(source):
            os.replace(source, os.path.join(self.quarantine_dir, filename))

    def _reason_path(self, filename: str) -> str:
        return os.path.join(self.quarantine_dir, f"{filename}.reason.json")

    def _record_quarantine(self, record: QuarantineRecord) -> QuarantineRecord:
        """Write ``record``'s reason file and log it."""
        os.makedirs(self.quarantine_dir, exist_ok=True)
        spec = {**record.to_json(), "quarantined_at": time.time()}
        data = (json.dumps(spec, indent=2, sort_keys=True) + "\n").encode()
        atomic_write_bytes_via(
            self._reason_path(record.filename), lambda handle: handle.write(data)
        )
        self.log_event(
            "quarantine",
            filename=record.filename,
            reason=record.reason,
            detail=record.detail,
        )
        return record

    def quarantined(self) -> List[dict]:
        """The reason records of everything quarantined so far."""
        records: List[dict] = []
        if not os.path.isdir(self.quarantine_dir):
            return records
        for name in sorted(os.listdir(self.quarantine_dir)):
            if name.endswith(".reason.json"):
                with open(
                    os.path.join(self.quarantine_dir, name), "r", encoding="utf-8"
                ) as handle:
                    records.append(json.load(handle))
        return records

    def audit(self) -> AuditReport:
        """Verify every committed shard, quarantining what fails.

        Runs :meth:`recover` first, then checks each manifest entry for
        seed-range overlap and with :func:`check_shard`.  Failing entries
        get their reason files, are dropped from the manifest, and only
        then have their files moved to ``quarantine/``, so an audit cut
        short is finished by the next one under the first reason; the
        report says exactly how many runs were lost with them, which is
        also the exact seed budget a re-collection needs.  Scoring the
        surviving shards is bit-identical to a clean collection of just
        those seed ranges.
        """
        with _obs_span("store.audit", shards=self.n_shards):
            report = self._audit_impl()
        if _obs_enabled():
            _obs_inc("store.shards_quarantined", len(report.quarantined))
            _obs_inc("store.runs_lost", report.runs_lost)
        return report

    def _audit_impl(self) -> AuditReport:
        report = AuditReport()
        report.rolled_forward, report.rolled_back = self.recover()

        surviving: List[ShardEntry] = []
        kept_so_far: List[ShardEntry] = []
        for entry in self.manifest.shards:
            report.checked += 1
            reason: Optional[Tuple[str, str]] = None
            clash = next((e for e in kept_so_far if e.overlaps(entry)), None)
            if clash is not None:
                reason = (
                    DuplicateSeedRangeError.reason,
                    f"seed range overlaps earlier shard {clash.filename}",
                )
            else:
                try:
                    self._read(entry, _sound, check=True)
                except ShardCheckError as exc:
                    reason = (exc.reason, exc.detail)
            if reason is None:
                surviving.append(entry)
                kept_so_far.append(entry)
            else:
                self._headers.pop(os.path.join(self.directory, entry.filename), None)
                record = QuarantineRecord(
                    entry.filename, *reason,
                    entry.n_runs, entry.num_failing, entry.seed_start,
                )
                report.quarantined.append(self._record_quarantine(record))

        # Reason files first, the trimmed manifest second, the moves
        # last (in the scan below): a crash before the manifest save
        # leaves the entries committed with their files in place, so the
        # next audit finds the same reasons; one after it leaves
        # unregistered files whose reason files the next scan finds.
        if report.quarantined:
            self.manifest.shards = surviving
            self.manifest.save(self.manifest_path)

        registered = {e.filename for e in self.manifest.shards}
        for name in sorted(os.listdir(self.directory)):
            if (
                name.startswith("shard-")
                and name.endswith(".npz")
                and name not in registered
            ):
                if os.path.exists(self._reason_path(name)):
                    self._move_to_quarantine(name)
                else:
                    report.orphans.append(name)
        if not report.clean:
            self.log_event(
                "audit",
                checked=report.checked,
                quarantined=[r.filename for r in report.quarantined],
                orphans=report.orphans,
                runs_lost=report.runs_lost,
            )
        return report

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load_merged(self) -> Tuple[ReportSet, Optional[GroundTruth]]:
        """Materialise the whole population (all shards concatenated).

        Row order equals collection order, so the result is bit-identical
        to a monolithic collection with the same seeds.  Ground truth is
        merged when *every* shard carries it; otherwise ``None``.  Every
        shard's report set shares the store's one :meth:`table`: a shard
        whose recorded ``table_sha`` names it skips decoding its
        embedded copy, and the first shard read fills the table when the
        store holds none yet.

        Raises:
            ValueError: The store is empty.
            StaleManifestError: A committed shard file is missing.
            ShardCorruptionError: A shard's bytes fail to parse.
            ShardIntegrityError: A shard carries a different predicate
                table than the manifest (``table-mismatch``) or another
                number of runs than its entry (``count-mismatch``).  In
                all three cases, :meth:`audit` quarantines the offender
                so a retry proceeds over the survivors.
        """
        if not self.manifest.shards:
            raise ValueError("cannot merge an empty shard store")
        with _obs_timer("store.load_merged"):
            parts: List[ReportSet] = []
            truths: List[Optional[GroundTruth]] = []
            for entry in self.manifest.shards:
                reports, truth = self._read(
                    entry, lambda archive: load_reports(archive, table=self._table)
                )
                if self._table is None:
                    self._table = reports.table
                parts.append(reports)
                truths.append(truth)
            return ReportSet.merge(parts), _merged_truth(truths)

    def load_columns(
        self, predicates: np.ndarray
    ) -> Tuple[ReportSet, Optional[GroundTruth]]:
        """Materialise only some predicates' columns of the population.

        What elimination needs after pruning: every run's outcome, and
        the ``predicates`` columns with their sites' columns.  Each
        shard's bytes are mapped once and only those columns are kept;
        crash stacks and run metadata are never decoded.  The result is
        a partial :class:`~repro.core.reports.ReportSet` (its
        ``columns`` is ``predicates``) of the full table shape, in
        collection order.  Its loaded columns, ``failed``, ``seeds``
        (taken from the manifest entries' seed ranges) and the ground
        truth equal :meth:`load_merged`'s.

        Args:
            predicates: Boolean mask over the store's predicate table.

        Raises:
            ValueError: The store is empty, or the mask has the wrong
                length.
            StaleManifestError: A committed shard file is missing.
            ShardCorruptionError: A shard's bytes fail to parse.
            ShardIntegrityError: A shard carries a different predicate
                table than the manifest (``table-mismatch``), or holds
                another number of runs than its entry, whose seed range
                names its runs (``count-mismatch``).
        """
        if not self.manifest.shards:
            raise ValueError("cannot load columns of an empty shard store")
        table = self.table()
        predicates = np.asarray(predicates, dtype=bool)
        if predicates.shape != (table.n_predicates,):
            raise ValueError(
                f"predicate mask of shape {predicates.shape} for a table of "
                f"{table.n_predicates} predicates"
            )
        sites = np.zeros(table.n_sites, dtype=bool)
        sites[[table.predicates[i].site_index for i in np.flatnonzero(predicates)]] = True
        with _obs_timer("store.load_columns"):
            parts = [
                self._read(entry, lambda archive: archive.columns(predicates, sites))
                for entry in self.manifest.shards
            ]
            failed, preds, site_cols, truths = zip(*parts)
            # Every shard holds the trials of its entry's seed range.
            seeds = np.concatenate(
                [np.arange(e.seed_start, e.seed_range.stop) for e in self.manifest.shards]
            )
            reports = ReportSet(
                table,
                np.concatenate(failed),
                sparse.vstack(site_cols, format="csr"),
                sparse.vstack(preds, format="csr"),
                stacks=None,
                seeds=seeds,
                columns=predicates,
            )
            return reports, _merged_truth(truths)

    def site_totals(self) -> np.ndarray:
        """Per-site observation totals over the committed shards.

        What a restarting daemon seeds its steering refit with.  Each
        shard's site-matrix CSR sections are summed in exact int64
        (:meth:`~repro.core.io.Archive.site_totals`) once its table
        signature and both count matrices pass their checks; no
        predicate matrix, stack, meta or ground truth is built.  Equals
        ``load_merged()[0].site_coverage()``.

        Raises:
            ValueError: The store is empty and was opened without a table.
            StaleManifestError: A committed shard file is missing.
            ShardCorruptionError: A shard's bytes fail to parse.
            ShardIntegrityError: A shard carries a different predicate
                table than the manifest, or another number of runs than
                its entry.
        """
        n_sites = self.table().n_sites
        totals = np.zeros(n_sites, dtype=np.int64)
        with _obs_timer("store.site_totals"):
            for entry in self.manifest.shards:
                totals += self._read(
                    entry, lambda archive: archive.site_totals(n_sites)
                )
        return totals

    def sufficient_stats(self) -> SufficientStats:
        """Accumulate scoring statistics across shards, streaming.

        The one shard-streaming loop: ``analyze``, the daemon and the
        federation analysis all read a store's statistics through here.
        Shards are memory-mapped and only the statistic columns' pages
        are touched (zero-copy); the run-by-predicate matrices are never
        reconstructed, so memory is bounded by one predicate-length
        array set regardless of how many runs the store holds.

        Raises:
            StaleManifestError: A committed shard file is missing.
            ShardCorruptionError: A shard's bytes fail to parse.
            ShardIntegrityError: A shard carries a different predicate
                table than the manifest, or another number of runs than
                its entry.  In all three cases, :meth:`audit` quarantines
                the offender so a retry proceeds over the survivors.
        """
        if not self.manifest.shards:
            raise ValueError("cannot score an empty shard store")
        total: Optional[SufficientStats] = None
        with _obs_timer("store.stream_stats"):
            for entry in self.manifest.shards:
                part = SufficientStats(*self._read(entry, Archive.stats))
                if _obs_enabled():
                    _obs_inc("store.shards_streamed")
                    _obs_inc(
                        "store.bytes_streamed",
                        os.path.getsize(os.path.join(self.directory, entry.filename)),
                    )
                # Parts are read-only file-mapping views; seed the
                # accumulator with a writable copy before += kicks in.
                total = part.materialized() if total is None else total.add(part)
        assert total is not None
        return total

    def __repr__(self) -> str:
        return (
            f"ShardStore({self.directory!r}, subject={self.manifest.subject!r}, "
            f"shards={self.n_shards}, runs={self.n_runs})"
        )
