"""Shard-store manifest: what a directory of shards contains.

The manifest (``manifest.json``) is the store's source of truth for
membership and provenance.  It records:

* which subject the reports were collected from;
* the instrumentation configuration digest (:data:`CONFIG_SHA`) and the
  predicate table's content signature -- together these pin the
  instrumentation, so ``analyze`` can refuse shards that would
  mis-attribute counters;
* the sampling plan used during collection;
* one entry per shard with its base seed, run counts and digest, in
  collection order (merge order matters: it is what makes the merged
  population bit-identical to a monolithic one).

Every manifest read from outside goes through one check,
:meth:`ShardManifest.from_json`.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional

import numpy as np

from repro.core.io import FORMAT_VERSION, atomic_write_bytes_via
from repro.instrument.sampling import SamplingPlan
from repro.store.errors import ManifestError, StoreVersionError

#: Manifest schema version, independent of the shard archive version.
MANIFEST_VERSION = 1


#: Digest of the one instrumentation configuration
#: (:mod:`repro.instrument.transform`): every store records it as
#: ``config_sha``.  It is the SHA-256 of the transform's settings as
#: canonical JSON, kept as a constant so existing stores and their
#: digests stay valid; a manifest carrying any other value was written
#: by a different instrumentation and is refused on append.
CONFIG_SHA = "65f12b5b538809174e6cb51512a2128dcbdbae629f02f467421363ee6db71161"


def plan_to_json(plan: SamplingPlan) -> Dict[str, object]:
    """Serialise a sampling plan to a JSON-clean dict."""
    spec: Dict[str, object] = {"mode": plan.mode}
    if plan.mode == "uniform":
        spec["rate"] = float(plan.rate)
    elif plan.mode == "per-site":
        if plan.site_rates is None:
            raise ValueError("per-site plan lacks site rates")
        spec["site_rates"] = [float(r) for r in plan.site_rates]
    return spec


def plan_from_json(spec: Dict[str, object]) -> SamplingPlan:
    """Reconstruct a sampling plan serialised by :func:`plan_to_json`.

    Raises:
        KeyError: A field the plan's mode needs is missing.
        TypeError: A rate is not a JSON number, or ``site_rates`` is
            not a list.
        ValueError: The mode is unknown, or a rate is outside ``(0, 1]``.
    """
    mode = spec["mode"]
    if mode == "full":
        return SamplingPlan.full()
    if mode == "uniform":
        return SamplingPlan.uniform(_rate(spec["rate"]))
    if mode == "per-site":
        rates = spec["site_rates"]
        if type(rates) is not list:
            raise TypeError(f"site_rates must be a list, got {rates!r}")
        return SamplingPlan.per_site(
            np.asarray([_rate(rate) for rate in rates], dtype=np.float64)
        )
    raise ValueError(f"unknown sampling mode {mode!r}")


def _rate(value: object) -> float:
    """A plan rate as written by :func:`plan_to_json` (a bool is no number)."""
    if type(value) not in (int, float):
        raise TypeError(f"a rate must be a number, got {value!r}")
    return float(value)


#: Entry and store-level fields with their JSON types (a bool is no int).
_ENTRY_FIELDS = {
    "filename": str, "n_runs": int, "num_failing": int,
    "seed_start": int, "sha256": str, "source": str,
}
_MANIFEST_FIELDS = {
    "manifest_version": int, "format_version": int, "subject": str,
    "table_sha": str, "config_sha": str, "plan": dict, "shards": list,
}
_SHA256 = re.compile(r"[0-9a-f]{64}")


def shard_filename(seed_start: int) -> str:
    """Canonical shard name for a collection chunk starting at a seed."""
    return f"shard-{seed_start:08d}.npz"


def _check_fields(spec: object, fields: Dict[str, type], entry=None) -> None:
    """Refuse ``spec`` unless it is an object holding exactly ``fields``
    (``source`` may be absent), each value of its field's JSON type."""
    if not isinstance(spec, dict):
        raise ManifestError("document", "is not a JSON object", entry)
    unknown = spec.keys() - fields.keys()
    if unknown:
        raise ManifestError(repr(min(unknown)), "is not a manifest field", entry)
    for key, kind in fields.items():
        if key not in spec and key != "source":
            raise ManifestError(key, "is missing", entry)
        if key in spec and type(spec[key]) is not kind:
            need = f"must be {kind.__name__}, got {spec[key]!r}"
            raise ManifestError(key, need, entry)


@dataclass
class ShardEntry:
    """One shard's membership record.

    Every entry is seeded, digested and named by its seed: the shard
    holds the trials of :attr:`seed_range` in the file :attr:`filename`.

    Attributes:
        seed_start: Base seed of the shard's first trial.
        n_runs: Runs in the shard.
        num_failing: Failing runs in the shard.
        sha256: Hex digest of the shard file's bytes at commit time,
            checked by :func:`repro.store.shards.check_shard`.
        source: Provenance label for shards replicated from another
            store (:mod:`repro.federate`): the source store's path or
            daemon URL.  ``None`` for locally collected shards.
    """

    seed_start: int
    n_runs: int
    num_failing: int
    sha256: str
    source: Optional[str] = None

    @property
    def filename(self) -> str:
        """Shard archive name, relative to the store directory."""
        return shard_filename(self.seed_start)

    @property
    def seed_range(self) -> range:
        """The half-open trial-seed interval this shard covers."""
        return range(self.seed_start, self.seed_start + self.n_runs)

    def overlaps(self, other: "ShardEntry") -> bool:
        """True when both shards' seed ranges intersect."""
        a, b = self.seed_range, other.seed_range
        return a.start < b.stop and b.start < a.stop

    def to_json(self) -> Dict[str, object]:
        spec = {"filename": self.filename, **dataclasses.asdict(self)}
        if self.source is None:
            del spec["source"]
        return spec

    @classmethod
    def from_json(cls, spec: object, index: int = 0) -> "ShardEntry":
        """Parse the ``index``-th entry of a manifest document, raising
        :class:`ManifestError` for any other shape than the class's."""
        name = spec.get("filename") if isinstance(spec, dict) else None
        where = repr(name) if isinstance(name, str) else f"#{index}"
        _check_fields(spec, _ENTRY_FIELDS, where)
        entry = cls(**{k: v for k, v in spec.items() if k != "filename"})
        for key, sound, need in (  # ``need`` is formatted only on a refusal
            ("n_runs", entry.n_runs >= 1, ">= 1"),
            ("num_failing", 0 <= entry.num_failing <= entry.n_runs,
             "in [0, n_runs={0.n_runs}]"),
            ("seed_start", entry.seed_start >= 0, ">= 0"),
            ("sha256", _SHA256.fullmatch(entry.sha256), "64 lowercase hex digits"),
            ("filename", name == entry.filename,
             "{0.filename!r}, the name of its seed_start"),
        ):
            if not sound:
                need = need.format(entry)
                raise ManifestError(key, f"must be {need}, got {spec[key]!r}", where)
        return entry


@dataclass
class ShardManifest:
    """The store-level metadata record.

    Attributes:
        subject: Subject program name the reports were collected from.
        table_sha: Predicate-table content signature every shard must
            match (see :meth:`repro.core.predicates.PredicateTable.signature`).
        config_sha: Digest of the instrumentation configuration.
        plan: Sampling plan in :func:`plan_to_json` form.
        shards: Shard entries in collection (merge) order.
        format_version: Shard archive format of every store (a class
            constant, :data:`repro.core.io.FORMAT_VERSION`).
        manifest_version: Schema version of this file (a class
            constant, :data:`MANIFEST_VERSION`).
    """

    subject: str
    table_sha: str
    config_sha: str
    plan: Dict[str, object]
    shards: List[ShardEntry] = field(default_factory=list)
    format_version: ClassVar[int] = FORMAT_VERSION
    manifest_version: ClassVar[int] = MANIFEST_VERSION

    @property
    def n_runs(self) -> int:
        """Total runs across all shards."""
        return sum(e.n_runs for e in self.shards)

    @property
    def num_failing(self) -> int:
        """Total failing runs across all shards."""
        return sum(e.num_failing for e in self.shards)

    @property
    def next_seed(self) -> int:
        """First unused trial seed, for appending contiguous collections
        (0 for an empty store)."""
        return max((e.seed_range.stop for e in self.shards), default=0)

    def find(self, filename: str) -> Optional[ShardEntry]:
        """The entry for ``filename``, or ``None`` if unregistered."""
        for entry in self.shards:
            if entry.filename == filename:
                return entry
        return None

    def overlapping(self, entry: ShardEntry) -> Optional[ShardEntry]:
        """The first registered shard whose seed range intersects ``entry``."""
        for existing in self.shards:
            if existing.overlaps(entry):
                return existing
        return None

    def to_json(self) -> Dict[str, object]:
        return {
            "manifest_version": self.manifest_version,
            "format_version": self.format_version,
            "subject": self.subject,
            "table_sha": self.table_sha,
            "config_sha": self.config_sha,
            "plan": self.plan,
            "shards": [e.to_json() for e in self.shards],
        }

    @classmethod
    def from_json(cls, spec: object) -> "ShardManifest":
        """Parse and check a manifest document read from outside: a
        store's ``manifest.json``, a federation source's, a daemon's
        ``GET /manifest``.

        Raises:
            ManifestError: Not the shape this class and
                :class:`ShardEntry` state, two entries share a name, or
                the plan is none :func:`plan_from_json` reads.
            StoreVersionError: The store's shards are not in
                :data:`~repro.core.io.FORMAT_VERSION` (a v1/v2 store, whose
                manifest says 1 or 2 or has no ``format_version``).
        """
        if not isinstance(spec, dict):
            raise ManifestError("document", "is not a JSON object")
        version = spec.get("manifest_version")
        if type(version) is not int or version != MANIFEST_VERSION:
            newer = type(version) is int and version > MANIFEST_VERSION
            raise ManifestError(
                "manifest_version",
                f"{version!r} is {'newer than' if newer else 'not'} supported "
                f"(this build reads {MANIFEST_VERSION})",
            )
        declared = spec.get("format_version")
        if type(declared) is not int or declared != FORMAT_VERSION:
            what = (
                "no archive format"
                if declared is None
                else f"archive format {declared!r}"
            )
            raise StoreVersionError(
                f"shard store declares {what}; this build reads only format "
                f"{FORMAT_VERSION} stores -- v1/v2 stores are no longer read, "
                "re-collect the runs"
            )
        _check_fields(spec, _MANIFEST_FIELDS)
        try:
            plan_from_json(spec["plan"])
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"lacks {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ManifestError("plan", f"is not a sampling plan ({detail})") from None
        shards = [ShardEntry.from_json(e, i) for i, e in enumerate(spec["shards"])]
        names = [e.filename for e in shards]
        if len(set(names)) < len(names):
            repeat = next(n for i, n in enumerate(names) if n in names[:i])
            raise ManifestError("filename", "repeats an earlier entry's", repr(repeat))
        return cls(
            subject=spec["subject"],
            table_sha=spec["table_sha"],
            config_sha=spec["config_sha"],
            plan=spec["plan"],
            shards=shards,
        )

    def save(self, path: str) -> None:
        """Write the manifest crash-safely: the new bytes and the rename
        are durable when this returns (:func:`atomic_write_bytes_via`)."""
        data = (json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n").encode()
        atomic_write_bytes_via(path, lambda handle: handle.write(data))

    @classmethod
    def load(cls, path: str) -> "ShardManifest":
        """Read and check (:meth:`from_json`) the manifest at ``path``."""
        with open(path, "rb") as handle:
            data = handle.read()
        try:
            spec = json.loads(data)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ManifestError("document", f"is not JSON: {exc}") from exc
        return cls.from_json(spec)
