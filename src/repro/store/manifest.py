"""Shard-store manifest: what a directory of shards contains.

The manifest (``manifest.json``) is the store's source of truth for
membership and provenance.  It records:

* which subject the reports were collected from;
* a digest of the :class:`~repro.instrument.transform.InstrumentationConfig`
  and the predicate table's content signature -- together these pin the
  instrumentation, so ``analyze`` can refuse shards that would
  mis-attribute counters;
* the sampling plan used during collection;
* one entry per shard with its run counts and base seed, in collection
  order (merge order matters: it is what makes the merged population
  bit-identical to a monolithic one).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.io import FORMAT_VERSION, atomic_write_bytes_via
from repro.instrument.sampling import SamplingPlan
from repro.instrument.transform import InstrumentationConfig
from repro.store.errors import StoreVersionError

#: Manifest schema version, independent of the shard archive version.
MANIFEST_VERSION = 1


def config_digest(config: Optional[InstrumentationConfig]) -> str:
    """Return a stable digest of an instrumentation configuration.

    ``None`` (the defaults) hashes identically to an explicitly
    constructed default config, so collection sessions that spell the
    default differently still append to the same store.
    """
    config = config if config is not None else InstrumentationConfig()
    spec = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, frozenset):
            value = sorted(value)
        elif isinstance(value, tuple):
            value = list(value)
        spec[f.name] = value
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    """Reconstruct a sampling plan serialised by :func:`plan_to_json`."""
    mode = spec["mode"]
    if mode == "full":
        return SamplingPlan.full()
    if mode == "uniform":
        return SamplingPlan.uniform(float(spec["rate"]))
    if mode == "per-site":
        return SamplingPlan.per_site(np.asarray(spec["site_rates"], dtype=np.float64))
    raise ValueError(f"unknown sampling mode {mode!r} in manifest")


@dataclass
class ShardEntry:
    """One shard's membership record.

    Attributes:
        filename: Shard archive name, relative to the store directory.
        n_runs: Runs in the shard.
        num_failing: Failing runs in the shard.
        seed_start: Base seed of the shard's first trial (``None`` when
            the shard was appended from pre-collected reports).
        sha256: Hex digest of the shard file's bytes at commit time, or
            ``None`` for entries written before digests were recorded.
            Verified by :meth:`repro.store.shards.ShardStore.audit`.
        source: Provenance label for shards replicated from another
            store (:mod:`repro.federate`): the source store's path or
            daemon URL.  ``None`` for locally collected shards.
    """

    filename: str
    n_runs: int
    num_failing: int
    seed_start: Optional[int] = None
    sha256: Optional[str] = None
    source: Optional[str] = None

    @property
    def seed_range(self) -> Optional[range]:
        """The half-open trial-seed interval this shard covers."""
        if self.seed_start is None:
            return None
        return range(self.seed_start, self.seed_start + self.n_runs)

    def overlaps(self, other: "ShardEntry") -> bool:
        """True when both shards are seeded and their ranges intersect."""
        a, b = self.seed_range, other.seed_range
        if a is None or b is None:
            return False
        return a.start < b.stop and b.start < a.stop

    def to_json(self) -> Dict[str, object]:
        spec = dataclasses.asdict(self)
        for optional in ("sha256", "source"):
            if spec.get(optional) is None:
                del spec[optional]  # keep old-manifest byte-compat when absent
        return spec

    @classmethod
    def from_json(cls, spec: Dict[str, object]) -> "ShardEntry":
        return cls(
            filename=str(spec["filename"]),
            n_runs=int(spec["n_runs"]),
            num_failing=int(spec["num_failing"]),
            seed_start=(
                int(spec["seed_start"]) if spec.get("seed_start") is not None else None
            ),
            sha256=(
                str(spec["sha256"]) if spec.get("sha256") is not None else None
            ),
            source=(
                str(spec["source"]) if spec.get("source") is not None else None
            ),
        )


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
        format_version: Shard archive format of the store's shards
            (always :data:`repro.core.io.FORMAT_VERSION`).
        manifest_version: Schema version of this file.
    """

    subject: str
    table_sha: str
    config_sha: str
    plan: Dict[str, object]
    shards: List[ShardEntry] = field(default_factory=list)
    format_version: int = FORMAT_VERSION
    manifest_version: int = MANIFEST_VERSION

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
        """First unused trial seed, for appending contiguous collections.

        Assumes seeded shards cover ``[seed_start, seed_start + n_runs)``;
        returns 0 for an empty or unseeded store.
        """
        ends = [
            e.seed_start + e.n_runs for e in self.shards if e.seed_start is not None
        ]
        return max(ends) if ends else 0

    def find(self, filename: str) -> Optional[ShardEntry]:
        """The entry for ``filename``, or ``None`` if unregistered."""
        for entry in self.shards:
            if entry.filename == filename:
                return entry
        return None

    def overlapping(self, entry: ShardEntry) -> Optional[ShardEntry]:
        """The first registered shard whose seed range intersects ``entry``."""
        for existing in self.shards:
            if existing.filename != entry.filename and existing.overlaps(entry):
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
    def from_json(cls, spec: Dict[str, object]) -> "ShardManifest":
        """Parse a manifest document.

        Raises:
            StoreVersionError: The store's shards are not in
                :data:`~repro.core.io.FORMAT_VERSION` (a v1/v2 store, whose
                manifest says 1 or 2 or has no ``format_version``).
            ValueError: The manifest schema is newer than this build.
        """
        version = int(spec.get("manifest_version", 1))
        if version > MANIFEST_VERSION:
            raise ValueError(
                f"manifest version {version} is newer than supported "
                f"({MANIFEST_VERSION})"
            )
        declared = spec.get("format_version")
        if declared != FORMAT_VERSION:
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
        return cls(
            subject=str(spec["subject"]),
            table_sha=str(spec["table_sha"]),
            config_sha=str(spec["config_sha"]),
            plan=dict(spec["plan"]),
            shards=[ShardEntry.from_json(e) for e in spec["shards"]],
            manifest_version=version,
        )

    def save(self, path: str) -> None:
        """Write the manifest crash-safely: the new bytes and the rename
        are durable when this returns (:func:`atomic_write_bytes_via`)."""
        data = (json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n").encode()
        atomic_write_bytes_via(path, lambda handle: handle.write(data))

    @classmethod
    def load(cls, path: str) -> "ShardManifest":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(json.load(handle))
