"""The ``repro-steering/v1`` document: how the daemon steers clients.

The paper's Section 4 trains nonuniform per-site sampling rates
*offline* on 1,000 fully-sampled runs.  The serving daemon closes that
loop live: every ``refit_runs`` committed runs it refits

* a per-site rate table via :func:`repro.instrument.sampling.adaptive_rates`
  over the committed mean reach counts, and
* a top-k predicate **watchlist** from the live incremental statistics,

and publishes both as a versioned steering document behind
``GET /steering``.  Clients fetch the document between trials, apply the
rates through the ordinary :class:`~repro.instrument.sampling.SamplingPlan`
machinery, and stamp :func:`steering_version` into every report they
submit so provenance stays auditable end to end.

Determinism contract: the document is a pure function of the committed
store snapshot.  ``manifest_sha`` digests the canonical manifest JSON
and ``epoch`` is the committed run count at fit time, so two daemons
serving byte-identical stores publish byte-identical documents (pinned
by the Hypothesis suite).

Steering artifacts are **store-local**: they describe one daemon's live
fit over its own committed population and never ride along when stores
federate -- a manifest entry can name only a shard archive
(:meth:`repro.store.manifest.ShardManifest.from_json`).
"""

from __future__ import annotations

import hashlib
import json
import os
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.io import atomic_write_bytes_via
from repro.core.stopping import StoppingAssessment, StoppingCandidate, StoppingPolicy
from repro.instrument.sampling import DEFAULT_TARGET_SAMPLES, MIN_ADAPTIVE_RATE
from repro.serve.protocol import ProtocolError

#: Wire schema identifier for steering documents.
STEERING_SCHEMA = "repro-steering/v1"

#: Filename of the persisted current document inside a store directory.
STEERING_NAME = "steering.json"

#: Filename of the per-batch steering provenance log inside a store
#: directory (one JSON line per committed batch).
STEERING_LOG_NAME = "steering_log.jsonl"


def manifest_digest(manifest) -> str:
    """SHA-256 over the canonical JSON form of a shard manifest.

    Canonical means ``sort_keys`` plus compact separators, so the digest
    is independent of on-disk whitespace and key order.
    """
    payload = json.dumps(manifest.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WatchEntry:
    """One watchlist predicate: where to look, and how hard."""

    index: int
    name: str
    score: float

    def to_json(self) -> dict:
        return {"index": int(self.index), "name": self.name, "score": float(self.score)}

    @classmethod
    def from_json(cls, spec: dict) -> "WatchEntry":
        return cls(index=int(spec["index"]), name=str(spec["name"]), score=float(spec["score"]))


@dataclass(frozen=True)
class SteeringDocument:
    """A versioned fit of rates + watchlist over one store snapshot.

    Attributes:
        subject: Subject name the fit covers.
        table_sha: Site-table digest (clients refuse mismatches).
        epoch: Committed run count at fit time.
        manifest_sha: Digest of the committed manifest the fit saw.
        n_runs / num_failing: Population totals behind the fit.
        rates: Per-site sampling rates, dense, index-aligned with the
            site table.  Every value is in
            ``[MIN_ADAPTIVE_RATE, 1.0]`` by construction.
        target_samples / min_rate: The `adaptive_rates` knobs used.
        watchlist: Top-k predicates by ``measure``, highest first.
        measure: Registry key of the suspiciousness measure used for the
            watchlist ordering.
        converged: CI-based stopping verdict for this snapshot.
        stopping: Full :class:`StoppingAssessment` JSON detail.
        policy: The :class:`StoppingPolicy` the verdict used.
    """

    subject: str
    table_sha: str
    epoch: int
    manifest_sha: str
    n_runs: int
    num_failing: int
    rates: List[float]
    target_samples: float = DEFAULT_TARGET_SAMPLES
    min_rate: float = MIN_ADAPTIVE_RATE
    watchlist: List[WatchEntry] = field(default_factory=list)
    measure: str = "importance"
    converged: bool = False
    stopping: dict = field(default_factory=dict)
    policy: Optional[StoppingPolicy] = None

    @property
    def version(self) -> str:
        return steering_version_fields(self.manifest_sha, self.epoch)

    def to_wire(self) -> dict:
        doc = {
            "schema": STEERING_SCHEMA,
            "subject": self.subject,
            "table_sha": self.table_sha,
            "epoch": int(self.epoch),
            "manifest_sha": self.manifest_sha,
            "n_runs": int(self.n_runs),
            "num_failing": int(self.num_failing),
            "rates": [float(r) for r in self.rates],
            "target_samples": float(self.target_samples),
            "min_rate": float(self.min_rate),
            "watchlist": [w.to_json() for w in self.watchlist],
            "measure": self.measure,
            "converged": bool(self.converged),
            "stopping": self.stopping,
            "version": self.version,
        }
        if self.policy is not None:
            doc["policy"] = self.policy.to_json()
        return doc


def steering_version_fields(manifest_sha: str, epoch: int) -> str:
    """The compact version string stamped into report batches."""
    return f"{manifest_sha[:12]}/{int(epoch)}"


def _reject(reason: str, detail: str) -> ProtocolError:
    return ProtocolError(reason, detail)


def steering_from_wire(spec: dict) -> SteeringDocument:
    """Validate and decode a wire-form steering document.

    Raises:
        ProtocolError: On any structural or type violation.  Unknown
            keys are ignored for forward compatibility.
    """
    if not isinstance(spec, dict):
        raise _reject("bad-steering", "document must be an object")
    if spec.get("schema") != STEERING_SCHEMA:
        raise _reject("bad-schema", f"expected {STEERING_SCHEMA}, got {spec.get('schema')!r}")
    for key in ("subject", "table_sha", "manifest_sha", "measure"):
        if not isinstance(spec.get(key), str) or not spec[key]:
            raise _reject("bad-steering", f"{key} must be a non-empty string")
    for key in ("epoch", "n_runs", "num_failing"):
        value = spec.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise _reject("bad-steering", f"{key} must be a non-negative integer")
    rates = spec.get("rates")
    if not isinstance(rates, list) or not rates:
        raise _reject("bad-steering", "rates must be a non-empty list")
    for rate in rates:
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise _reject("bad-steering", "rates must be numbers")
        if not 0.0 < float(rate) <= 1.0:
            raise _reject("bad-steering", f"rate {rate!r} outside (0, 1]")
    for key in ("target_samples", "min_rate"):
        value = spec.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise _reject("bad-steering", f"{key} must be a positive number")
    watchlist_spec = spec.get("watchlist")
    if not isinstance(watchlist_spec, list):
        raise _reject("bad-steering", "watchlist must be a list")
    try:
        watchlist = [WatchEntry.from_json(entry) for entry in watchlist_spec]
    except (KeyError, TypeError, ValueError) as exc:
        raise _reject("bad-steering", f"bad watchlist entry: {exc}") from None
    converged = spec.get("converged")
    if not isinstance(converged, bool):
        raise _reject("bad-steering", "converged must be a boolean")
    stopping = spec.get("stopping")
    if not isinstance(stopping, dict):
        raise _reject("bad-steering", "stopping must be an object")
    policy = None
    if "policy" in spec:
        try:
            policy = StoppingPolicy.from_json(spec["policy"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _reject("bad-steering", f"bad policy: {exc}") from None
    return SteeringDocument(
        subject=spec["subject"],
        table_sha=spec["table_sha"],
        epoch=spec["epoch"],
        manifest_sha=spec["manifest_sha"],
        n_runs=spec["n_runs"],
        num_failing=spec["num_failing"],
        rates=[float(r) for r in rates],
        target_samples=float(spec["target_samples"]),
        min_rate=float(spec["min_rate"]),
        watchlist=watchlist,
        measure=spec["measure"],
        converged=converged,
        stopping=stopping,
        policy=policy,
    )


def fit_steering(
    store,
    subject_name: str,
    site_totals,
    *,
    watchlist_k: int = 10,
    measure: str = "importance",
    policy: StoppingPolicy = StoppingPolicy(),
    target_samples: float = DEFAULT_TARGET_SAMPLES,
    min_rate: float = MIN_ADAPTIVE_RATE,
    stats=None,
) -> SteeringDocument:
    """Fit a steering document from one committed store snapshot.

    Args:
        store: An open :class:`~repro.store.shards.ShardStore`.
        subject_name: Subject the store collects for.
        site_totals: Dense per-site observation-count totals over the
            committed runs (``sum`` of each run's reach counts).
        watchlist_k: Watchlist length.
        measure: Suspiciousness measure for watchlist ordering.
        policy: Early-stopping thresholds.
        target_samples / min_rate: ``adaptive_rates`` knobs.
        stats: Optional pre-computed SufficientStats for the committed
            population (recomputed from the store when omitted).

    Returns:
        A :class:`SteeringDocument` — a pure function of the snapshot.
    """
    import numpy as np

    from repro.core import measures as _measures
    from repro.core.ranking import order
    from repro.core.stopping import assess_stats
    from repro.instrument.sampling import adaptive_rates

    _measures.get(measure)  # validate the name up front
    if stats is None:
        stats = store.sufficient_stats()
    n_runs = int(store.n_runs)
    # ravel: accepts np.matrix rows from sparse ``site_counts.sum(axis=0)``
    totals = np.asarray(site_totals, dtype=np.float64).ravel()
    if n_runs > 0:
        means = totals / float(n_runs)
    else:
        means = np.zeros_like(totals)
    rates = adaptive_rates(means, target_samples=target_samples, min_rate=min_rate)

    watchlist: List[WatchEntry] = []
    assessment: StoppingAssessment = StoppingAssessment(
        False, n_runs, int(stats.num_failing), reason="no committed runs"
    )
    if n_runs > 0:
        scores = stats.to_scores(confidence=policy.confidence)
        values = _measures.measure_values(scores, measure)
        table = store.table()
        watchlist = [
            WatchEntry(
                index=int(i),
                name=table.predicates[int(i)].name,
                score=float(values[i]),
            )
            for i in order(
                values, candidates=np.isfinite(values) & (values > 0), top=watchlist_k
            )
        ]
        assessment = assess_stats(stats, policy)

    return SteeringDocument(
        subject=subject_name,
        table_sha=store.manifest.table_sha,
        epoch=n_runs,
        manifest_sha=manifest_digest(store.manifest),
        n_runs=n_runs,
        num_failing=int(stats.num_failing),
        rates=[float(r) for r in rates],
        target_samples=float(target_samples),
        min_rate=float(min_rate),
        watchlist=watchlist,
        measure=measure,
        converged=assessment.converged,
        stopping=assessment.to_json(),
        policy=policy,
    )


def save_steering(directory: str, document: SteeringDocument) -> str:
    """Crash-safely persist ``document`` as ``steering.json`` in a store
    dir (:func:`~repro.core.io.atomic_write_bytes_via`).

    A file that already holds the document's exact bytes is left as it
    is: a daemon restarting over an unchanged store refits the document
    it persisted last, and rewriting it would cost an fsync and a rename
    for nothing.
    """
    path = os.path.join(directory, STEERING_NAME)
    data = (json.dumps(document.to_wire(), indent=2, sort_keys=True) + "\n").encode()
    try:
        with open(path, "rb") as handle:
            if handle.read() == data:
                return path
    except FileNotFoundError:
        pass
    atomic_write_bytes_via(path, lambda handle: handle.write(data))
    return path


def fetch_steering(url: str, timeout: float = 10.0) -> Optional[SteeringDocument]:
    """GET ``/steering`` from a daemon; None when the endpoint is absent.

    A 404 means the server predates steering or runs with it disabled —
    callers fall back to their local plan, keeping old-server compat.

    Raises:
        ProtocolError: When the server answers with an invalid document.
    """
    request = urllib.request.Request(url.rstrip("/") + "/steering", method="GET")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        if exc.code == 404:
            return None
        raise
    return steering_from_wire(json.loads(body.decode("utf-8")))


__all__ = [
    "STEERING_SCHEMA",
    "STEERING_NAME",
    "STEERING_LOG_NAME",
    "SteeringDocument",
    "WatchEntry",
    "StoppingCandidate",
    "manifest_digest",
    "steering_version_fields",
    "steering_from_wire",
    "fit_steering",
    "save_steering",
    "fetch_steering",
]
