"""Cooperative feedback ingestion service.

The paper's deployment model (Section 2) is a fleet of instrumented
programs each uploading one small feedback report to a central server
that aggregates them into the Section 3 statistics.  This package is
that network boundary, built entirely on the standard library:

* :mod:`repro.serve.protocol` -- the ``repro-report/v1`` wire format:
  schema-versioned, gzip-compressible JSON batches validated against the
  subject's predicate table.
* :mod:`repro.serve.batcher` -- a bounded in-memory buffer that groups
  acknowledged uploads into contiguous seed ranges sized for shard
  commits, with seed-based idempotency.
* :mod:`repro.serve.server` -- the collection daemon
  (:class:`~repro.serve.server.FeedbackServer`): ``POST /reports``
  ingestion with a write-ahead ack log, commits through the crash-safe
  :class:`~repro.store.ShardStore` protocol, live streaming
  ``GET /scores``, plus ``/healthz`` and ``/metrics``.
* :mod:`repro.serve.client` -- the uploader: a crash-safe disk spool
  drained with retry + exponential backoff + jitter, so injected or real
  network faults never lose a report.
* :mod:`repro.serve.steering` -- closed-loop adaptive collection: the
  daemon's periodically refit ``repro-steering/v1`` rate-table +
  watchlist document behind ``GET /steering``, applied by steered
  clients and stamped into their reports for end-to-end provenance.

The acceptance bar for the whole stack is *bit-identity*: a population
collected client -> server -> store analyses identically to the same
seed range collected locally by
:func:`repro.harness.parallel.run_trials_sharded`.
"""

from repro.serve.batcher import BatcherFull, ReportBatcher
from repro.serve.client import (
    ConvergenceReport,
    ReportSpool,
    SubmitReport,
    UploadError,
    collect_and_submit,
    drain_spool,
    fetch_scores,
    run_and_spool,
    steered_collect_and_submit,
    submit_until_converged,
    watched_from_scores,
)
from repro.serve.protocol import (
    REPORT_SCHEMA,
    ProtocolError,
    RunReport,
    decode_body,
    encode_batch,
    validate_payload,
)
from repro.serve.server import CollectionService, FeedbackServer
from repro.serve.steering import (
    STEERING_SCHEMA,
    SteeringDocument,
    fetch_steering,
    fit_steering,
    manifest_digest,
    steering_from_wire,
)

__all__ = [
    "REPORT_SCHEMA",
    "ProtocolError",
    "RunReport",
    "decode_body",
    "encode_batch",
    "validate_payload",
    "ReportBatcher",
    "BatcherFull",
    "CollectionService",
    "FeedbackServer",
    "ReportSpool",
    "SubmitReport",
    "UploadError",
    "ConvergenceReport",
    "run_and_spool",
    "drain_spool",
    "collect_and_submit",
    "steered_collect_and_submit",
    "submit_until_converged",
    "fetch_scores",
    "watched_from_scores",
    "STEERING_SCHEMA",
    "SteeringDocument",
    "fetch_steering",
    "fit_steering",
    "manifest_digest",
    "steering_from_wire",
]
