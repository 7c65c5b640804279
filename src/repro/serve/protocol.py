"""The ``repro-report/v1`` wire format.

A feedback upload is a JSON document (optionally gzip-compressed, signalled
by ``Content-Encoding: gzip``) carrying one or more run reports:

.. code-block:: json

    {
      "schema": "repro-report/v1",
      "subject": "ccrypt",
      "table_sha": "<hex sha-256 of the predicate table>",
      "reports": [
        {
          "seed": 17,
          "failed": true,
          "site_obs": {"3": 12, "9": 1},
          "pred_true": {"11": 4},
          "stack": ["f", "g"],
          "bugs": ["double-free"]
        }
      ]
    }

The counter maps are sparse (absent site/predicate means zero) with
string keys, because JSON objects cannot have integer keys.  Steered
clients additionally stamp each report with an optional ``steering``
version string naming the ``repro-steering/v1`` document whose rates
produced the run; the key is omitted for unsteered collection, so those
payloads stay byte-identical to older clients.  ``table_sha`` is the
archive table signature
(:meth:`repro.core.predicates.PredicateTable.signature`): the server
refuses reports instrumented against a different table rather than
silently misaligning predicate indices.

Clients compress at zlib level :data:`GZIP_LEVEL` (6): on a 32-report
batch it keeps the body within 8% of level 9's size for about a ninth of
the CPU.  The level is not part of the protocol -- :func:`decode_body`
accepts a gzip body at any level, so clients and servers of either
vintage interoperate.  :data:`MAX_BODY_BYTES` bounds the decompressed
size and is enforced while decompressing, so a gzip bomb is refused
before it inflates past the limit.

Each entry of ``reports`` is one :class:`~repro.core.reports.RunReport`
(:meth:`~repro.core.reports.RunReport.to_wire`; re-exported here).

Validation is strict -- every structural or semantic problem raises
:class:`ProtocolError` with a machine-readable ``reason`` code that the
server echoes in its 400 response and records in the quarantine reason
file.
"""

from __future__ import annotations

import gzip
import json
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.reports import INT64_LIMIT, RunReport, is_seed

#: Schema identifier accepted by the server.
REPORT_SCHEMA = "repro-report/v1"

#: Payloads larger than this are rejected before JSON parsing
#: (decompressed size; a zip-bomb / memory guard checked while inflating).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: zlib level for compressed uploads: within 8% of level 9's bytes for
#: about a ninth of its CPU.  Decoding accepts any level.
GZIP_LEVEL = 6

#: ``wbits`` selecting zlib's gzip container (header and CRC/size trailer).
_GZIP_WBITS = 16 + zlib.MAX_WBITS

#: Most bytes one inflate step may produce (bounds zlib's output buffer).
_INFLATE_STEP = 1 << 20


class ProtocolError(ValueError):
    """A wire payload that cannot be accepted.

    Attributes:
        reason: Short machine-readable code (``bad-json``, ``bad-schema``,
            ``wrong-subject``, ``table-mismatch``, ``bad-report``, ...)
            suitable for quarantine reason files and metrics labels.
    """

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


def _counter_map(raw: object, bound: int, what: str, seed: object) -> Dict[int, int]:
    """Validate a sparse ``{"index": count}`` map against an index bound."""
    if not isinstance(raw, dict):
        raise ProtocolError("bad-report", f"report seed={seed}: {what} is not an object")
    out: Dict[int, int] = {}
    for key, value in raw.items():
        try:
            index = int(key)
        except (TypeError, ValueError):
            raise ProtocolError(
                "bad-report", f"report seed={seed}: {what} key {key!r} is not an integer"
            ) from None
        if not (0 <= index < bound):
            raise ProtocolError(
                "bad-report",
                f"report seed={seed}: {what} index {index} out of range [0, {bound})",
            )
        if (
            not isinstance(value, int)
            or isinstance(value, bool)
            or not 0 < value < INT64_LIMIT
        ):
            raise ProtocolError(
                "bad-report",
                f"report seed={seed}: {what}[{index}] = {value!r} is not an int "
                f"in [1, 2**63)",
            )
        out[index] = value
    return out


def report_from_wire(
    spec: dict, n_sites: int, n_predicates: int, bug_ids: Sequence[str]
) -> RunReport:
    """Validate and decode one wire report dict.

    Raises:
        ProtocolError: on any structural or range violation.
    """
    if not isinstance(spec, dict):
        raise ProtocolError("bad-report", "report entry is not an object")
    seed = spec.get("seed")
    if not is_seed(seed):
        raise ProtocolError("bad-report", f"seed {seed!r} is not an integer in [0, 2**63)")
    failed = spec.get("failed")
    if not isinstance(failed, bool):
        raise ProtocolError("bad-report", f"report seed={seed}: failed {failed!r} is not a bool")
    site_obs = _counter_map(spec.get("site_obs", {}), n_sites, "site_obs", seed)
    pred_true = _counter_map(spec.get("pred_true", {}), n_predicates, "pred_true", seed)
    stack_raw = spec.get("stack")
    stack: Optional[Tuple[str, ...]] = None
    if stack_raw is not None:
        if not isinstance(stack_raw, list) or not all(
            isinstance(frame, str) for frame in stack_raw
        ):
            raise ProtocolError(
                "bad-report", f"report seed={seed}: stack is not a list of strings"
            )
        stack = tuple(stack_raw)
    bugs_raw = spec.get("bugs", [])
    if not isinstance(bugs_raw, list) or not all(isinstance(b, str) for b in bugs_raw):
        raise ProtocolError("bad-report", f"report seed={seed}: bugs is not a list of strings")
    known = set(bug_ids)
    for bug in bugs_raw:
        if bug not in known:
            raise ProtocolError(
                "bad-report",
                f"report seed={seed}: unknown bug id {bug!r} (subject knows {sorted(known)})",
            )
    steering = spec.get("steering")
    if steering is not None and not isinstance(steering, str):
        raise ProtocolError(
            "bad-report", f"report seed={seed}: steering {steering!r} is not a string"
        )
    return RunReport(
        seed=seed,
        failed=failed,
        site_obs=site_obs,
        pred_true=pred_true,
        stack=stack,
        bugs=tuple(bugs_raw),
        steering=steering,
    )


def encode_batch(
    reports: Sequence[RunReport],
    subject: str,
    table_sha: str,
    compress: bool = True,
) -> Tuple[bytes, Dict[str, str]]:
    """Serialise a batch of reports for ``POST /reports``.

    Returns:
        ``(body, headers)`` where headers carries ``Content-Type`` and,
        when ``compress``, ``Content-Encoding: gzip``.
    """
    document = {
        "schema": REPORT_SCHEMA,
        "subject": subject,
        "table_sha": table_sha,
        "reports": [r.to_wire() for r in reports],
    }
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if compress:
        # mtime=0 keeps the bytes a pure function of the payload.
        body = gzip.compress(body, compresslevel=GZIP_LEVEL, mtime=0)
        headers["Content-Encoding"] = "gzip"
    return body, headers


def _gunzip(body: bytes) -> bytes:
    """Inflate a gzip body without ever holding much more than the limit.

    Accepts what :func:`gzip.decompress` accepts: several members in a
    row, and zero padding after a member.  Output comes in steps of at
    most :data:`_INFLATE_STEP` bytes, capped at one byte past what the
    limit has left, so a bomb is refused once it passes
    :data:`MAX_BODY_BYTES`, not after it has inflated in full.
    """
    chunks: List[bytes] = []
    size = 0
    while body:
        inflater = zlib.decompressobj(_GZIP_WBITS)
        while not inflater.eof:
            cap = min(_INFLATE_STEP, MAX_BODY_BYTES + 1 - size)
            try:
                chunk = inflater.decompress(body, cap)
            except zlib.error as exc:
                raise ProtocolError(
                    "bad-encoding", f"gzip decompression failed: {exc}"
                ) from exc
            size += len(chunk)
            if size > MAX_BODY_BYTES:
                raise ProtocolError(
                    "too-large", f"payload inflates past the limit of {MAX_BODY_BYTES} bytes"
                )
            # Short of the cap, the inflater stopped for want of input: a
            # member that has not ended there is cut short.
            if len(chunk) < cap and not inflater.eof:
                raise ProtocolError(
                    "bad-encoding", "gzip decompression failed: stream is truncated"
                )
            chunks.append(chunk)
            body = inflater.unconsumed_tail
        body = inflater.unused_data.lstrip(b"\x00")
    return b"".join(chunks)


def decode_body(body: bytes, content_encoding: Optional[str] = None) -> dict:
    """Decompress and parse a request body into the payload document.

    Raises:
        ProtocolError: ``bad-encoding`` for unknown/broken encodings,
            ``too-large`` past :data:`MAX_BODY_BYTES` (for gzip, as soon
            as inflation passes it), ``bad-json`` for unparseable text,
            ``bad-schema`` when the document is not a JSON object.
    """
    encoding = (content_encoding or "identity").strip().lower()
    if encoding == "gzip":
        body = _gunzip(body)
    elif encoding not in ("identity", ""):
        raise ProtocolError("bad-encoding", f"unsupported Content-Encoding {encoding!r}")
    elif len(body) > MAX_BODY_BYTES:
        raise ProtocolError(
            "too-large", f"payload is {len(body)} bytes (limit {MAX_BODY_BYTES})"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-json", str(exc)) from exc
    if not isinstance(payload, dict):
        raise ProtocolError("bad-schema", "payload is not a JSON object")
    return payload


def validate_payload(
    payload: dict,
    subject: str,
    table_sha: str,
    n_sites: int,
    n_predicates: int,
    bug_ids: Sequence[str],
) -> List[RunReport]:
    """Validate a decoded payload document against the serving store.

    Args:
        payload: Output of :func:`decode_body`.
        subject: Subject name the server is collecting for.
        table_sha: The store's predicate-table signature.
        n_sites: Site count of that table.
        n_predicates: Predicate count of that table.
        bug_ids: The subject's known ground-truth bug identifiers.

    Returns:
        The decoded reports, in payload order.

    Raises:
        ProtocolError: with reason ``bad-schema`` / ``wrong-subject`` /
            ``table-mismatch`` / ``bad-report``.
    """
    schema = payload.get("schema")
    if schema != REPORT_SCHEMA:
        raise ProtocolError("bad-schema", f"schema {schema!r}, expected {REPORT_SCHEMA!r}")
    got_subject = payload.get("subject")
    if got_subject != subject:
        raise ProtocolError(
            "wrong-subject", f"payload is for {got_subject!r}, server collects {subject!r}"
        )
    got_sha = payload.get("table_sha")
    if got_sha != table_sha:
        raise ProtocolError(
            "table-mismatch",
            f"payload table {str(got_sha)[:12]}... does not match "
            f"store table {table_sha[:12]}...",
        )
    reports_raw = payload.get("reports")
    if not isinstance(reports_raw, list) or not reports_raw:
        raise ProtocolError("bad-schema", "reports must be a non-empty list")
    reports = [
        report_from_wire(spec, n_sites, n_predicates, bug_ids) for spec in reports_raw
    ]
    seen: Dict[int, int] = {}
    for position, report in enumerate(reports):
        if report.seed in seen:
            raise ProtocolError(
                "bad-report",
                f"seed {report.seed} appears at positions {seen[report.seed]} "
                f"and {position} of the same batch",
            )
        seen[report.seed] = position
    return reports
