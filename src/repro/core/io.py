"""Feedback-report persistence.

The real CBI system collected feedback reports from deployed user
populations and analysed them offline, so report sets need a durable
on-disk form.  This module stores a :class:`~repro.core.reports.ReportSet`
(plus optional :class:`~repro.core.truth.GroundTruth`) as a single
NumPy ``.npz`` archive:

* sparse counter matrices in CSR component form;
* outcome labels, crash-stack signatures, and per-run metadata as JSON;
* the predicate table (sites and predicate names) so an archive is
  self-describing and can be analysed without re-instrumenting.

Round-tripping is exact: ``load_reports(save_reports(r)) == r`` in all
analysed quantities (a property test asserts score equality), and per-run
metadata must be JSON-clean -- :func:`save_reports` raises on values that
would come back as a different type (see :func:`validate_metas`).

Format version 2 (the shard format of :mod:`repro.store`) extends the
version 1 layout with:

* ``table_sha`` -- the predicate table's content signature, so shards of
  one population can be checked for instrumentation compatibility before
  merging;
* ``stats_*`` -- the per-predicate sufficient statistics (``F``, ``S``,
  ``F_obs``, ``S_obs``) and population totals (``NumF``, ``NumS``), so a
  shard can be *scored* by reading six small arrays without rebuilding
  its run-by-predicate matrices;
* strict (validated) per-run metadata, where version 1 silently
  stringified non-JSON values via ``json.dumps(default=str)``.

Format version 3 (this module's current writer) abandons the ``.npz``
zip container for a **memory-mappable columnar layout**: a magic tag, a
JSON header carrying every non-array field plus an array table of
contents, then the raw little-endian array bytes, each 64-byte aligned
and uncompressed.  Readers ``mmap`` the file once and hand back zero-copy
views -- :func:`load_shard_stats` touches only the four statistic
columns' pages, never decompressing or copying the run matrices, which
is what lets ``analyze`` and the serve daemon's incremental
scorer stream shards at page-cache speed.  The byte stream is a pure
function of the report population (sorted-key JSON, no timestamps), so
shard SHAs stay reproducible.  See DESIGN.md ("Archive format v3") for
the on-disk spec.

Version 1 and 2 archives remain loadable: the loaders sniff the leading
magic bytes and dispatch, and ``tests/core/test_io.py`` pins the
compatibility.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
import zipfile
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.predicates import PredicateTable, Scheme
from repro.core.reports import ReportSet
from repro.core.truth import GroundTruth

#: Archive format version, bumped on incompatible layout changes.
FORMAT_VERSION = 3

#: All versions :func:`load_reports` can read.
SUPPORTED_VERSIONS = (1, 2, 3)

#: Versions :func:`save_reports` can write (v2 keeps append sessions to
#: pre-v3 stores homogeneous; see ``repro.store.shards``).
WRITABLE_VERSIONS = (2, 3)

#: Leading magic of a version-3 archive (v1/v2 ``.npz`` files start with
#: the zip signature ``PK``, so the two container families are sniffable
#: from the first 8 bytes).
V3_MAGIC = b"RPROSHD3"

#: Alignment of every array section in a v3 archive.
_V3_ALIGN = 64

#: Fixed-size v3 preamble: magic + little-endian uint64 header length.
_V3_PREAMBLE = len(V3_MAGIC) + 8

#: JSON-representable scalar types that survive a round trip unchanged.
_JSON_SCALARS = (str, int, float, bool, type(None))


class ArchiveError(ValueError):
    """Base class for report-archive read failures.

    Subclasses ``ValueError`` so pre-existing callers that caught the
    loader's old untyped errors keep working.
    """


class ArchiveCorruptError(ArchiveError):
    """The archive's bytes cannot be parsed (truncated, flipped, ...)."""


class ArchiveVersionError(ArchiveError):
    """The archive declares a format version this build cannot read."""


#: Exceptions :func:`load_reports` translates into :class:`ArchiveCorruptError`.
#: ``KeyError`` covers missing archive members, ``zlib.error`` a flipped
#: byte inside a compressed member, ``BadZipFile``/``EOFError``/``OSError``
#: truncation, and ``ValueError`` both damaged embedded JSON
#: (``JSONDecodeError``) and ``np.load`` rejecting bytes that are not an
#: archive at all.  ``struct.error`` and ``NotImplementedError`` are
#: ``zipfile`` leaks on flipped bytes in member headers (a corrupted
#: length field, or a compression-method byte flipped to an unsupported
#: codec -- found by the archive fuzz tests).  :class:`ArchiveError`
#: itself is re-raised unchanged by the loaders despite being a
#: ``ValueError``.
_CORRUPTION_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    KeyError,
    EOFError,
    OSError,
    ValueError,
    struct.error,
    NotImplementedError,
)


def file_sha256(path: str) -> str:
    """SHA-256 of a file's bytes, streamed in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def atomic_write_bytes_via(path: str, write) -> None:
    """Write a file crash-safely: temp file + flush + fsync + rename.

    ``write`` is called with the open binary handle.  Either the complete
    new file appears at ``path`` or nothing does; a crash mid-write
    leaves at most an orphaned ``.tmp.<pid>`` file, never a truncated
    archive under the final name.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


def _fsync_dir(directory: str) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def _table_to_json(table: PredicateTable) -> str:
    sites = [
        {
            "scheme": s.scheme.value,
            "function": s.function,
            "line": s.line,
            "description": s.description,
            "predicates": [
                table.predicates[i].name for i in table.predicate_indices_at(s.index)
            ],
        }
        for s in table.sites
    ]
    return json.dumps(sites)


def _table_from_json(text: str) -> PredicateTable:
    table = PredicateTable()
    for spec in json.loads(text):
        scheme = Scheme(spec["scheme"])
        if scheme is Scheme.CUSTOM:
            table.add_custom_site(
                spec["function"], spec["line"], spec["description"], spec["predicates"]
            )
        else:
            table.add_site(
                scheme,
                spec["function"],
                spec["line"],
                spec["description"],
                predicate_names=spec["predicates"],
            )
    return table


def _csr_parts(matrix: sparse.csr_matrix, prefix: str) -> Dict[str, np.ndarray]:
    m = matrix.tocsr()
    return {
        f"{prefix}_data": m.data,
        f"{prefix}_indices": m.indices,
        f"{prefix}_indptr": m.indptr,
        f"{prefix}_shape": np.asarray(m.shape, dtype=np.int64),
    }


def _csr_from_parts(archive, prefix: str) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (
            archive[f"{prefix}_data"],
            archive[f"{prefix}_indices"],
            archive[f"{prefix}_indptr"],
        ),
        shape=tuple(archive[f"{prefix}_shape"]),
    )


def _check_json_clean(value: object, where: str) -> None:
    if isinstance(value, _JSON_SCALARS):
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_json_clean(item, f"{where}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError(
                    f"report meta {where} has non-string key {key!r} "
                    f"({type(key).__name__}); JSON would turn it into a "
                    "string and break exact round-tripping"
                )
            _check_json_clean(item, f"{where}[{key!r}]")
        return
    raise ValueError(
        f"report meta {where} has non-JSON value {value!r} "
        f"({type(value).__name__}); convert it to str/int/float/bool/None/"
        "list/dict before saving so load_reports returns exactly what was "
        "saved"
    )


def validate_metas(metas: List[Dict[str, object]]) -> None:
    """Check per-run metadata survives a JSON round trip *exactly*.

    ``json.dumps(..., default=str)`` would silently stringify anything,
    so a run tagged ``seed=np.int64(7)`` or ``path=Path(...)`` would load
    back as a different type, violating this module's round-tripping
    contract.  Only ``str``/``int``/``float``/``bool``/``None`` scalars,
    lists of them, and string-keyed dicts are accepted; tuples are
    rejected too (JSON would return lists).

    Raises:
        ValueError: Naming the run index and key of the first offender.
    """
    for run, meta in enumerate(metas):
        _check_json_clean(meta, f"run {run}")


def save_reports(
    path: str,
    reports: ReportSet,
    truth: Optional[GroundTruth] = None,
    version: Optional[int] = None,
) -> None:
    """Write a report set (and optional ground truth) to ``path``.

    Writes the current (version 3, memory-mappable) layout by default;
    see the module docstring for the format history.

    Args:
        path: Destination filename.
        reports: The report population.
        truth: Optional run-aligned ground truth.
        version: Archive format to write; ``None`` means the current
            :data:`FORMAT_VERSION`.  Passing ``2`` writes the legacy
            ``.npz`` layout so appends to a pre-v3 shard store keep the
            store homogeneous.

    The archive is written crash-safely (temp file + fsync + atomic
    rename), so an interrupted save never leaves a truncated archive at
    ``path``.

    Raises:
        ValueError: When a per-run meta is not JSON-clean (see
            :func:`validate_metas`) or ``version`` is not writable.
    """
    if version is None:
        version = FORMAT_VERSION
    if version not in WRITABLE_VERSIONS:
        raise ValueError(
            f"cannot write report archive version {version} "
            f"(writable: {', '.join(map(str, WRITABLE_VERSIONS))})"
        )
    validate_metas(reports.metas)
    if truth is not None:
        truth._check_aligned(reports)
    if version == 2:
        atomic_write_bytes_via(
            path, lambda handle: _write_reports_v2(handle, reports, truth)
        )
    else:
        atomic_write_bytes_via(
            path, lambda handle: _write_reports_v3(handle, reports, truth)
        )


def _write_reports_v2(handle, reports: ReportSet, truth: Optional[GroundTruth]) -> None:
    """Write the legacy version-2 ``.npz`` layout to an open handle."""
    from repro.core.scores import sufficient_counts

    F, S, F_obs, S_obs, num_failing, num_successful = sufficient_counts(reports)
    payload: Dict[str, np.ndarray] = {
        "format_version": np.asarray([2]),
        "failed": reports.failed,
        "table_sha": np.asarray(reports.table.signature()),
        "stats_F": F,
        "stats_S": S,
        "stats_F_obs": F_obs,
        "stats_S_obs": S_obs,
        "stats_num_failing": np.asarray([num_failing], dtype=np.int64),
        "stats_num_successful": np.asarray([num_successful], dtype=np.int64),
    }
    payload.update(_csr_parts(reports.site_counts, "sites"))
    payload.update(_csr_parts(reports.true_counts, "preds"))
    payload["table_json"] = np.asarray(_table_to_json(reports.table))
    payload["stacks_json"] = np.asarray(
        json.dumps([list(s) if s is not None else None for s in reports.stacks])
    )
    payload["metas_json"] = np.asarray(json.dumps(reports.metas))
    if truth is not None:
        payload["truth_bugs_json"] = np.asarray(json.dumps(list(truth.bug_ids)))
        payload["truth_runs_json"] = np.asarray(
            json.dumps([sorted(occ) for occ in truth.occurrences])
        )
    np.savez_compressed(handle, **payload)


def _v3_aligned(offset: int) -> int:
    """Round ``offset`` up to the next :data:`_V3_ALIGN` boundary."""
    return (offset + _V3_ALIGN - 1) // _V3_ALIGN * _V3_ALIGN


def _write_reports_v3(handle, reports: ReportSet, truth: Optional[GroundTruth]) -> None:
    """Write the version-3 memory-mappable layout to an open handle.

    Layout: :data:`V3_MAGIC`, a little-endian ``uint64`` header length,
    the sorted-key JSON header, zero padding to a 64-byte boundary, then
    each array's raw bytes at the 64-byte-aligned offsets recorded in the
    header's ``arrays`` table of contents (offsets are relative to the
    start of the data section).  Everything is deterministic given the
    report population, so shard checksums stay reproducible.
    """
    from repro.core.scores import sufficient_counts

    F, S, F_obs, S_obs, num_failing, num_successful = sufficient_counts(reports)
    sites = reports.site_counts.tocsr()
    preds = reports.true_counts.tocsr()
    # Statistics columns first: a stats-only reader touches only the
    # file's leading pages.
    columns = [
        ("stats_F", F),
        ("stats_S", S),
        ("stats_F_obs", F_obs),
        ("stats_S_obs", S_obs),
        ("failed", reports.failed),
        ("sites_data", sites.data),
        ("sites_indices", sites.indices),
        ("sites_indptr", sites.indptr),
        ("preds_data", preds.data),
        ("preds_indices", preds.indices),
        ("preds_indptr", preds.indptr),
    ]
    toc: Dict[str, Dict[str, object]] = {}
    sections = []
    offset = 0
    for name, raw in columns:
        arr = np.ascontiguousarray(raw)
        if arr.dtype.byteorder == ">":  # pragma: no cover - big-endian host
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        offset = _v3_aligned(offset)
        toc[name] = {
            "dtype": arr.dtype.str,
            "shape": [int(d) for d in arr.shape],
            "offset": offset,
            "nbytes": int(arr.nbytes),
        }
        sections.append((offset, arr))
        offset += arr.nbytes
    header: Dict[str, object] = {
        "format_version": 3,
        "table_sha": reports.table.signature(),
        "num_failing": int(num_failing),
        "num_successful": int(num_successful),
        "sites_shape": [int(d) for d in sites.shape],
        "preds_shape": [int(d) for d in preds.shape],
        "table_json": _table_to_json(reports.table),
        "stacks_json": json.dumps(
            [list(s) if s is not None else None for s in reports.stacks]
        ),
        "metas_json": json.dumps(reports.metas),
        "arrays": toc,
    }
    if truth is not None:
        header["truth_bugs_json"] = json.dumps(list(truth.bug_ids))
        header["truth_runs_json"] = json.dumps(
            [sorted(occ) for occ in truth.occurrences]
        )
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    handle.write(V3_MAGIC)
    handle.write(struct.pack("<Q", len(header_bytes)))
    handle.write(header_bytes)
    data_start = _v3_aligned(_V3_PREAMBLE + len(header_bytes))
    handle.write(b"\x00" * (data_start - _V3_PREAMBLE - len(header_bytes)))
    pos = 0
    for section_offset, arr in sections:
        if section_offset > pos:
            handle.write(b"\x00" * (section_offset - pos))
            pos = section_offset
        handle.write(arr.data)
        pos += arr.nbytes


def _v3_read_header(path: str) -> Tuple[Dict[str, object], int]:
    """Parse a v3 archive's JSON header.

    Returns ``(header, data_start)`` where ``data_start`` is the absolute
    file offset of the aligned data section.  Raises plain ``ValueError``
    (or ``KeyError``) on damage -- the public loaders translate those
    into :class:`ArchiveCorruptError` -- and
    :class:`ArchiveVersionError` directly on an unreadable version.
    """
    with open(path, "rb") as fh:
        preamble = fh.read(_V3_PREAMBLE)
        if len(preamble) < _V3_PREAMBLE or not preamble.startswith(V3_MAGIC):
            raise ValueError("truncated v3 archive preamble")
        (header_len,) = struct.unpack("<Q", preamble[len(V3_MAGIC) :])
        if header_len > (1 << 31):
            raise ValueError(f"implausible v3 header length {header_len}")
        header_bytes = fh.read(header_len)
    if len(header_bytes) != header_len:
        raise ValueError("truncated v3 archive header")
    header = json.loads(header_bytes.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("v3 archive header is not a JSON object")
    version = int(header["format_version"])
    if version not in SUPPORTED_VERSIONS:
        raise ArchiveVersionError(
            f"unsupported report archive version {version} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    return header, _v3_aligned(_V3_PREAMBLE + header_len)


def _v3_map(path: str) -> mmap.mmap:
    """Memory-map an archive read-only (the fd may close immediately;
    the mapping keeps the pages alive until the arrays viewing it die)."""
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


def _v3_array(buf, data_start: int, toc: Dict[str, object], name: str) -> np.ndarray:
    """Zero-copy view of one array section; bounds-checked, read-only."""
    try:
        spec = toc[name]
    except (KeyError, TypeError):
        raise ValueError(f"v3 archive missing array section {name!r}") from None
    dtype = np.dtype(str(spec["dtype"]))
    shape = tuple(int(d) for d in spec["shape"])
    nbytes = int(spec["nbytes"])
    count = 1
    for dim in shape:
        count *= dim
    if count * dtype.itemsize != nbytes:
        raise ValueError(f"array section {name!r} has inconsistent shape/nbytes")
    offset = data_start + int(spec["offset"])
    if offset < data_start or offset + nbytes > len(buf):
        raise ValueError(f"array section {name!r} overruns the archive")
    return np.frombuffer(buf, dtype=dtype, count=count, offset=offset).reshape(shape)


def _v3_check_extent(buf, data_start: int, toc: Dict[str, object]) -> None:
    """Check the mapped file covers every section the TOC declares.

    A stats-only reader touches just the leading pages, so without this
    a shard truncated in its trailing matrix sections would still yield
    statistics; the commit protocol treats any byte loss as corruption.
    """
    if not isinstance(toc, dict) or not toc:
        raise ValueError("v3 archive has no array table of contents")
    end = max(int(s["offset"]) + int(s["nbytes"]) for s in toc.values())
    if data_start + end > len(buf):
        raise ValueError(
            f"v3 archive truncated: declares {data_start + end} bytes, "
            f"file has {len(buf)}"
        )


def _is_v3(path: str) -> bool:
    """True when the file at ``path`` starts with the v3 magic bytes."""
    with open(path, "rb") as fh:
        return fh.read(len(V3_MAGIC)) == V3_MAGIC


def _shared_or_decoded(
    table: Optional[PredicateTable], table_sha: Optional[str], table_json
) -> PredicateTable:
    """An archive's predicate table, decoding it only when necessary.

    Returns ``table`` itself when the archive's recorded ``table_sha``
    names it; otherwise (no table given, a different signature, or a
    version 1 archive with no recorded signature) decodes ``table_json()``.

    A decoded table takes the recorded ``table_sha`` as its signature
    rather than re-hashing itself: the recorded signature is the
    archive's table identity, the one a shard store compares with its
    manifest, just as when the table is shared.  Version 1 archives
    record none, so their tables hash their content on first use.
    """
    if table is not None and table_sha is not None and table_sha == table.signature():
        return table
    decoded = _table_from_json(str(table_json()))
    decoded._signature = table_sha
    return decoded


def _recorded_table_sha(archive) -> Optional[str]:
    """A ``.npz`` archive's recorded table signature (``None`` for v1)."""
    return str(archive["table_sha"]) if "table_sha" in archive else None


def _load_reports_v3(
    path: str, table: Optional[PredicateTable]
) -> Tuple[ReportSet, Optional[GroundTruth]]:
    header, data_start = _v3_read_header(path)
    buf = _v3_map(path)
    toc = header["arrays"]
    _v3_check_extent(buf, data_start, toc)

    def arr(name: str) -> np.ndarray:
        return _v3_array(buf, data_start, toc, name)

    table = _shared_or_decoded(
        table, str(header["table_sha"]), lambda: header["table_json"]
    )
    stacks_raw = json.loads(str(header["stacks_json"]))
    stacks = [tuple(s) if s is not None else None for s in stacks_raw]
    metas = json.loads(str(header["metas_json"]))
    site_counts = sparse.csr_matrix(
        (arr("sites_data"), arr("sites_indices"), arr("sites_indptr")),
        shape=tuple(int(d) for d in header["sites_shape"]),
    )
    true_counts = sparse.csr_matrix(
        (arr("preds_data"), arr("preds_indices"), arr("preds_indptr")),
        shape=tuple(int(d) for d in header["preds_shape"]),
    )
    reports = ReportSet(table, arr("failed"), site_counts, true_counts, stacks, metas)
    truth: Optional[GroundTruth] = None
    if "truth_bugs_json" in header:
        truth = GroundTruth(bug_ids=json.loads(str(header["truth_bugs_json"])))
        for bugs in json.loads(str(header["truth_runs_json"])):
            truth.add_run(bugs)
    return reports, truth


def _check_version(archive) -> int:
    version = int(archive["format_version"][0])
    if version not in SUPPORTED_VERSIONS:
        raise ArchiveVersionError(
            f"unsupported report archive version {version} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})"
        )
    return version


@contextlib.contextmanager
def _archive_errors(what: str, path: str) -> Iterator[None]:
    """Translate a loader's raw parse failures into :class:`ArchiveCorruptError`.

    :class:`ArchiveError` passes through unchanged (it is a
    ``ValueError``, which the corruption classes would otherwise catch).
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        yield
    except ArchiveError:
        raise
    except _CORRUPTION_ERRORS as exc:
        raise ArchiveCorruptError(f"cannot read {what} {path}: {exc!r}") from exc


def load_reports(
    path: str, table: Optional[PredicateTable] = None
) -> Tuple[ReportSet, Optional[GroundTruth]]:
    """Read a report set written by :func:`save_reports`.

    Dispatches on the leading magic bytes: version 3 archives are
    memory-mapped (count matrices come back as zero-copy read-only
    views), while version 1/2 ``.npz`` archives load through ``np.load``
    as before (version 1 metas may contain stringified values -- that
    layout wrote them with ``default=str``).

    Args:
        path: The archive to read.
        table: A predicate table the caller already holds -- a shard
            store passes its own.  When the archive's recorded
            ``table_sha`` equals ``table.signature()`` the returned
            report set shares ``table`` and the embedded table JSON is
            never decoded; otherwise (another signature, or a version 1
            archive, which records none) the embedded table is decoded
            as without it.  Callers that must reject a foreign table
            compare ``reports.table.signature()`` themselves (see
            ``ShardStore.iter_reports``).

    Returns:
        ``(reports, truth)``; ``truth`` is ``None`` when the archive was
        written without ground truth.

    Raises:
        ArchiveCorruptError: When the file cannot be parsed -- truncated
            zip or v3 header, flipped bytes inside a compressed member,
            missing members or array sections, out-of-bounds section
            offsets, or damaged embedded JSON.
        ArchiveVersionError: When the declared format version is not one
            of :data:`SUPPORTED_VERSIONS`.
        FileNotFoundError: When ``path`` does not exist.
    """
    with _archive_errors("report archive", path):
        if _is_v3(path):
            return _load_reports_v3(path, table)
        with np.load(path, allow_pickle=False) as archive:
            _check_version(archive)
            table = _shared_or_decoded(
                table, _recorded_table_sha(archive), lambda: archive["table_json"]
            )
            stacks_raw = json.loads(str(archive["stacks_json"]))
            stacks = [tuple(s) if s is not None else None for s in stacks_raw]
            metas = json.loads(str(archive["metas_json"]))
            reports = ReportSet(
                table,
                archive["failed"],
                _csr_from_parts(archive, "sites"),
                _csr_from_parts(archive, "preds"),
                stacks,
                metas,
            )
            truth: Optional[GroundTruth] = None
            if "truth_bugs_json" in archive:
                truth = GroundTruth(bug_ids=json.loads(str(archive["truth_bugs_json"])))
                for bugs in json.loads(str(archive["truth_runs_json"])):
                    truth.add_run(bugs)
    return reports, truth


def load_table(path: str) -> PredicateTable:
    """Read only an archive's predicate table.

    Parses the v3 header (or the ``.npz`` table member) and decodes the
    table, without mapping or building any count matrix -- what a shard
    store needs to learn its table before the first shard read.

    Raises:
        ArchiveCorruptError, ArchiveVersionError, FileNotFoundError: As
            for :func:`load_reports`.
    """
    with _archive_errors("report archive", path):
        if _is_v3(path):
            header, _ = _v3_read_header(path)
            return _shared_or_decoded(
                None, str(header["table_sha"]), lambda: header["table_json"]
            )
        with np.load(path, allow_pickle=False) as archive:
            _check_version(archive)
            return _shared_or_decoded(
                None, _recorded_table_sha(archive), lambda: archive["table_json"]
            )


def load_shard_stats(
    path: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int, Optional[str]]:
    """Read only the sufficient statistics from an archive.

    For version 3 archives this memory-maps the file and returns
    zero-copy (read-only) views of the four statistic columns, which sit
    on the file's leading pages -- no decompression, no copy, no matrix
    reconstruction.  Version 2 archives read six small dense arrays out
    of the ``.npz``.  Version 1 archives lack the embedded statistics,
    so they are derived by loading the shard's matrices (one shard at a
    time -- still bounded by the largest single shard).

    Returns:
        ``(F, S, F_obs, S_obs, num_failing, num_successful, table_sha)``;
        ``table_sha`` is ``None`` for version 1 archives (the signature
        is instead derived from the materialised table).  The arrays may
        be read-only views backed by the file mapping; copy before
        mutating (see ``SufficientStats.materialized``).

    Raises:
        ArchiveCorruptError: When the statistics cannot be read (see
            :func:`load_reports` for the failure classes covered).  The
            version 1 derivation path is covered too: a truncated or
            garbage legacy archive surfaces as a typed error here, never
            as a raw numpy/zip/JSON exception.
        ArchiveVersionError: On an unsupported format version.
    """
    with _archive_errors("shard statistics from", path):
        if _is_v3(path):
            header, data_start = _v3_read_header(path)
            buf = _v3_map(path)
            toc = header["arrays"]
            _v3_check_extent(buf, data_start, toc)
            return (
                _v3_array(buf, data_start, toc, "stats_F"),
                _v3_array(buf, data_start, toc, "stats_S"),
                _v3_array(buf, data_start, toc, "stats_F_obs"),
                _v3_array(buf, data_start, toc, "stats_S_obs"),
                int(header["num_failing"]),
                int(header["num_successful"]),
                str(header["table_sha"]),
            )
        with np.load(path, allow_pickle=False) as archive:
            version = _check_version(archive)
            if version >= 2:
                return (
                    np.asarray(archive["stats_F"], dtype=np.int64),
                    np.asarray(archive["stats_S"], dtype=np.int64),
                    np.asarray(archive["stats_F_obs"], dtype=np.int64),
                    np.asarray(archive["stats_S_obs"], dtype=np.int64),
                    int(archive["stats_num_failing"][0]),
                    int(archive["stats_num_successful"][0]),
                    str(archive["table_sha"]),
                )
        from repro.core.scores import sufficient_counts

        # Version 1 fallback: derive the statistics from the full archive
        # and report the loaded table's signature so integrity checks
        # still apply.  This runs inside the corruption-translating block:
        # a v1 archive damaged past the version stamp used to escape as a
        # raw numpy/JSON error from load_reports' re-read of the file.
        reports, _ = load_reports(path)
        F, S, F_obs, S_obs, num_failing, num_successful = sufficient_counts(reports)
        return (
            F,
            S,
            F_obs,
            S_obs,
            num_failing,
            num_successful,
            reports.table.signature(),
        )
