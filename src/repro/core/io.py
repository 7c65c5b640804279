"""Feedback-report persistence.

The real CBI system collected feedback reports from deployed user
populations and analysed them offline, so report sets need a durable
on-disk form.  This module stores a :class:`~repro.core.reports.ReportSet`
(plus optional :class:`~repro.core.truth.GroundTruth`) as a single
**memory-mappable columnar archive** (format version 3): a magic tag, a
JSON header carrying every non-array field plus an array table of
contents, then the raw little-endian array bytes, each 64-byte aligned
and uncompressed.  The archive holds:

* the run-by-site and run-by-predicate counter matrices in CSR
  component form, and the outcome labels;
* the per-predicate sufficient statistics (``F``, ``S``, ``F_obs``,
  ``S_obs``) and population totals, so a shard can be *scored* by
  reading four columns without rebuilding its matrices;
* the predicate table (sites and predicate names) and its ``table_sha``
  signature, so an archive is self-describing and shards of one
  population can be checked for instrumentation compatibility;
* crash-stack signatures and per-run trial seeds as JSON.

Every read goes through one :class:`Archive`: the file is ``mmap``-ed
and its header parsed and extent-checked once, and each section read
(statistics, validated run sections, table, whole report set, kept
columns, site totals) hands back zero-copy views of that one mapping
and checks what it reads against the header.  The statistics read
touches only the four statistic columns' pages, which is what lets
``analyze`` and the serve daemon's incremental scorer stream shards at
page-cache speed.  :func:`load_reports` is the path-level loader over it.

The byte stream is a pure function of the report population (sorted-key
JSON, no timestamps), so shard SHAs stay reproducible, and round-tripping
is exact.  See DESIGN.md ("Archive format v3") for the on-disk spec.

Archives of the retired ``.npz`` formats (versions 1 and 2) are refused
with :class:`ArchiveVersionError`; their runs must be re-collected.
"""

from __future__ import annotations

import functools
import hashlib
import json
import mmap
import os
import struct
from typing import Dict, Optional, Tuple, Union

import numpy as np
from scipy import sparse

from repro.core.predicates import PredicateTable, Scheme
from repro.core.reports import ReportSet, is_seed
from repro.core.truth import GroundTruth

#: The archive format version this module reads and writes.
FORMAT_VERSION = 3

#: Leading magic of an archive.
V3_MAGIC = b"RPROSHD3"

#: Leading bytes of a retired v1/v2 ``.npz`` archive (a zip file).
_ZIP_MAGIC = b"PK\x03\x04"

#: Alignment of every array section.
_ALIGN = 64

#: Fixed-size preamble: magic + little-endian uint64 header length.
_PREAMBLE = len(V3_MAGIC) + 8


class ArchiveError(ValueError):
    """Base class for report-archive read failures.

    Subclasses ``ValueError`` so pre-existing callers that caught the
    loader's old untyped errors keep working.
    """


class ArchiveCorruptError(ArchiveError):
    """The archive's bytes cannot be parsed (truncated, flipped, ...)."""


class ArchiveVersionError(ArchiveError):
    """The archive declares a format version this build cannot read."""


#: Exceptions an :class:`Archive` translates into
#: :class:`ArchiveCorruptError`.  ``LookupError`` covers missing header
#: fields and short shape lists, ``TypeError`` header values of the
#: wrong JSON type, ``OSError`` unreadable files, and ``ValueError``
#: damaged magic, header JSON (``JSONDecodeError``), array tables and
#: truncation (including ``mmap`` refusing an empty file).
#: :class:`ArchiveError` itself passes unchanged despite being a
#: ``ValueError``.
_CORRUPTION_ERRORS = (LookupError, OSError, TypeError, ValueError)


def file_sha256(path: str) -> str:
    """SHA-256 of a file's bytes, read in 1 MiB blocks into one buffer.

    The file is read, not mapped: one truncated while it is hashed then
    just hashes short (and fails its digest check) instead of faulting
    the process with ``SIGBUS``.
    """
    digest = hashlib.sha256()
    block = bytearray(1 << 20)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as handle:
        while True:
            n = handle.readinto(block)
            if not n:
                break
            digest.update(view[:n])
    return digest.hexdigest()


def atomic_write_bytes_via(path: str, write) -> None:
    """Write a file crash-safely: temp file, fsync, rename, directory fsync.

    The one whole-file write of store, daemon and spool state.  ``write``
    is called with the open binary handle.  Either the complete new file
    appears at ``path`` or nothing does: a crash or error mid-write
    leaves at most an orphaned ``.tmp.<pid>`` file.  On return the new
    bytes and the rename are durable.
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
    # Flush the directory entry so the rename survives power loss.
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
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


def save_reports(
    path: str,
    reports: ReportSet,
    truth: Optional[GroundTruth] = None,
) -> None:
    """Write a report set (and optional ground truth) to ``path``.

    Args:
        path: Destination filename.
        reports: The report population.
        truth: Optional run-aligned ground truth.

    The archive is written crash-safely (temp file + fsync + atomic
    rename), so an interrupted save never leaves a truncated archive at
    ``path``.

    Raises:
        ValueError: When ``reports`` is a partial set (see
            ``ReportSet.columns``).
    """
    reports.require_whole("save")
    if truth is not None:
        truth._check_aligned(reports)
    atomic_write_bytes_via(path, lambda handle: _write_reports(handle, reports, truth))


def _aligned(offset: int) -> int:
    """Round ``offset`` up to the next :data:`_ALIGN` boundary."""
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _write_reports(handle, reports: ReportSet, truth: Optional[GroundTruth]) -> None:
    """Write the memory-mappable layout to an open handle.

    Layout: :data:`V3_MAGIC`, a little-endian ``uint64`` header length,
    the sorted-key JSON header, zero padding to a 64-byte boundary, then
    each array's raw bytes at the 64-byte-aligned offsets recorded in the
    header's ``arrays`` table of contents (offsets are relative to the
    start of the data section).  Everything is deterministic given the
    report population, so shard checksums stay reproducible.
    """
    from repro.core.scores import SufficientStats

    stats = SufficientStats.from_reports(reports)
    sites = reports.site_counts.tocsr()
    preds = reports.true_counts.tocsr()
    # Statistics columns first: a stats-only reader touches only the
    # file's leading pages.
    columns = [
        ("stats_F", stats.F),
        ("stats_S", stats.S),
        ("stats_F_obs", stats.F_obs),
        ("stats_S_obs", stats.S_obs),
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
        offset = _aligned(offset)
        toc[name] = {
            "dtype": arr.dtype.str,
            "shape": [int(d) for d in arr.shape],
            "offset": offset,
            "nbytes": int(arr.nbytes),
        }
        sections.append((offset, arr))
        offset += arr.nbytes
    header: Dict[str, object] = {
        "format_version": FORMAT_VERSION,
        "table_sha": reports.table.signature(),
        "num_failing": stats.num_failing,
        "num_successful": stats.num_successful,
        "sites_shape": [int(d) for d in sites.shape],
        "preds_shape": [int(d) for d in preds.shape],
        "table_json": _table_to_json(reports.table),
        "stacks_json": json.dumps(
            [list(s) if s is not None else None for s in reports.stacks]
        ),
        # The frozen format's per-run metadata: one {"seed": s} a run.
        "metas_json": json.dumps([{"seed": int(s)} for s in reports.seeds]),
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
    data_start = _aligned(_PREAMBLE + len(header_bytes))
    handle.write(b"\x00" * (data_start - _PREAMBLE - len(header_bytes)))
    pos = 0
    for section_offset, arr in sections:
        if section_offset > pos:
            handle.write(b"\x00" * (section_offset - pos))
            pos = section_offset
        handle.write(arr.data)
        pos += arr.nbytes


#: A reader's memo of parsed archive headers: ``path -> (header bytes,
#: parse)``.  A shard store keeps one so every read of a committed
#: shard parses its header once (see :class:`Archive`).
HeaderMemo = Dict[str, Tuple[bytes, Dict[str, object]]]

#: The sufficient-statistic sections, in :meth:`Archive.stats` order.
_STATS = ("stats_F", "stats_S", "stats_F_obs", "stats_S_obs")


def _parse_header(raw: bytes) -> Dict[str, object]:
    """Parse an archive's JSON header bytes.

    Raises plain ``ValueError`` on damage -- :class:`Archive` translates
    it into :class:`ArchiveCorruptError` -- and
    :class:`ArchiveVersionError` on any declared version but
    :data:`FORMAT_VERSION`.
    """
    header = json.loads(raw.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError("archive header is not a JSON object")
    version = int(header["format_version"])
    if version != FORMAT_VERSION:
        raise ArchiveVersionError(
            f"unsupported report archive version {version} "
            f"(this build reads version {FORMAT_VERSION} only)"
        )
    return header


#: One count matrix's CSR sections: ``(data, indices, indptr, shape)``.
_CSR = Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]


def _check_csr(name: str, data, indices, indptr, shape: Tuple[int, ...]) -> None:
    """Refuse CSR sections that do not describe a ``shape`` matrix.

    scipy trusts the components it is handed: an index outside
    ``[0, n_cols)`` or an ``indptr`` that runs backwards or past the
    stored entries is not caught when the matrix is built, and a later
    column read aborts the interpreter (double free, segfault) or
    raises a bare ``IndexError``.  An archive's SHA-256 only proves the
    bytes are the ones its writer committed, not that the writer was
    sound, so every reader of the matrices checks them here first.

    Raises:
        ValueError: Naming the matrix and the first broken invariant.
    """
    if len(shape) != 2 or min(shape) < 0:
        raise ValueError(f"{name} matrix has invalid shape {shape}")
    n_rows, n_cols = shape
    if data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
        raise ValueError(f"{name} CSR sections are not one-dimensional")
    if indices.dtype.kind not in "iu" or indptr.dtype.kind not in "iu":
        raise ValueError(f"{name} CSR index sections are not integers")
    if data.shape != indices.shape:
        raise ValueError(
            f"{name} CSR has {data.shape[0]} values but {indices.shape[0]} indices"
        )
    if indptr.shape[0] != n_rows + 1:
        raise ValueError(
            f"{name} CSR indptr has {indptr.shape[0]} entries for {n_rows} rows"
        )
    if indptr[0] != 0 or indptr[-1] != indices.shape[0]:
        raise ValueError(
            f"{name} CSR indptr spans [{indptr[0]}, {indptr[-1]}], "
            f"not [0, {indices.shape[0]}]"
        )
    if np.any(indptr[1:] < indptr[:-1]):
        raise ValueError(f"{name} CSR indptr decreases")
    if indices.shape[0] and (indices.min() < 0 or indices.max() >= n_cols):
        raise ValueError(
            f"{name} CSR holds column indices outside [0, {n_cols})"
        )


def _select(csr: _CSR, keep: np.ndarray) -> sparse.csr_matrix:
    """The ``keep`` columns of validated CSR sections, at full shape.

    The other columns come back empty.  Costs one pass over the stored
    entries, with no sort: kept entries stay in their row order, so a
    row's new extent is where its old bounds fall among the kept
    positions.
    """
    data, indices, indptr, shape = csr
    hit = np.flatnonzero(keep[indices])
    return sparse.csr_matrix(
        (data[hit], indices[hit], np.searchsorted(hit, indptr)), shape=shape
    )


def _translated(read):
    """Turn an :class:`Archive` step's raw parse failures into
    :class:`ArchiveCorruptError`.

    :class:`ArchiveError` passes through unchanged (it is a
    ``ValueError``, which the corruption classes would otherwise catch).
    """

    @functools.wraps(read)
    def translated(self, *args):
        try:
            return read(self, *args)
        except ArchiveError:
            raise
        except _CORRUPTION_ERRORS as exc:
            raise ArchiveCorruptError(
                f"cannot read report archive {self.path}: {exc!r}"
            ) from exc

    return translated


class Archive:
    """An archive opened for reading: one mapping, one header parse.

    Every read of an archive goes through one.  Opening maps the file,
    slices the preamble and header from the mapping, parses the header
    and checks that the mapped bytes cover every section the header
    declares.  ``headers`` is a reader's :data:`HeaderMemo`: the parse
    recorded for ``path`` is reused only when the header bytes just
    sliced equal the bytes it was parsed from; any other bytes
    (rewritten, damaged) are parsed afresh and replace the entry.  The
    memo holds no mapping.

    The section reads -- :meth:`stats`, :meth:`runs`, :meth:`table`,
    :meth:`truth`, :meth:`reports`, :meth:`columns` and
    :meth:`site_totals` -- take zero-copy, read-only views of that one
    mapping and never map or parse again.  Each checks what it reads:
    the statistic sections and the header's run counts against the
    header's matrix shapes (:meth:`stats`), and the run-level sections
    against each other and the header (:meth:`runs`, which every matrix
    read goes through).

    Attributes:
        path: The archive's path.
        header: Its parsed JSON header.
        table_sha: The predicate-table signature it records.

    Raises:
        ArchiveCorruptError: Opening or any read finds damage: truncated
            header or sections, unrecognised magic, missing array
            sections, out-of-bounds section offsets, sections or counts
            that disagree with the header, or damaged embedded JSON.
        ArchiveVersionError: The file is a retired v1/v2 ``.npz``
            archive or declares a version other than
            :data:`FORMAT_VERSION`.
        FileNotFoundError: ``path`` does not exist.
    """

    def __init__(self, path: str, headers: Optional[HeaderMemo] = None) -> None:
        if not os.path.exists(path):
            raise FileNotFoundError(f"{path}: no such file")
        self.path = path
        self._open(headers)

    @_translated
    def _open(self, headers: Optional[HeaderMemo]) -> None:
        with open(self.path, "rb") as fh:
            # The fd may close at once: the mapping keeps the pages alive
            # until the arrays viewing it die.
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        if buf[: len(_ZIP_MAGIC)] == _ZIP_MAGIC:
            raise ArchiveVersionError(
                f"{self.path} is a v1/v2 (.npz) report archive; those formats "
                "are no longer read -- re-collect the runs"
            )
        if len(buf) < _PREAMBLE or buf[: len(V3_MAGIC)] != V3_MAGIC:
            raise ValueError("truncated or unrecognised archive preamble")
        (header_len,) = struct.unpack_from("<Q", buf, len(V3_MAGIC))
        if header_len > (1 << 31):
            raise ValueError(f"implausible archive header length {header_len}")
        if _PREAMBLE + header_len > len(buf):
            raise ValueError("truncated archive header")
        raw = buf[_PREAMBLE : _PREAMBLE + header_len]
        seen = headers.get(self.path) if headers is not None else None
        if seen is not None and seen[0] == raw:
            header = seen[1]
        else:
            header = _parse_header(raw)
            if headers is not None:
                headers[self.path] = (raw, header)
        self._buf = buf
        self._start = _aligned(_PREAMBLE + header_len)
        # A stats-only reader touches just the leading pages, so without
        # this a shard truncated in its trailing matrix sections would
        # still yield statistics; the commit protocol treats any byte
        # loss as corruption.
        toc = header["arrays"]
        if not isinstance(toc, dict) or not toc:
            raise ValueError("archive has no array table of contents")
        end = self._start + max(
            int(s["offset"]) + int(s["nbytes"]) for s in toc.values()
        )
        if end > len(buf):
            raise ValueError(
                f"archive truncated: declares {end} bytes, file has {len(buf)}"
            )
        self.header = header
        self.table_sha = str(header["table_sha"])

    def _array(self, name: str) -> np.ndarray:
        """Zero-copy view of one array section; bounds-checked, read-only."""
        try:
            spec = self.header["arrays"][name]
        except (KeyError, TypeError):
            raise ValueError(f"archive missing array section {name!r}") from None
        dtype = np.dtype(str(spec["dtype"]))
        shape = tuple(int(d) for d in spec["shape"])
        nbytes = int(spec["nbytes"])
        count = 1
        for dim in shape:
            count *= dim
        if count * dtype.itemsize != nbytes:
            raise ValueError(f"array section {name!r} has inconsistent shape/nbytes")
        offset = self._start + int(spec["offset"])
        if offset < self._start or offset + nbytes > len(self._buf):
            raise ValueError(f"array section {name!r} overruns the archive")
        view = np.frombuffer(self._buf, dtype=dtype, count=count, offset=offset)
        return view.reshape(shape)

    @_translated
    def counts(self) -> Tuple[int, int]:
        """``(num_failing, num_successful)``, which must add up to both
        matrices' row count, ``num_failing`` being the failing outcomes
        (the ``failed`` column sits on the leading pages)."""
        num_failing = int(self.header["num_failing"])
        num_successful = int(self.header["num_successful"])
        rows = [int(self.header[f"{name}_shape"][0]) for name in ("sites", "preds")]
        if rows != [num_failing + num_successful] * 2:
            raise ValueError(
                f"header counts {num_failing} failing and {num_successful} "
                f"successful runs for matrices of {rows[0]} and {rows[1]} rows"
            )
        held = int(np.count_nonzero(self._array("failed")))
        if held != num_failing:
            raise ValueError(
                f"header counts {num_failing} failing runs, outcome column holds {held}"
            )
        return num_failing, num_successful

    @_translated
    def stats(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
        """``(F, S, F_obs, S_obs, num_failing, num_successful)``.

        Read-only views of the four statistic columns, which sit on the
        file's leading pages -- no copy, no matrix reconstruction.  The
        header must agree with the file: its run counts pass
        :meth:`counts`, and each statistic column holds one entry per
        predicate column.  A header that lies about its population -- its
        run counts or its failing count -- is refused before it is
        scored; the checks read the header and the outcome column only.
        """
        columns = [self._array(name) for name in _STATS]
        counts = self.counts()
        n_preds = int(self.header["preds_shape"][1])
        for name, column in zip(_STATS, columns):
            if column.shape != (n_preds,):
                raise ValueError(
                    f"statistic section {name!r} has shape {column.shape} for a "
                    f"matrix of {n_preds} predicate columns"
                )
        return (*columns, *counts)  # type: ignore[return-value]

    def _csr(self, name: str) -> _CSR:
        """The validated CSR sections of the ``sites`` or ``preds`` matrix."""
        data, indices, indptr = (
            self._array(f"{name}_{part}") for part in ("data", "indices", "indptr")
        )
        shape = tuple(int(d) for d in self.header[f"{name}_shape"])
        _check_csr(name, data, indices, indptr, shape)
        return data, indices, indptr, shape  # type: ignore[return-value]

    @_translated
    def runs(self) -> Tuple[np.ndarray, _CSR, _CSR]:
        """``(failed, sites, preds)``: the run-level sections, validated.

        Both matrices pass :func:`_check_csr`; they and ``failed`` agree
        on the number of runs, which is the header's (:meth:`counts`);
        and the header's ``num_failing`` is the number of failing
        outcomes.
        """
        failed = self._array("failed")
        sites = self._csr("sites")
        preds = self._csr("preds")
        if failed.shape != (sites[3][0],) or preds[3][0] != sites[3][0]:
            raise ValueError(
                f"archive disagrees on its run count: {failed.shape[0]} outcomes, "
                f"{sites[3][0]} site rows, {preds[3][0]} predicate rows"
            )
        self.counts()
        return failed, sites, preds

    @_translated
    def table(self, table: Optional[PredicateTable] = None) -> PredicateTable:
        """The archive's predicate table, decoding it only when necessary.

        Returns ``table`` itself when the archive's recorded
        ``table_sha`` names it; otherwise (no table given, or a different
        signature) decodes the header's table JSON.

        A decoded table takes the recorded ``table_sha`` as its signature
        rather than re-hashing itself: the recorded signature is the
        archive's table identity, the one a shard store compares with its
        manifest, just as when the table is shared.
        """
        if table is not None and self.table_sha == table.signature():
            return table
        decoded = _table_from_json(str(self.header["table_json"]))
        decoded._signature = self.table_sha
        return decoded

    @_translated
    def truth(self, n_runs: int) -> Optional[GroundTruth]:
        """The header's ground truth of its ``n_runs`` runs, or ``None``
        when it was saved without."""
        if "truth_bugs_json" not in self.header:
            return None
        truth = GroundTruth(bug_ids=json.loads(str(self.header["truth_bugs_json"])))
        for bugs in self._per_run("truth_runs", n_runs):
            truth.add_run(bugs)
        return truth

    @_translated
    def reports(
        self, table: Optional[PredicateTable] = None
    ) -> Tuple[ReportSet, Optional[GroundTruth]]:
        """The whole report set and its ground truth; see :func:`load_reports`.

        The statistic sections are checked (:meth:`stats`) though not
        returned: an archive whose statistics disagree with its matrices
        is refused by every whole read.  So is a header whose stacks or
        per-run metadata do not hold one entry per run, whose stacks are
        not null or a list of strings, or whose metadata is not
        ``{"seed": s}`` with ``s`` an int in ``[0, 2**63)``.  So is a
        ground truth that does not hold one entry per run.
        """
        failed, sites, preds = self.runs()
        self.stats()
        table = self.table(table)
        stacks_raw = self._per_run("stacks", len(failed))
        if not all(
            s is None or (isinstance(s, list) and all(isinstance(f, str) for f in s))
            for s in stacks_raw
        ):
            raise ValueError("archive stacks are not null or a list of frame names per run")
        stacks = [tuple(s) if s is not None else None for s in stacks_raw]
        metas = self._per_run("metas", len(failed))
        if not all(
            isinstance(meta, dict) and meta.keys() == {"seed"} and is_seed(meta["seed"])
            for meta in metas
        ):
            raise ValueError(
                'archive run metadata is not one {"seed": <int in [0, 2**63)>} per run'
            )
        seeds = [meta["seed"] for meta in metas]
        site_counts = sparse.csr_matrix(sites[:3], shape=sites[3])
        true_counts = sparse.csr_matrix(preds[:3], shape=preds[3])
        reports = ReportSet(table, failed, site_counts, true_counts, stacks, seeds)
        return reports, self.truth(len(failed))

    def _per_run(self, name: str, n_runs: int) -> list:
        """The header's ``<name>_json`` list, which must hold one entry
        for each of the ``n_runs`` runs."""
        column = json.loads(str(self.header[f"{name}_json"]))
        if not isinstance(column, list) or len(column) != n_runs:
            raise ValueError(f"archive {name}_json does not hold {n_runs} entries")
        return column

    @_translated
    def columns(
        self, predicates: np.ndarray, sites: np.ndarray
    ) -> Tuple[np.ndarray, sparse.csr_matrix, sparse.csr_matrix, Optional[GroundTruth]]:
        """The outcomes and chosen count-matrix columns.

        What ``ShardStore.load_columns`` reads of a shard: the run-level
        sections validated, and only the ``predicates`` and ``sites``
        columns kept.  The crash stacks, per-run metadata and predicate
        table in the header are never decoded.

        Args:
            predicates: Boolean mask over the predicate table's columns.
            sites: Boolean mask over its sites.

        Returns:
            ``(failed, true_counts, site_counts, truth)``.  Both matrices
            have the archive's full shape; the columns outside the masks
            are empty.

        Raises:
            ArchiveCorruptError: Also when a mask's length is not the
                archive's column count.
        """
        failed, site_sections, pred_sections = self.runs()
        for mask, (*_, shape) in ((predicates, pred_sections), (sites, site_sections)):
            if mask.shape != (shape[1],):
                raise ValueError(
                    f"column mask of shape {mask.shape} for a matrix of "
                    f"{shape[1]} columns"
                )
        return (
            failed,
            _select(pred_sections, predicates),
            _select(site_sections, sites),
            self.truth(len(failed)),
        )

    @_translated
    def site_totals(self, n_sites: int) -> np.ndarray:
        """Per-site observation totals of the archive's runs, in exact int64.

        What a restarting daemon needs of a committed shard: the column
        sums of the run-by-site matrix, taken straight from its CSR
        sections once the run-level sections are validated.  The
        predicate matrix, crash stacks, per-run metadata and ground truth
        are never built.  Equals ``load_reports(path)[0].site_coverage()``.

        Raises:
            ArchiveCorruptError: Also when the site matrix does not have
                ``n_sites`` columns or its counts are not integers.
        """
        _, (data, indices, _, shape), _ = self.runs()
        if shape[1] != n_sites:
            raise ValueError(
                f"site matrix has {shape[1]} columns for a table of {n_sites} sites"
            )
        if data.dtype.kind not in "biu":
            raise ValueError("site matrix counts are not integers")
        totals = np.zeros(n_sites, dtype=np.int64)
        np.add.at(totals, indices, data.astype(np.int64, copy=False))
        return totals


def load_reports(
    path: Union[str, Archive], table: Optional[PredicateTable] = None
) -> Tuple[ReportSet, Optional[GroundTruth]]:
    """Read a report set written by :func:`save_reports`.

    The file is memory-mapped: count matrices come back as zero-copy
    read-only views.

    Args:
        path: The archive to read, or an :class:`Archive` already open.
        table: A predicate table the caller already holds -- a shard
            store passes its own.  When the archive's recorded
            ``table_sha`` equals ``table.signature()`` the returned
            report set shares ``table`` and the embedded table JSON is
            never decoded; otherwise the embedded table is decoded as
            without it.  Callers that must reject a foreign table
            compare ``Archive.table_sha`` themselves (see
            ``ShardStore.load_merged``).

    Returns:
        ``(reports, truth)``; ``truth`` is ``None`` when the archive was
        written without ground truth.

    Raises:
        ArchiveCorruptError, ArchiveVersionError, FileNotFoundError: As
            for :class:`Archive`.
    """
    archive = path if isinstance(path, Archive) else Archive(path)
    return archive.reports(table)
