"""Where federated shards come from: local store directories or daemons.

A :class:`StoreSource` answers exactly two questions -- "what committed
shards do you hold?" (:meth:`~StoreSource.manifest`) and "give me that
shard's bytes" (:meth:`~StoreSource.fetch`) -- which is all the
pull-based sync in :mod:`repro.federate.merge` needs.  Two transports:

* :class:`LocalSource` reads another store directory on the same
  filesystem (``repro-cbi federate src-store/ ... dest-store/``);
* :class:`HTTPSource` talks to a live collection daemon's federation
  endpoints (``GET /manifest`` and ``GET /shards/<filename>``, see
  :mod:`repro.serve.server`), so a merge node can drain daemons it has
  no disk access to.

Both are read-only: federation never mutates a source.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request

from repro.federate.errors import FederationError, FederationFetchError
from repro.store.manifest import ShardEntry, ShardManifest
from repro.store.shards import MANIFEST_NAME

#: Schema tag of the ``GET /manifest`` response document.
MANIFEST_SCHEMA = "repro-federate/v1"


class StoreSource:
    """One read-only source of committed shards.

    Attributes:
        label: Stable identity string (path or URL).  Used for
            deterministic dedup ordering and recorded as provenance in
            the destination manifest, so it must not depend on the
            order sources were passed in.
    """

    label: str

    def manifest(self) -> ShardManifest:
        """The source's current membership record."""
        raise NotImplementedError

    def fetch(self, entry: ShardEntry) -> bytes:
        """The raw committed bytes of one shard.

        Raises:
            FederationFetchError: The shard could not be read; carries
                a ``reason`` the skip record uses (``missing-file`` when
                the source no longer has the file, ``fetch-error`` for
                transport failures).
        """
        raise NotImplementedError


class LocalSource(StoreSource):
    """A shard-store directory on the local filesystem."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.label = os.path.abspath(directory)

    def manifest(self) -> ShardManifest:
        path = os.path.join(self.directory, MANIFEST_NAME)
        if not os.path.exists(path):
            raise FederationError(
                f"{self.directory} has no {MANIFEST_NAME}; not a shard store"
            )
        return ShardManifest.load(path)

    def fetch(self, entry: ShardEntry) -> bytes:
        path = os.path.join(self.directory, entry.filename)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError as exc:
            raise FederationFetchError(
                self.label, entry.filename, "file is missing at the source",
                reason="missing-file",
            ) from exc
        except OSError as exc:
            raise FederationFetchError(
                self.label, entry.filename, str(exc)
            ) from exc

    def __repr__(self) -> str:
        return f"LocalSource({self.directory!r})"


class HTTPSource(StoreSource):
    """A live collection daemon's federation endpoints."""

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.label = self.url
        self.timeout = timeout

    def manifest(self) -> ShardManifest:
        try:
            with urllib.request.urlopen(
                f"{self.url}/manifest", timeout=self.timeout
            ) as response:
                document = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise FederationError(
                f"cannot read manifest from {self.url}: {exc}"
            ) from exc
        schema = document.get("schema") if isinstance(document, dict) else None
        if schema != MANIFEST_SCHEMA or "manifest" not in document:
            raise FederationError(
                f"{self.url}/manifest answered no {MANIFEST_SCHEMA} document"
            )
        return ShardManifest.from_json(document["manifest"])

    def fetch(self, entry: ShardEntry) -> bytes:
        try:
            with urllib.request.urlopen(
                f"{self.url}/shards/{entry.filename}", timeout=self.timeout
            ) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            reason = "missing-file" if exc.code in (404, 410) else "fetch-error"
            raise FederationFetchError(
                self.label, entry.filename, f"HTTP {exc.code}", reason=reason
            ) from exc
        except (urllib.error.URLError, OSError) as exc:
            raise FederationFetchError(
                self.label, entry.filename, str(exc)
            ) from exc

    def __repr__(self) -> str:
        return f"HTTPSource({self.url!r})"


def open_source(spec: str, timeout: float = 10.0) -> StoreSource:
    """A source for a CLI spec: a daemon URL or a store directory."""
    if spec.startswith("http://") or spec.startswith("https://"):
        return HTTPSource(spec, timeout=timeout)
    return LocalSource(spec)
