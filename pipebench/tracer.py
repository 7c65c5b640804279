"""Per-layer self-time accounting from outside the program.

The benchmark never edits the package it measures.  Instead, for the
traced run it swaps a timing wrapper in for each layer's public entry
points -- instance methods on their classes, and the module attributes
their callers resolve at call time (``repro.serve.client.encode_batch``
is what ``drain_spool`` calls, so that is the name patched) -- and
restores the originals afterwards.

Each call becomes a span on a per-thread stack.  A span's *self* time
is its duration minus the time of the spans nested in it on the same
thread, so the self times of one thread add up to the time its
top-level spans cover.  The daemon's handler threads run inside the
client's HTTP round trip; :meth:`Tracer.layer_times` moves their work
out of the round trip, leaving ``serve.transport`` as the time the
request spent in the socket and the stdlib HTTP code.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layer of the client-side HTTP round trips (POST /reports, GET /scores).
ROUND_TRIP = "serve.transport"


class Tracer:
    """Accumulates self time and call counts per layer."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Work counted at layer boundaries (bytes), keyed by metric name.
        self.totals: Dict[str, int] = defaultdict(int)
        #: Self time of spans that ran on a thread other than the one
        #: that created the tracer (the daemon's handler threads).
        self.off_thread_s = 0.0
        self._home = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` as one span of ``layer``."""
        stack = self._stack()
        frame = [0.0]  # time covered by nested spans
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            own = elapsed - frame[0]
            with self._lock:
                self.self_s[layer] += own
                self.calls[layer] += 1
                if threading.get_ident() != self._home:
                    self.off_thread_s += own

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return traced

    def patch(
        self,
        owner: object,
        attribute: str,
        layer: str,
        observe: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a traced wrapper until :meth:`restore`.

        For a method, ``owner`` is the class (the wrapper receives
        ``self`` like the original); for a function, the module whose
        global the callers look up.  ``observe`` sees each result, to
        count work such as bytes at the boundary.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        traced = self.wrap(layer, original)
        if observe is not None:
            timed = traced

            @functools.wraps(original)
            def traced(*args, **kwargs):
                result = timed(*args, **kwargs)
                observe(result)
                return result

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def layer_times(self) -> Dict[str, float]:
        """Self seconds per layer, with handler-thread work taken out of
        the client's round trips (see the module docstring)."""
        times = dict(self.self_s)
        if ROUND_TRIP in times:
            times[ROUND_TRIP] -= self.off_thread_s
        return times


def install(tracer: Tracer) -> None:
    """Patch every layer's entry points for one traced run.

    Layers are modules of the package: ``instrument`` and ``runtime``
    spans are opened by the benchmark around its own calls; the rest are
    patched here.
    """
    from repro.core import engine
    from repro.serve import client, server
    from repro.store import shards

    def count_body(result) -> None:
        body, headers = result
        tracer.totals["protocol.body_bytes"] += len(body)
        # A gzip member's trailer holds the uncompressed size (mod 2**32).
        gzipped = headers.get("Content-Encoding") == "gzip"
        wire = int.from_bytes(body[-4:], "little") if gzipped else len(body)
        tracer.totals["protocol.wire_bytes"] += wire

    def count_shard(path) -> None:
        tracer.totals["store.shard_bytes"] += os.path.getsize(path)

    patches = [
        # client: the disk spool and the drain loop around it.
        (client.ReportSpool, "save", "client.spool_save", None),
        (client.ReportSpool, "pending_seeds", "client.spool_list", None),
        (client.ReportSpool, "load", "client.spool_load", None),
        (client.ReportSpool, "remove", "client.spool_remove", None),
        (client, "drain_spool", "client.drain", None),
        # protocol: what drain_spool and the daemon call by module name.
        (client, "encode_batch", "protocol.encode", count_body),
        (server, "decode_body", "protocol.decode", None),
        (server, "validate_payload", "protocol.validate", None),
        (client, "_post", ROUND_TRIP, None),
        # serve: ingest (self time = WAL + batcher), restart, steering, scores.
        (server.CollectionService, "ingest_body", "serve.ingest", None),
        (server.CollectionService, "__init__", "serve.restart", None),
        (server.CollectionService, "flush", "serve.flush", None),
        (server.CollectionService, "scores_payload", "serve.scores", None),
        (server, "fit_steering", "serve.refit", None),
        # store: the write side and the read side.
        (shards.ShardStore, "append_shard", "store.commit", count_shard),
        (shards.ShardStore, "sufficient_stats", "store.stream_stats", None),
        (engine.AnalysisEngine, "store_stats", "store.stream_stats", None),
        (shards.ShardStore, "load_merged", "store.load_merged", None),
        (shards, "load_reports", "store.decode", None),
        (shards.ShardStore, "audit", "store.audit", None),
        # core: scoring/pruning, elimination, and the analyze glue.
        (engine.AnalysisEngine, "score_stats", "core.score", None),
        (engine, "eliminate", "core.eliminate", None),
        (engine.AnalysisEngine, "analyze_store", "core.analyze", None),
    ]
    for owner, attribute, layer, observe in patches:
        tracer.patch(owner, attribute, layer, observe)
