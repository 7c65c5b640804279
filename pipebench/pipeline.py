"""The canonical pipeline benchmark: workloads, set-up, rounds and checks.

One round drives a subject through the whole stack with the public
API, the way the CLI composes it::

    instrument -> seeded trials -> client spool -> HTTP drain to an
    in-process daemon -> WAL/batcher -> shard commit -> then READS
    times: daemon restart over the committed store -> GET /scores for
    every measure -> audit + analyze_store with elimination

The daemon runs at the ``repro-cbi serve`` defaults (``--batch-runs
200``, steering on, refit every 100 runs) and the client at the
``repro-cbi submit`` default ``--batch-size 32``.  Load is a closed loop
from one process: one spooling client with one batch in flight, and
the daemon's handler thread as the second busy thread.

Three workloads size the round so that a different layer does most of
the work (see :data:`WORKLOADS`).  Every round is checked -- counts
against the benchmark's own tally of its trials, the ranking against
ground truth, repeated reads against the first -- and a mismatch
counts as a failed operation and makes the run incorrect.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import statistics
import threading
import time
import traceback
import urllib.request
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import measures
from repro.core.elimination import DiscardStrategy
from repro.core.engine import AnalysisEngine
from repro.core.truth import cooccurrence_table, dominant_bug
from repro.harness.parallel import run_trials_sharded
from repro.harness.runner import run_one_trial
from repro.harness.tables import format_predictor_table
from repro.instrument.sampling import SamplingPlan
from repro.serve import client as serve_client
from repro.serve.protocol import RunReport
from repro.serve.server import CollectionService, FeedbackServer
from repro.store import ShardStore
from repro.subjects import base as subject_base
from repro.subjects.ccrypt import CcryptSubject
from repro.subjects.exif import ExifSubject
from repro.subjects.moss import MossSubject

from tracer import ROUND_TRIP, Tracer, install

#: ``repro-cbi serve`` defaults: seeds per committed shard, steering
#: refit period.  ``repro-cbi submit --batch-size`` and ``analyze --top``
#: defaults.
BATCH_RUNS = 200
REFIT_RUNS = 100
CLIENT_BATCH = 32
TOP = 15

#: Seconds one :func:`calibration_sample` takes at the reference machine
#: speed; every reported time is scaled to that speed.
CALIBRATION_REF_S = 0.020

#: Longest gap between two speed samples while measuring.
CALIBRATION_INTERVAL_S = 0.5

#: Reads (restart, every measure's scores, rank) per round: the
#: read-side latencies need more samples than rounds give.
READS = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        subject: Subject class.
        rate: Uniform sampling rate (1.0 = full sampling).
        round_trials: Trials a round carries through the write phase
            (0: rounds only read a store built during set-up).
        setup_trials: Trials a set-up uploads through the daemon: a
            one-batch warm-up of the pipeline, or the tail of the
            set-up store.
        bulk_runs: Runs a set-up collects locally (two forked workers,
            as ``repro-cbi collect --jobs 2``) before its upload.
        setups: Set-ups per run; ``setup_s`` is their median.
        traced_rounds: Rounds in the traced phase (fixed work, so the
            per-layer totals compare across runs).
    """

    subject: type
    rate: float
    round_trials: int
    setup_trials: int
    bulk_runs: int
    setups: int
    traced_rounds: int


#: Why each workload exists and which layer it stresses is recorded in
#: BENCHMARK.json; the sizes below are what make that layer dominate.
WORKLOADS: Dict[str, Workload] = {
    # Full-sampling ccrypt: trials are cheap and reports large, so the
    # client spool, protocol encode/decode, ingest + WAL and shard
    # commits carry most of the wall.  Two full shards per round.
    "ingest-ccrypt": Workload(
        CcryptSubject, 1.0, round_trials=400, setup_trials=CLIENT_BATCH,
        bulk_runs=0, setups=3, traced_rounds=2,
    ),
    # moss at the paper's uniform 1/100: small reports, expensive
    # trials, so instrumented execution dominates.  Carries the paper's
    # overhead ratio (plain runs are interleaved per input).
    "trials-moss": Workload(
        MossSubject, 0.01, round_trials=3 * CLIENT_BATCH, setup_trials=CLIENT_BATCH,
        bulk_runs=0, setups=3, traced_rounds=1,
    ),
    # A large full-sampling exif store is built in set-up; rounds only
    # restart the daemon over it, fetch /scores and rank, so store reads
    # and core scoring do the work and ingest/runtime are bypassed.
    "rank-exif": Workload(
        ExifSubject, 1.0, round_trials=0, setup_trials=6 * CLIENT_BATCH,
        bulk_runs=704, setups=2, traced_rounds=10,
    ),
}


def calibration_sample() -> float:
    """Time a fixed CPU workload that shares no code with the package.

    A shared host's speed changes by up to 2x within seconds.  Samples
    taken between the pipeline's steps measure that speed, so each
    reported time is scaled to a reference speed by the samples taken
    around it, and stays comparable across runs and commits.
    """
    start = time.perf_counter()
    # Interpreter work, C library work, and a 16 MB pass through memory:
    # the pipeline's slowdowns come from all three.
    table: Dict[int, int] = {}
    for i in range(60_000):
        key = i % 997
        table[key] = table.get(key, 0) + i * 7 % 13
    zlib.compress(json.dumps(table, sort_keys=True).encode() * 16, 6)
    float(np.full(1 << 21, 1.0001).sum())
    return time.perf_counter() - start


def pair_scale(before: float, after: float) -> float:
    """Scale for a short step between two speed samples (their mean slowdown)."""
    return 2.0 / (1.0 / before + 1.0 / after)


def run_plain(subject, entry, seed: int):
    """One trial of the uninstrumented program: ``(failed, bugs)``.

    Mirrors ``run_one_trial`` minus the sampler, so the time ratio of
    the two is the instrumentation overhead on an identical input.
    """
    # The same input RNG seeding as ``run_one_trial``.
    program_input = subject.generate_input(random.Random(seed * 2654435761 % (2 ** 31)))
    subject_base.begin_truth_capture()
    try:
        output = entry(program_input)
    except Exception:
        failed = True
    else:
        failed = not subject.oracle(program_input, output)
    return failed, subject_base.end_truth_capture()


def expected_counts(records, table) -> tuple:
    """The six sufficient statistics of ``records``, counted directly.

    Written from the definitions (a predicate is observed in a run when
    its site was reached; true when it was observed true at least once),
    independently of ``ReportBuilder`` and ``sufficient_counts``.
    """
    site_of = np.array([p.site_index for p in table.predicates], dtype=np.int64)
    F, S, F_obs, S_obs = (np.zeros(table.n_predicates, np.int64) for _ in range(4))
    num_failing = num_successful = 0
    for failed, site_obs, pred_true in records:
        reached = np.zeros(table.n_sites, dtype=bool)
        reached[[s for s, c in site_obs.items() if c > 0]] = True
        observed = reached[site_of]
        true = [p for p, c in pred_true.items() if c > 0]
        if failed:
            F[true] += 1
            F_obs += observed
            num_failing += 1
        else:
            S[true] += 1
            S_obs += observed
            num_successful += 1
    return F, S, F_obs, S_obs, num_failing, num_successful


def tail(values: List[float]):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``; with fewer than 11 samples no
    percentile qualifies and the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


@dataclass
class Samples:
    """Measurements of one run phase (untraced rounds, or the traced phase)."""

    #: Round walls at the reference speed.
    round_wall: List[float] = field(default_factory=list)
    round_runs: List[int] = field(default_factory=list)
    batch_ms: List[float] = field(default_factory=list)
    restart_ms: List[float] = field(default_factory=list)
    scores_ms: List[float] = field(default_factory=list)
    rank_ms: List[float] = field(default_factory=list)
    acked: int = 0
    retries: int = 0
    drain_s: float = 0.0
    #: Instrumented / plain time of each input, run back to back.
    overhead: List[float] = field(default_factory=list)
    plain_s: float = 0.0
    calibration_s: float = 0.0
    trials: int = 0
    observations: int = 0

    @property
    def excluded_s(self) -> float:
        """Time spent on the benchmark's own measurements (plain runs and
        speed samples), left out of set-up and round walls."""
        return self.plain_s + self.calibration_s


@dataclass
class Tally:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def guard(self, fn: Callable, *args) -> None:
        """Run one set-up or round; an exception is a failed operation.

        The run goes on, so a damaged store shows as a failure ratio
        instead of a crash.
        """
        try:
            fn(*args)
        except Exception as exc:  # the run's boundary: record and go on
            self.attempted += 1
            self.failed += 1
            self.problems.append("".join(traceback.format_exception_only(type(exc), exc)).strip())


class Closer:
    """Stops daemons off the timed path.

    ``FeedbackServer.close`` waits for ``serve_forever``'s half-second
    poll to notice the shutdown; that wait is socketserver's, not the
    pipeline's, so it runs on a side thread and is joined at the end.
    Reports are flushed before a daemon is handed over here.
    """

    def __init__(self) -> None:
        self._threads: List[threading.Thread] = []

    def close(self, server: FeedbackServer) -> None:
        thread = threading.Thread(target=server.close, kwargs={"drain": False})
        thread.start()
        self._threads = [t for t in self._threads if t.is_alive()] + [thread]

    def join(self) -> None:
        for thread in self._threads:
            thread.join(timeout=30)
            if thread.is_alive():
                raise RuntimeError("a daemon did not shut down within 30 s")
        self._threads = []


class Run:
    """One benchmark invocation of one workload."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.workload = WORKLOADS[name]
        self.subject = self.workload.subject()
        self.base = seed * 1_000_000
        self.workdir = workdir
        self.plan = (
            SamplingPlan.full()
            if self.workload.rate >= 1.0
            else SamplingPlan.uniform(self.workload.rate)
        )
        namespace = {"__name__": f"plain_{self.subject.name}"}
        exec(compile(self.subject.source(), f"<plain {self.subject.name}>", "exec"), namespace)
        self.plain_entry = namespace[self.subject.entry]
        self.tally = Tally()
        self.closer = Closer()
        self.tracer: Optional[Tracer] = None
        self.setup_s: List[float] = []
        #: Write-side samples of the set-ups (rank-exif's only uploads).
        self.setup_writes = Samples()
        self.store_dir: Optional[str] = None
        self.reference: Optional[tuple] = None
        self.last_analysis = None
        self.sites = 0
        self.calibration: List[float] = []
        #: Reference seconds per measured second, from the latest sample.
        self.scale = 1.0
        self._calibrated_at = -math.inf
        self._dirs = 0

    # -- helpers ----------------------------------------------------------
    def span(self, layer: str, fn: Callable, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(layer, fn, *args, **kwargs)

    def calibrate(self, samples: Samples, force: bool = False) -> float:
        """Take a speed sample if the last one is older than
        :data:`CALIBRATION_INTERVAL_S` (always with ``force``).

        Returns the current scale.
        """
        if force or time.perf_counter() - self._calibrated_at >= CALIBRATION_INTERVAL_S:
            sample = calibration_sample()
            self.calibration.append(sample)
            samples.calibration_s += sample
            self.scale = CALIBRATION_REF_S / sample
            self._calibrated_at = time.perf_counter()
        return self.scale

    def scale_since(self, first: int) -> float:
        """Scale for a span that began at calibration sample ``first``.

        The samples are spread over the span, so their mean slowdown is
        the span's.
        """
        taken = self.calibration[first:]
        return CALIBRATION_REF_S / statistics.fmean(taken) if taken else self.scale

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"{label}-{self._dirs:04d}")

    def instrument(self):
        program = self.span("instrument", self.subject.build_program)
        self.sites = program.table.n_sites
        return program

    def start_daemon(self, store_dir: str, program):
        """``repro-cbi serve STORE`` at its defaults, in process.

        Returns the started server and the seconds its
        ``CollectionService`` took to open over the store.
        """

        def construct():
            store = ShardStore.open_or_create(
                store_dir, self.subject.name, program.table, self.plan
            )
            return CollectionService(
                store,
                self.subject,
                batch_runs=BATCH_RUNS,
                steering=True,
                refit_runs=REFIT_RUNS,
            )

        start = time.perf_counter()
        service = self.span("serve.restart", construct)
        elapsed = time.perf_counter() - start
        server = self.span("serve.start", lambda: FeedbackServer(service).start())
        return server, elapsed

    # -- the write phase ----------------------------------------------------
    def write_phase(self, server: FeedbackServer, program, seeds, samples: Samples) -> list:
        """Run, spool and upload ``seeds`` batch by batch (closed loop).

        Each input also runs uninstrumented right before its trial;
        outcomes and recorded bugs must agree.  Returns the trial
        records for the count check.
        """
        entry = program.func(self.subject.entry)
        table_sha = program.table.signature()
        spool = serve_client.ReportSpool(self.fresh_dir("spool"))
        records = []
        accepted: List[int] = []
        mismatches = 0
        for lo in range(0, len(seeds), CLIENT_BATCH):
            for seed in seeds[lo:lo + CLIENT_BATCH]:
                self.calibrate(samples)
                start = time.perf_counter()
                plain = self.span("runtime.plain", run_plain, self.subject, self.plain_entry, seed)
                middle = time.perf_counter()
                failed, site_obs, pred_true, stack, bugs = self.span(
                    "runtime.trial", run_one_trial, self.subject, program, entry, self.plan, seed
                )
                samples.plain_s += middle - start
                samples.overhead.append((time.perf_counter() - middle) / (middle - start))
                samples.trials += 1
                samples.observations += sum(site_obs.values())
                mismatches += plain != (failed, bugs)
                spool.save(
                    RunReport(
                        seed=seed,
                        failed=failed,
                        site_obs=dict(site_obs),
                        pred_true=dict(pred_true),
                        stack=tuple(stack) if stack is not None else None,
                        bugs=tuple(bugs),
                    )
                )
                records.append((failed, site_obs, pred_true))
            before = self.calibrate(samples, force=True)
            start = time.perf_counter()
            report = serve_client.drain_spool(
                spool,
                server.url,
                self.subject.name,
                table_sha,
                batch_size=CLIENT_BATCH,
                max_batches=1,
            )
            elapsed = time.perf_counter() - start
            elapsed *= pair_scale(before, self.calibrate(samples, force=True))
            samples.batch_ms.append(elapsed * 1000.0)
            samples.drain_s += elapsed
            samples.acked += len(report.accepted)
            samples.retries += report.retries
            accepted.extend(report.accepted)
            self.tally.check(
                report.retries == 0 and not report.rejected and not report.duplicate,
                f"upload batch at seed {seeds[lo]}: {report.retries} retries, "
                f"{len(report.rejected)} rejected, {len(report.duplicate)} duplicate",
            )
        # What the daemon's graceful shutdown does first: commit the tail.
        server.service.flush()
        self.closer.close(server)
        self.tally.attempted += len(seeds)
        if mismatches:
            self.tally.failed += mismatches
            self.tally.problems.append(
                f"{mismatches} inputs behaved differently instrumented and plain"
            )
        self.tally.check(
            sorted(accepted) == list(seeds), "acked seeds differ from the seeds run"
        )
        return records

    # -- the read phase -----------------------------------------------------
    def read_phase(self, store_dir: str, program, samples: Samples) -> list:
        """:data:`READS` times: restart over the store, fetch every
        measure's scores, then rank.  Returns one tuple per read."""
        reads = []
        scale = self.calibrate(samples, force=True)
        for _ in range(READS):
            server, restart_s = self.start_daemon(store_dir, program)
            after = self.calibrate(samples, force=True)
            samples.restart_ms.append(restart_s * 1000.0 * pair_scale(scale, after))
            scale = after

            payloads, elapsed = [], []
            for measure in measures.available():
                url = f"{server.url}/scores?measure={measure}"
                start = time.perf_counter()
                payloads.append(self.span(ROUND_TRIP, _get, url))
                elapsed.append(time.perf_counter() - start)
            self.closer.close(server)
            after = self.calibrate(samples, force=True)
            samples.scores_ms.extend(t * 1000.0 * pair_scale(scale, after) for t in elapsed)
            scale = after

            start = time.perf_counter()
            store = self.span("store.open", ShardStore.open, store_dir)
            audit = store.audit()
            analysis = AnalysisEngine(jobs=1).analyze_store(
                store, strategy=DiscardStrategy(1), max_predictors=TOP
            )
            ranking = self.span("core.report", _predictor_table, analysis)
            elapsed = time.perf_counter() - start
            after = self.calibrate(samples, force=True)
            samples.rank_ms.append(elapsed * 1000.0 * pair_scale(scale, after))
            scale = after
            reads.append((audit, analysis, ranking, payloads))
        self.last_analysis = reads[-1][1]
        return reads

    # -- set-up and rounds ------------------------------------------------
    def setup(self, samples: Samples, tracer: Optional[Tracer] = None) -> float:
        """Build the store the rounds need and warm the pipeline up.

        Every set-up runs the same pipeline as a round over its own
        store: a one-batch warm-up for the pipeline workloads, or the
        daemon-uploaded tail of rank-exif's store after its local bulk
        collection.  With ``tracer``, tracing starts after the bulk
        collection.  Returns the wall of the traced part.
        """
        workload = self.workload
        first_sample = len(self.calibration)
        self.calibrate(samples, force=True)
        excluded_before = samples.excluded_s
        start = time.perf_counter()
        store_dir = self.fresh_dir("store")
        first = self.base + workload.bulk_runs
        seeds = list(range(first, first + workload.setup_trials))
        if workload.bulk_runs:
            run_trials_sharded(
                self.subject, workload.bulk_runs, self.plan, store_dir,
                seed=self.base, jobs=2, chunk_size=BATCH_RUNS,
            )
        if tracer is not None:
            install(tracer)
            self.tracer = tracer
        pipeline_start = time.perf_counter()
        calibration_before = samples.calibration_s
        program = self.instrument()
        server, _ = self.start_daemon(store_dir, program)
        records = self.write_phase(server, program, seeds, samples)
        reads = self.read_phase(store_dir, program, samples)
        end = time.perf_counter()
        if tracer is None:
            net = end - start - (samples.excluded_s - excluded_before)
            self.setup_s.append(net * self.scale_since(first_sample))
        for read in reads:
            self.check_read(
                read, expected_runs=workload.bulk_runs + len(seeds), truth=bool(workload.bulk_runs)
            )
        if workload.bulk_runs:
            self.store_dir = store_dir
        else:
            self.check_counts(reads[0][1], records, program.table)
        self.check_identical(reads)
        return end - pipeline_start - (samples.calibration_s - calibration_before)

    def round(self, index: int, samples: Samples) -> float:
        """One timed round; checks run after the clock stops.

        Returns the round's wall less its speed samples, for the traced
        wall; the recorded ``round_wall`` also leaves out the plain runs,
        which are not pipeline work.
        """
        workload = self.workload
        gc.collect()  # start every round from the same heap, not the last round's garbage
        first_sample = len(self.calibration)
        self.calibrate(samples, force=True)
        excluded_before = samples.excluded_s
        calibration_before = samples.calibration_s
        start = time.perf_counter()
        program = self.instrument()
        records = None
        if workload.round_trials:
            store_dir = self.fresh_dir("store")
            first = self.base + 1000 + index * workload.round_trials
            seeds = list(range(first, first + workload.round_trials))
            server, _ = self.start_daemon(store_dir, program)
            records = self.write_phase(server, program, seeds, samples)
            runs = len(seeds)
        else:
            store_dir = self.store_dir
            runs = workload.bulk_runs + workload.setup_trials
        reads = self.read_phase(store_dir, program, samples)
        wall = time.perf_counter() - start
        net = wall - (samples.excluded_s - excluded_before)
        samples.round_wall.append(net * self.scale_since(first_sample))
        samples.round_runs.append(runs)
        for read in reads:
            self.check_read(read, expected_runs=runs)
        if records is not None:
            self.check_counts(reads[0][1], records, program.table)
        self.check_identical(reads)
        return wall - (samples.calibration_s - calibration_before)

    def trace(self, samples: Samples) -> tuple:
        """The traced phase: one set-up's pipeline work plus fixed rounds.

        Fixed work, so per-layer totals compare across runs and commits.
        Returns the tracer and the traced wall.
        """
        tracer = Tracer()
        try:
            wall = self.setup(samples, tracer)
            for index in range(self.workload.traced_rounds):
                wall += self.round(10_000 + index, samples)
        finally:
            self.tracer = None
            tracer.restore()
        return tracer, wall

    # -- checks -------------------------------------------------------------
    def check_read(self, read, expected_runs: int, truth: bool = True) -> None:
        """Checks every read must pass.

        ``truth`` grades the ranking against ground truth; a one-batch
        warm-up store is too small for elimination to mean anything.
        """
        audit, analysis, _, payloads = read
        self.tally.check(audit.clean, f"audit not clean: {audit.quarantined!r}")
        if truth:
            # A bug predictor by co-occurrence: true in failing runs in
            # which a ground-truth bug occurred.  Stricter grades (one
            # bug's profile covered) do not hold for moss at 1/100 with
            # a round's few hundred runs.
            selected = analysis.elimination.selected
            spike = (
                dominant_bug(analysis.reports, analysis.truth, selected[0].predicate.index)
                if selected and analysis.truth is not None
                else None
            )
            self.tally.check(
                spike is not None,
                "first eliminated predictor co-occurs with no ground-truth bug",
            )
        runs = [json.loads(body)["n_runs"] for body in payloads]
        self.tally.check(
            runs == [expected_runs] * len(runs),
            f"/scores n_runs {runs} != {expected_runs} committed runs",
        )

    def check_counts(self, analysis, records, table) -> None:
        """The committed store's streamed counts equal the trials' own."""
        stats = analysis.stats
        got = (stats.F, stats.S, stats.F_obs, stats.S_obs, stats.num_failing, stats.num_successful)
        want = expected_counts(records, table)
        self.tally.check(
            all(np.array_equal(a, b) for a, b in zip(got, want)),
            "streamed store counts differ from the trial records",
        )

    def check_identical(self, reads) -> None:
        """Every read of an unchanged store ranks and scores identically.

        A round's reads match its first; rank-exif's reads, all of one
        store, match the run's first.
        """
        reference = self.reference if self.workload.bulk_runs else None
        for _, _, ranking, payloads in reads:
            fingerprint = (ranking, tuple(payloads))
            if reference is None:
                reference = fingerprint
            self.tally.check(
                fingerprint == reference,
                "ranking or /scores payload differs from the first read's",
            )
        if self.workload.bulk_runs:
            self.reference = reference

    def close(self) -> None:
        self.closer.join()


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def _predictor_table(analysis) -> str:
    """``repro-cbi analyze STORE``'s predictor table (ground-truth columns)."""
    elimination = analysis.elimination
    truth = analysis.truth
    co = None
    bug_ids = None
    if truth is not None and truth.bug_ids:
        bug_ids = list(truth.bug_ids)
        co = cooccurrence_table(
            analysis.reports, truth, [s.predicate.index for s in elimination.selected]
        )
    return format_predictor_table(elimination, co, bug_ids=bug_ids)


def median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def ratio(num: float, den: float) -> float:
    return num / den if den else math.nan
