"""``repro-cbi bench``: the standardized perf scenarios and their schema.

Running the bench appends one *entry* to each of two append-only JSON
documents at the repo root (or ``--out-dir``):

* ``BENCH_collection.json`` -- collection-side scenarios: instrumented
  trial throughput (runs/sec) for every registered subject, the raw
  per-observation sampler cost at a near-zero rate (``sampler_overhead``:
  the no-op floor of the inlined countdown, in ns per observation), the
  supervised sharded collector's end-to-end throughput
  including its disk commits, and the networked ingestion path's
  reports/sec and MB/s through ``POST /reports`` at upload batch sizes
  1/32/256 (``serve_ingest``), plus the subject factory's whole-package
  instrumentation wall and sites/sec (``factory_instrument``) and the
  resulting subject's trial throughput
  (``factory_collection_throughput``);
* ``BENCH_analysis.json`` -- analysis-side scenarios: streaming-merge
  bandwidth (MB/s over the shard bytes), end-to-end scoring
  latency (streamed sufficient statistics -> scores -> pruning) at
  three store sizes, per-measure scoring walls at the same sizes
  (``bakeoff``), plus scoring latency at factory-package predicate
  counts (``factory_scoring``).

Both documents share schema :data:`BENCH_SCHEMA` (``repro-bench/v1``),
documented with a worked example in ``docs/OBSERVABILITY.md``; the
validator here is the single source of truth, and
``python -m repro.obs.bench --check`` gates CI on emitted files *and*
on the documented example staying valid (so code and docs cannot
drift apart silently).

Every future PR that touches a hot path re-runs the bench and appends a
labelled entry, growing the measured perf trajectory in-repo.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

#: Schema tag shared by both BENCH documents.
BENCH_SCHEMA = "repro-bench/v1"

#: Canonical file names at the trajectory root.
COLLECTION_FILE = "BENCH_collection.json"
ANALYSIS_FILE = "BENCH_analysis.json"

#: Baseline trial counts (full mode); ``--quick`` uses the small set.
_FULL_THROUGHPUT_RUNS = 300
_QUICK_THROUGHPUT_RUNS = 40
_FULL_STORE_RUNS = (300, 600, 1200)
_QUICK_STORE_RUNS = (60, 120, 240)

#: Floor on scaled trial counts so scenarios stay statistically non-empty.
_MIN_RUNS = 10


class BenchSchemaError(ValueError):
    """A BENCH document does not conform to ``repro-bench/v1``."""


def environment_info() -> dict:
    """The environment block stamped into every bench entry."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }


def _scaled(base: int, scale: float) -> int:
    return max(int(base * scale), _MIN_RUNS)


def _scenario(name: str, params: dict, metrics: Dict[str, float], subject: Optional[str] = None) -> dict:
    entry = {"name": name, "params": params, "metrics": metrics}
    if subject is not None:
        entry["subject"] = subject
    return entry


# ----------------------------------------------------------------------
# Scenario runners
# ----------------------------------------------------------------------
def run_collection_scenarios(quick: bool, scale: float = 1.0) -> List[dict]:
    """Collection throughput: instrumented runs/sec per subject."""
    from repro.cli import SUBJECTS
    from repro.harness.parallel import run_trials_sharded
    from repro.harness.runner import run_trials
    from repro.instrument.sampling import SamplingPlan

    n_runs = _scaled(
        _QUICK_THROUGHPUT_RUNS if quick else _FULL_THROUGHPUT_RUNS, scale
    )
    plan = SamplingPlan.uniform(0.01)
    scenarios: List[dict] = []
    # Builtin subjects only: this per-subject trajectory predates the
    # factory and must stay comparable release over release.  The factory
    # path gets its own scenarios below.
    for name in sorted(SUBJECTS):
        subject = SUBJECTS[name]()
        if subject.kind != "builtin":
            continue
        program = subject.build_program()
        start = time.perf_counter()
        reports, _ = run_trials(subject, program, n_runs, plan, seed=0)
        wall = time.perf_counter() - start
        scenarios.append(
            _scenario(
                "collection_throughput",
                {"runs": n_runs, "sampling": "uniform", "rate": 0.01},
                {
                    "wall_seconds": wall,
                    "runs_per_sec": reports.n_runs / max(wall, 1e-9),
                },
                subject=name,
            )
        )

    # Raw per-observation sampler cost at a near-zero sampling rate: the
    # "not sampled" case is the one paid millions of times per deployed
    # run, so this measures the no-op floor of the inlined countdown
    # decrement.
    from repro.core.predicates import PredicateTable, Scheme
    from repro.instrument.runtime import Runtime

    n_obs = _scaled(20_000 if quick else 200_000, scale)
    table = PredicateTable()
    site = table.add_site(Scheme.BRANCHES, "bench", 1, "x")
    runtime = Runtime(table)
    runtime.begin_run(SamplingPlan.uniform(1e-6), seed=0)
    branch = runtime.branch
    index = site.index
    start = time.perf_counter()
    for _ in range(n_obs):
        branch(index, True)
    wall = time.perf_counter() - start
    runtime.end_run()
    scenarios.append(
        _scenario(
            "sampler_overhead",
            {"observations": n_obs, "sampling": "uniform", "rate": 1e-6},
            {"fast_ns_per_obs": wall / n_obs * 1e9},
        )
    )

    # The supervised sharded collector, including its fsync'd commits.
    subject = SUBJECTS["ccrypt"]()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        store_dir = os.path.join(tmp, "store")
        start = time.perf_counter()
        store = run_trials_sharded(
            subject,
            n_runs,
            plan,
            store_dir,
            seed=0,
            jobs=2,
            chunk_size=max(n_runs // 4, 5),
        )
        wall = time.perf_counter() - start
        scenarios.append(
            _scenario(
                "sharded_collection_throughput",
                {
                    "runs": n_runs,
                    "jobs": 2,
                    "chunk_size": max(n_runs // 4, 5),
                    "sampling": "uniform",
                    "rate": 0.01,
                },
                {
                    "wall_seconds": wall,
                    "runs_per_sec": store.n_runs / max(wall, 1e-9),
                },
                subject="ccrypt",
            )
        )

    # The HTTP ingestion path (repro.serve): spool one population, then
    # drain copies of it through an in-process FeedbackServer at several
    # batch sizes.  Walls include validation, the fsync'd ack WAL and
    # the store commits, i.e. the full durability cost of the service.
    from repro.serve import (
        CollectionService,
        FeedbackServer,
        ReportSpool,
        drain_spool,
        run_and_spool,
    )
    from repro.store import ShardStore

    subject = SUBJECTS["ccrypt"]()
    program = subject.build_program()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        source = ReportSpool(os.path.join(tmp, "spool-source"))
        run_and_spool(subject, program, plan, source, n_runs, seed=0)
        for batch_size in (1, 32, 256):
            store = ShardStore.open_or_create(
                os.path.join(tmp, f"serve-{batch_size}"),
                subject.name,
                program.table,
                plan,
            )
            service = CollectionService(
                store, subject, batch_runs=max(n_runs // 4, 5)
            )
            server = FeedbackServer(service, port=0).start()
            spool = ReportSpool(os.path.join(tmp, f"spool-{batch_size}"))
            for seed in source.pending_seeds():
                spool.save(source.load(seed))
            start = time.perf_counter()
            drain_spool(
                spool,
                server.url,
                subject.name,
                program.table.signature(),
                batch_size=batch_size,
            )
            server.close(drain=True)
            wall = time.perf_counter() - start
            received = service.metrics.counter("serve.bytes_received")
            scenarios.append(
                _scenario(
                    "serve_ingest",
                    {"runs": n_runs, "batch_size": batch_size},
                    {
                        "wall_seconds": wall,
                        "reports_per_sec": n_runs / max(wall, 1e-9),
                        "mb_per_sec": received / 1e6 / max(wall, 1e-9),
                    },
                    subject="ccrypt",
                )
            )

    # Store-to-store federation (repro.federate): collect three
    # daemon-style stores over disjoint seed thirds, then merge them.
    # The wall covers the whole pull pipeline -- manifest diff, fetch,
    # checksum + parse verification, and the crash-safe commits.
    from repro.federate import LocalSource, federate_stores

    n_fed = 30 if quick else _scaled(60, scale)
    per_store = max(n_fed // 3, 5)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        sources = []
        for i in range(3):
            directory = os.path.join(tmp, f"fed-src-{i}")
            run_trials_sharded(
                subject,
                per_store,
                plan,
                directory,
                seed=i * per_store,
                jobs=2,
                chunk_size=max(per_store // 2, 5),
            )
            sources.append(LocalSource(directory))
        dest = ShardStore.create_like(
            os.path.join(tmp, "fed-merged"), sources[0].manifest()
        )
        start = time.perf_counter()
        report = federate_stores(sources, dest)
        wall = time.perf_counter() - start
        scenarios.append(
            _scenario(
                "federate",
                {
                    "sources": 3,
                    "runs": 3 * per_store,
                    "shards": len(report.pulled),
                },
                {
                    "wall_seconds": wall,
                    "shards_per_sec": len(report.pulled) / max(wall, 1e-9),
                    "runs_per_sec": report.runs_merged / max(wall, 1e-9),
                    "mb_per_sec": report.bytes_pulled / 1e6 / max(wall, 1e-9),
                },
                subject="ccrypt",
            )
        )

    # Closed-loop steering payoff: the Table 8 "runs to isolate every
    # bug" question answered at an equal trial budget under uniform
    # 1/100 sampling vs. the steered closed loop (the EXPERIMENTS.md
    # "before vs. after steering" table; this re-measures the ccrypt
    # row).  An unconverged population reports the full budget -- it
    # needed more runs than were collected.
    from repro.harness.steering_eval import steering_payoff

    n_steer = 300 if quick else _scaled(2000, scale)
    refit = max(n_steer // 10, 50)
    start = time.perf_counter()
    payoff = steering_payoff(subject, n_steer, seed=0, refit_runs=refit)
    wall = time.perf_counter() - start
    budget = float(n_steer)
    scenarios.append(
        _scenario(
            "steering",
            {"runs": n_steer, "refit_runs": refit, "threshold": 0.2},
            {
                "wall_seconds": wall,
                "unsteered_runs_to_isolate": float(
                    payoff.unsteered if payoff.unsteered is not None else budget
                ),
                "steered_runs_to_isolate": float(
                    payoff.steered if payoff.steered is not None else budget
                ),
                "unsteered_bugs_isolated": float(payoff.unsteered_bugs),
                "steered_bugs_isolated": float(payoff.steered_bugs),
            },
            subject="ccrypt",
        )
    )

    # The subject factory: wall to AST-rewrite, compile and exec a whole
    # multi-module package behind the import hook, the site-registration
    # rate that implies, and the collection throughput of the resulting
    # factory subject.  These price the PR10 path and grow their own
    # trajectory, separate from the builtin per-subject rows above.
    from repro.factory import corpus as _corpus
    from repro.factory.loader import instrument_package
    from repro.factory.subjects import FactorySubject

    package = "jsonscan"
    sources = _corpus.corpus_sources(package)
    start = time.perf_counter()
    fprogram = instrument_package(package, modules=sources)
    wall = time.perf_counter() - start
    scenarios.append(
        _scenario(
            "factory_instrument",
            {"package": package, "modules": len(sources)},
            {
                "wall_seconds": wall,
                "sites": float(fprogram.table.n_sites),
                "sites_per_sec": fprogram.table.n_sites / max(wall, 1e-9),
            },
            subject=package,
        )
    )

    fsubject = FactorySubject(
        name=f"bench-{package}",
        package=package,
        modules=sources,
        generator=_corpus.GENERATORS[package],
        trial_budget=n_runs,
    )
    fprogram = fsubject.build_program()
    start = time.perf_counter()
    reports, _ = run_trials(fsubject, fprogram, n_runs, plan, seed=0)
    wall = time.perf_counter() - start
    scenarios.append(
        _scenario(
            "factory_collection_throughput",
            {"runs": n_runs, "sampling": "uniform", "rate": 0.01},
            {
                "wall_seconds": wall,
                "runs_per_sec": reports.n_runs / max(wall, 1e-9),
            },
            subject=package,
        )
    )
    return scenarios


def run_analysis_scenarios(quick: bool, scale: float = 1.0) -> List[dict]:
    """Streaming-merge MB/s and scoring latency at three store sizes."""
    from repro.core.pruning import prune_predicates
    from repro.harness.parallel import run_trials_sharded
    from repro.instrument.sampling import SamplingPlan
    from repro.store import ShardStore

    from repro.cli import SUBJECTS

    subject = SUBJECTS["ccrypt"]()
    plan = SamplingPlan.uniform(0.01)
    # dict.fromkeys dedupes while keeping order: at tiny --scale several
    # sizes clamp to _MIN_RUNS and would otherwise collide in one store.
    sizes = list(dict.fromkeys(
        _scaled(n, scale)
        for n in (_QUICK_STORE_RUNS if quick else _FULL_STORE_RUNS)
    ))
    scenarios: List[dict] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        store_dirs: List[Tuple[int, str]] = []
        for size in sizes:
            store_dir = os.path.join(tmp, f"store-{size}")
            run_trials_sharded(
                subject,
                size,
                plan,
                store_dir,
                seed=0,
                jobs=2,
                chunk_size=max(size // 6, 5),
            )
            store_dirs.append((size, store_dir))

        # Scoring latency: streamed stats -> scores -> pruning, per size.
        for size, store_dir in store_dirs:
            store = ShardStore.open(store_dir)
            start = time.perf_counter()
            scores = store.sufficient_stats().to_scores()
            pruning = prune_predicates(scores)
            wall = time.perf_counter() - start
            scenarios.append(
                _scenario(
                    "scoring_latency",
                    {"runs": size, "shards": store.n_shards},
                    {
                        "wall_seconds": wall,
                        "runs_per_sec": size / max(wall, 1e-9),
                        "predicates_kept": float(pruning.n_kept),
                    },
                    subject="ccrypt",
                )
            )

        # Measure bake-off wall: every registered suspiciousness measure
        # scored over the same streamed statistics, per store size.  The
        # per-measure walls price the registry seam itself -- each pass
        # runs the full score_stats pipeline under one measure, exactly
        # what `bakeoff` and `GET /scores?measure=` pay.
        from repro.core import measures as _measures
        from repro.core.engine import AnalysisEngine

        for size, store_dir in store_dirs:
            store = ShardStore.open(store_dir)
            engine = AnalysisEngine()
            stats = engine.store_stats(store)
            walls: Dict[str, float] = {}
            for m in _measures.available():
                start = time.perf_counter()
                engine.score_stats(stats, measure=m)
                walls[m] = time.perf_counter() - start
            total = sum(walls.values())
            metrics = {f"{m}_wall_seconds": w for m, w in walls.items()}
            metrics["total_wall_seconds"] = total
            metrics["measures_per_sec"] = len(walls) / max(total, 1e-9)
            scenarios.append(
                _scenario(
                    "bakeoff",
                    {
                        "runs": size,
                        "shards": store.n_shards,
                        "measures": len(walls),
                    },
                    metrics,
                    subject="ccrypt",
                )
            )

        # Streaming merge bandwidth over the largest store's bytes.
        size, store_dir = store_dirs[-1]
        store = ShardStore.open(store_dir)
        total_bytes = sum(os.path.getsize(p) for p in store.shard_paths())
        start = time.perf_counter()
        store.sufficient_stats()
        wall = time.perf_counter() - start
        scenarios.append(
            _scenario(
                "streaming_merge",
                {"runs": size, "shards": store.n_shards, "bytes": total_bytes},
                {
                    "wall_seconds": wall,
                    "mb_per_sec": total_bytes / 1e6 / max(wall, 1e-9),
                },
                subject="ccrypt",
            )
        )

    # Scoring at factory site counts: a whole instrumented package has
    # several times the predicate count of the hand-built analogues, so
    # this prices the analysis engine at the density the factory emits.
    from repro.core.engine import AnalysisEngine
    from repro.factory import corpus as _corpus
    from repro.factory.subjects import FactorySubject
    from repro.harness.runner import run_trials
    from repro.core.scores import SufficientStats

    package = "jsonscan"
    fsubject = FactorySubject(
        name=f"bench-{package}",
        package=package,
        modules=_corpus.corpus_sources(package),
        generator=_corpus.GENERATORS[package],
        trial_budget=sizes[0],
    )
    fprogram = fsubject.build_program()
    reports, _ = run_trials(
        fsubject, fprogram, sizes[0], SamplingPlan.full(), seed=0
    )
    stats = SufficientStats.from_reports(reports)
    engine = AnalysisEngine()
    start = time.perf_counter()
    engine.score_stats(stats)
    wall = time.perf_counter() - start
    scenarios.append(
        _scenario(
            "factory_scoring",
            {"runs": sizes[0], "predicates": fprogram.table.n_predicates},
            {
                "wall_seconds": wall,
                "predicates_per_sec": fprogram.table.n_predicates
                / max(wall, 1e-9),
            },
            subject=package,
        )
    )
    return scenarios


# ----------------------------------------------------------------------
# Document assembly and validation
# ----------------------------------------------------------------------
def make_entry(scenarios: List[dict], quick: bool, label: Optional[str]) -> dict:
    """Wrap scenario results into one trajectory entry."""
    return {
        "created_unix": time.time(),
        "label": label or "unlabelled",
        "quick": quick,
        "environment": environment_info(),
        "scenarios": scenarios,
    }


def append_entry(path: str, kind: str, entry: dict) -> dict:
    """Append ``entry`` to the BENCH document at ``path`` (creating it).

    An existing document must carry the current schema and ``kind``;
    anything else is an error rather than a silent overwrite.
    """
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        validate_bench_document(doc)
        if doc["kind"] != kind:
            raise BenchSchemaError(
                f"{path} holds kind {doc['kind']!r}, refusing to append {kind!r}"
            )
    else:
        doc = {"schema": BENCH_SCHEMA, "kind": kind, "entries": []}
    doc["entries"].append(entry)
    validate_bench_document(doc)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return doc


def validate_bench_document(doc: dict) -> None:
    """Raise :class:`BenchSchemaError` unless ``doc`` is a valid document."""

    def need(cond: bool, message: str) -> None:
        if not cond:
            raise BenchSchemaError(message)

    need(isinstance(doc, dict), "document must be a JSON object")
    need(doc.get("schema") == BENCH_SCHEMA, f"schema must be {BENCH_SCHEMA!r}")
    need(doc.get("kind") in ("collection", "analysis"),
         "kind must be 'collection' or 'analysis'")
    need(isinstance(doc.get("entries"), list), "entries must be a list")
    for i, entry in enumerate(doc["entries"]):
        where = f"entries[{i}]"
        need(isinstance(entry, dict), f"{where} must be an object")
        need(isinstance(entry.get("created_unix"), (int, float)),
             f"{where}.created_unix must be a number")
        need(isinstance(entry.get("label"), str), f"{where}.label must be a string")
        need(isinstance(entry.get("quick"), bool), f"{where}.quick must be a bool")
        env = entry.get("environment")
        need(isinstance(env, dict), f"{where}.environment must be an object")
        for key in ("python", "platform", "cpu_count"):
            need(key in env, f"{where}.environment lacks {key!r}")
        need(isinstance(entry.get("scenarios"), list) and entry["scenarios"],
             f"{where}.scenarios must be a non-empty list")
        for j, sc in enumerate(entry["scenarios"]):
            swhere = f"{where}.scenarios[{j}]"
            need(isinstance(sc, dict), f"{swhere} must be an object")
            need(isinstance(sc.get("name"), str) and sc["name"],
                 f"{swhere}.name must be a non-empty string")
            need(isinstance(sc.get("params"), dict), f"{swhere}.params must be an object")
            metrics = sc.get("metrics")
            need(isinstance(metrics, dict) and metrics,
                 f"{swhere}.metrics must be a non-empty object")
            for mname, mval in metrics.items():
                need(
                    isinstance(mval, (int, float)) and not isinstance(mval, bool),
                    f"{swhere}.metrics[{mname!r}] must be a number",
                )


def validate_file(path: str) -> dict:
    """Load and validate one BENCH document; returns it."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    validate_bench_document(doc)
    return doc


# ----------------------------------------------------------------------
# Docs cross-check
# ----------------------------------------------------------------------
def documented_examples(markdown_path: str) -> List[dict]:
    """Extract the ``repro-bench`` JSON examples from a markdown page."""
    with open(markdown_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    examples: List[dict] = []
    for match in re.finditer(r"```json\n(.*?)```", text, flags=re.DOTALL):
        block = match.group(1)
        if BENCH_SCHEMA not in block:
            continue
        try:
            examples.append(json.loads(block))
        except json.JSONDecodeError as exc:
            raise BenchSchemaError(
                f"{markdown_path}: documented example is not valid JSON: {exc}"
            ) from exc
    return examples


def _skeleton(doc: dict) -> dict:
    """Structural skeleton of a document: the key sets at every level."""
    entry = doc["entries"][0]
    scenario = entry["scenarios"][0]
    return {
        "document": sorted(doc),
        "entry": sorted(entry),
        "environment": sorted(entry["environment"]),
        "scenario": sorted(scenario),
    }


def check_against_docs(doc: dict, markdown_path: str) -> None:
    """Fail when ``doc``'s structure diverges from the documented example.

    The documented example must itself validate, and its key sets at the
    document / entry / scenario levels must equal the emitted ones.
    """
    examples = documented_examples(markdown_path)
    if not examples:
        raise BenchSchemaError(
            f"{markdown_path} contains no {BENCH_SCHEMA} JSON example to check against"
        )
    for example in examples:
        validate_bench_document(example)
    matching = [e for e in examples if e["kind"] == doc["kind"]] or examples
    documented = _skeleton(matching[0])
    emitted = _skeleton(doc)
    if documented != emitted:
        raise BenchSchemaError(
            "emitted BENCH structure diverges from the documented schema: "
            f"documented {documented}, emitted {emitted}"
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_bench(
    out_dir: str = ".",
    quick: bool = False,
    scale: float = 1.0,
    label: Optional[str] = None,
) -> Tuple[str, str]:
    """Run every scenario and append entries to both BENCH documents.

    Returns:
        ``(collection_path, analysis_path)``.
    """
    os.makedirs(out_dir, exist_ok=True)
    collection_path = os.path.join(out_dir, COLLECTION_FILE)
    analysis_path = os.path.join(out_dir, ANALYSIS_FILE)

    print("bench: collection scenarios...", file=sys.stderr)
    collection = run_collection_scenarios(quick, scale)
    append_entry(collection_path, "collection", make_entry(collection, quick, label))

    print("bench: analysis scenarios...", file=sys.stderr)
    analysis = run_analysis_scenarios(quick, scale)
    append_entry(analysis_path, "analysis", make_entry(analysis, quick, label))
    return collection_path, analysis_path


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: ``python -m repro.obs.bench --check BENCH_*.json [--docs PAGE]``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="validate BENCH_*.json documents against repro-bench/v1",
    )
    parser.add_argument("--check", nargs="+", metavar="FILE", required=True,
                        help="BENCH documents to validate")
    parser.add_argument("--docs", default=None, metavar="PAGE",
                        help="also require structural agreement with the "
                        "documented example in this markdown page")
    args = parser.parse_args(argv)
    for path in args.check:
        try:
            doc = validate_file(path)
            if args.docs:
                check_against_docs(doc, args.docs)
        except (BenchSchemaError, OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            return 1
        entries = len(doc["entries"])
        print(f"ok   {path}: {doc['kind']}, {entries} entr{'y' if entries == 1 else 'ies'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
