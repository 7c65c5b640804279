"""Command-line interface: run a bug-isolation experiment and print tables.

Examples::

    repro-cbi list
    repro-cbi run --subject moss --runs 2000 --sampling adaptive
    repro-cbi run --subject exif --runs 3000 --strategy 2 --top 8

Large populations split collection from analysis: ``collect`` appends
on-disk shards (written directly by worker processes) to a store
directory, and ``analyze`` pointed at that directory scores it -- the
pruning pass streams per-shard sufficient statistics, so it never holds
more than one shard's matrices::

    repro-cbi collect --subject moss --runs 5000 --out moss-store/
    repro-cbi collect --subject moss --runs 5000 --out moss-store/  # appends
    repro-cbi analyze moss-store/
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict

from repro.core import measures
from repro.core.elimination import DiscardStrategy
from repro.core.truth import cooccurrence_table
from repro.factory.subjects import corpus_subjects
from repro.harness.experiment import Experiment, build_plan, run_experiment
from repro.harness.tables import format_predictor_table, format_summary_table
from repro.subjects.base import Subject
from repro.subjects.bc import BcSubject
from repro.subjects.ccrypt import CcryptSubject
from repro.subjects.exif import ExifSubject
from repro.subjects.moss import MossSubject
from repro.subjects.rhythmbox import RhythmboxSubject

#: All registered subjects, keyed by CLI name: the five hand-built
#: analogues plus every factory-made corpus bug.  Values are zero-arg
#: constructors (classes for the builtins, corpus entries for the
#: factory), so ``SUBJECTS[name]()`` is uniform.
SUBJECTS: Dict[str, Callable[[], Subject]] = {
    "moss": MossSubject,
    "ccrypt": CcryptSubject,
    "bc": BcSubject,
    "exif": ExifSubject,
    "rhythmbox": RhythmboxSubject,
}
SUBJECTS.update(corpus_subjects())


def _checked(name: str, kind: type, sound: Callable, need: str) -> Callable:
    """An argparse type named ``name``: a ``kind`` for which ``sound``
    holds, else a usage error saying it must be ``need``."""

    def parse(text: str):
        value = kind(text)
        if not sound(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {value}")
        return value

    parse.__name__ = name
    return parse


# Counts (--top), sizes (--runs), probabilities (--rate; NaN fails every
# comparison), durations and widths (--timeout, --stop-epsilon), ports.
non_negative_int = _checked("non_negative_int", int, lambda v: v >= 0, ">= 0")
positive_int = _checked("positive_int", int, lambda v: v >= 1, ">= 1")
sampling_rate = _checked("sampling_rate", float, lambda v: 0 < v <= 1, "in (0, 1]")
positive_float = _checked(
    "positive_float", float, lambda v: 0 < v < float("inf"), "finite and > 0"
)
port = _checked("port", int, lambda v: 0 <= v <= 65535, "in [0, 65535]")


class _Refused(Exception):
    """A command line the command refuses before doing any work (exit 2)."""


def _fault_options(command: str) -> argparse.ArgumentParser:
    """``--testing`` and ``--inject-fault`` for ``command``, whose help
    names the kinds it fires (:data:`repro.store.faults.COMMAND_FAULTS`)."""
    from repro.store.faults import COMMAND_FAULTS

    options = argparse.ArgumentParser(add_help=False)
    options.add_argument(
        "--testing", action="store_true",
        help="enable testing-only options such as --inject-fault",
    )
    options.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC",
        help="inject a fault (testing only; requires --testing); SPEC is "
        "kind@index[#attempt] as repro.store.faults defines it, several "
        f"comma-separated; {command} fires {', '.join(COMMAND_FAULTS[command])}",
    )
    return options


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cbi",
        description="Scalable Statistical Bug Isolation (PLDI 2005) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *parents):
        subparser = sub.add_parser(name, help=help, parents=list(parents))
        subparser.set_defaults(handler=handler)
        return subparser

    subject = argparse.ArgumentParser(add_help=False)
    subject.add_argument("--subject", choices=sorted(SUBJECTS), required=True)

    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument(
        "--runs", type=positive_int, default=None,
        help="number of trials (default: the subject's trial budget, "
        "see `list --json`)",
    )
    trials.add_argument(
        "--jobs", type=positive_int, default=1,
        help="worker processes (default 1; output is bit-identical for "
        "every value, and collect's workers write their shards directly "
        "to disk)",
    )

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument(
        "--sampling", choices=["uniform", "adaptive", "full"], default="adaptive",
        help="sampling regime (paper default: adaptive nonuniform); a new "
        "store records it, and submit's must match the server's store",
    )
    sampling.add_argument(
        "--rate", type=sampling_rate, default=0.01, help="uniform sampling rate"
    )
    sampling.add_argument(
        "--training-runs", type=non_negative_int, default=200,
        help="adaptive training set size",
    )

    elimination = argparse.ArgumentParser(add_help=False)
    elimination.add_argument(
        "--strategy", type=int, choices=[1, 2, 3], default=1,
        help="elimination discard strategy (Section 5)",
    )
    elimination.add_argument(
        "--top", type=non_negative_int, default=15, help="max predictors to report"
    )

    measure = argparse.ArgumentParser(add_help=False)
    measure.add_argument(
        "--measure", choices=list(measures.available()),
        default=measures.DEFAULT_MEASURE,
        help="suspiciousness measure ranking analyze's --stats-only output "
        "or ordering serve's steering watchlist (default: the paper's "
        "Importance; see docs/MEASURES.md). Elimination always follows "
        "the paper's Importance.",
    )

    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write the command's metrics (counters/timers/gauges; serve's "
        "on shutdown) to PATH as a repro-metrics/v1 JSON document",
    )
    observability.add_argument(
        "--trace", metavar="PATH", default=None,
        help="append Chrome-compatible trace spans to PATH as JSONL; "
        "convert with `python -m repro.obs.trace PATH` for chrome://tracing",
    )

    timeout = argparse.ArgumentParser(add_help=False)
    timeout.add_argument(
        "--timeout", type=positive_float, default=10.0,
        help="per-request timeout in seconds (federate: daemon sources)",
    )

    lister = command("list", _list, "list available subject programs")
    lister.add_argument(
        "--json", action="store_true",
        help="machine-readable output: one JSON document with name, kind "
        "(builtin or factory), bug ids, mutation class, site/predicate "
        "counts and default trial budget per subject",
    )

    run = command(
        "run", _run, "run one bug-isolation experiment",
        subject, trials, sampling, elimination,
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--html", metavar="PATH", default=None,
        help="also write an interactive-style HTML report",
    )
    run.add_argument(
        "--save", metavar="PATH", default=None,
        help="save the collected feedback reports (+ ground truth) as a "
        "report archive",
    )

    collect = command(
        "collect", _collect,
        "collect feedback-report shards into a store directory",
        subject, trials, sampling, observability, _fault_options("collect"),
    )
    collect.add_argument(
        "--out", metavar="DIR", required=True,
        help="shard-store directory (created on first use, appended after)",
    )
    collect.add_argument(
        "--seed", type=int, default=None,
        help="base trial seed; defaults to the store's next free seed, so "
        "repeated collect sessions extend the population contiguously",
    )
    collect.add_argument(
        "--chunk-size", type=positive_int, default=200, help="trials per shard"
    )
    collect.add_argument(
        "--max-attempts", type=positive_int, default=3,
        help="attempts per chunk before the collection gives up",
    )
    collect.add_argument(
        "--chunk-timeout", type=positive_float, default=None,
        help="seconds before a hung chunk worker is killed and retried",
    )

    analyze = command(
        "analyze", _analyze,
        "re-analyse a saved feedback-report archive or a shard store",
        elimination, measure,
    )
    analyze.add_argument(
        "archive",
        help="archive written by `run --save`, or a directory written by `collect`",
    )
    analyze.add_argument(
        "--method", choices=["interval", "ztest"], default="interval",
        help="pruning filter (Section 3.1 interval or Section 3.2 z-test)",
    )
    analyze.add_argument(
        "--stats-only", action="store_true",
        help="rank the pruning survivors by --measure from the sufficient "
        "statistics alone (skips elimination; a shard store is never "
        "materialised)",
    )
    analyze.add_argument(
        "--no-audit", action="store_true",
        help="shard stores only: skip the integrity audit (checksum "
        "verification and quarantine of damaged shards) before analysis",
    )
    analyze.add_argument(
        "--profile", action="store_true",
        help="print a timer/counter profile of the analysis to stderr",
    )

    serve = command(
        "serve", _serve,
        "run the cooperative collection daemon over a store directory",
        sampling, measure, observability, _fault_options("serve"),
    )
    serve.add_argument(
        "store",
        help="shard-store directory to serve (created on first use; an "
        "existing store pins the subject)",
    )
    serve.add_argument(
        "--subject", choices=sorted(SUBJECTS), default=None,
        help="subject to collect (required for a new store; must match "
        "an existing store's manifest)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=port, default=8080,
        help="bind port; 0 picks a free one (printed on startup)",
    )
    serve.add_argument(
        "--batch-runs", type=positive_int, default=200,
        help="contiguous seeds per committed shard",
    )
    serve.add_argument(
        "--max-buffered", type=positive_int, default=100_000,
        help="pending-report bound; uploads past it get 503",
    )
    serve.add_argument(
        "--no-steering", action="store_true",
        help="do not publish GET /steering (clients fall back to their "
        "local sampling plans, the pre-steering behaviour)",
    )
    serve.add_argument(
        "--refit-runs", type=positive_int, default=100,
        help="refit the steering document every N committed runs",
    )
    serve.add_argument(
        "--watchlist-k", type=non_negative_int, default=10,
        help="predicates on the steering watchlist",
    )
    serve.add_argument(
        "--stop-epsilon", type=positive_float, default=0.1,
        help="early stopping: maximum Increase half-interval width for "
        "the top predictors before the subject converges",
    )
    serve.add_argument(
        "--stop-min-runs", type=non_negative_int, default=100,
        help="early stopping: minimum committed runs before convergence",
    )
    serve.add_argument(
        "--stop-min-failing", type=non_negative_int, default=10,
        help="early stopping: minimum committed failing runs before "
        "convergence",
    )

    submit = command(
        "submit", _submit,
        "run trials locally, spool the reports, and upload them to a "
        "collection daemon",
        subject, sampling, timeout, _fault_options("submit"),
    )
    submit.add_argument(
        "--url", required=True, help="server base URL, e.g. http://127.0.0.1:8080"
    )
    submit.add_argument(
        "--runs", type=non_negative_int, default=None,
        help="trials to run and spool before draining (default: the "
        "subject's trial budget); 0 drains an existing spool only",
    )
    submit.add_argument("--seed", type=int, default=0, help="base trial seed")
    submit.add_argument(
        "--spool", metavar="DIR", required=True,
        help="local disk spool; reports persist here until acknowledged",
    )
    submit.add_argument(
        "--batch-size", type=positive_int, default=32, help="reports per upload request"
    )
    submit.add_argument(
        "--max-attempts", type=positive_int, default=8,
        help="attempts per batch before the drain gives up",
    )
    submit.add_argument(
        "--steered", action="store_true",
        help="fetch the server's GET /steering rate table, run trials "
        "under it, and stamp its version into every report; falls back "
        "to the local --sampling plan when the server has no steering",
    )
    submit.add_argument(
        "--until-converged", action="store_true",
        help="steered rounds of --runs trials until the daemon reports "
        "convergence (implies --steered)",
    )
    submit.add_argument(
        "--max-rounds", type=positive_int, default=50,
        help="round budget for --until-converged",
    )
    submit.add_argument(
        "--top", type=non_negative_int, default=0,
        help="after draining, fetch and print the top-K live scores",
    )

    federate = command(
        "federate", _federate,
        "replicate committed shards from N source stores or daemons "
        "into one merged store, bit-identical to single-store collection",
        timeout, _fault_options("federate"),
    )
    federate.add_argument(
        "sources", nargs="+", metavar="SRC",
        help="source store directory or daemon URL (http://host:port)",
    )
    federate.add_argument(
        "dest", metavar="DEST",
        help="destination store directory (created if absent)",
    )
    federate.add_argument(
        "--max-attempts", type=positive_int, default=3,
        help="pull attempts per shard before it is skipped with an "
        "audited reason",
    )
    federate.add_argument(
        "--no-audit", action="store_true",
        help="skip the closing cross-store audit",
    )

    bakeoff = command(
        "bakeoff", _bakeoff,
        "grade every registered suspiciousness measure against the "
        "subjects' ground-truth bug sites",
    )
    bakeoff.add_argument(
        "--subject", action="append", default=None, choices=sorted(SUBJECTS),
        metavar="NAME", dest="subjects",
        help="subject to grade (repeatable; default: all subjects)",
    )
    bakeoff.add_argument(
        "--measure", action="append", default=None,
        choices=list(measures.available()), metavar="NAME", dest="measures",
        help="measure to grade (repeatable; default: every registered measure)",
    )
    bakeoff.add_argument(
        "--runs", type=positive_int, default=None,
        help="deterministic full-observation trials per subject "
        "(default: 400)",
    )
    bakeoff.add_argument("--seed", type=int, default=0, help="base trial seed")
    bakeoff.add_argument(
        "--json", action="store_true",
        help="emit the repro-bakeoff/v1 document on stdout instead of a table",
    )
    bakeoff.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON document to PATH",
    )
    bakeoff.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="compare the Importance row against a committed baseline "
        "document; exit 1 if rank-of-first-faulty-site regressed",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    from repro.core.io import ArchiveError
    from repro.store.errors import StoreError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArchiveError, StoreError, FileNotFoundError) as exc:
        # A damaged, retired or missing archive or store: refuse with
        # the reason, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _list(args) -> int:
    """Print the registered subjects, as a table or one JSON document."""
    if args.json:
        import json

        document = []
        for name in sorted(SUBJECTS):
            subject = SUBJECTS[name]()
            program = subject.build_program()
            document.append(
                {
                    "name": name,
                    "kind": subject.kind,
                    "bug_ids": list(subject.bug_ids),
                    "bug_count": len(subject.bug_ids),
                    "trial_budget": subject.trial_budget,
                    "n_sites": program.table.n_sites,
                    "n_predicates": program.table.n_predicates,
                    "mutation_class": getattr(subject, "mutation_class", None),
                }
            )
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    for name in sorted(SUBJECTS):
        subject = SUBJECTS[name]()
        print(f"{name:<16} kind: {subject.kind:<8} bugs: {', '.join(subject.bug_ids)}")
    return 0


def _run(args) -> int:
    """Run one end-to-end experiment and print its tables."""
    subject = SUBJECTS[args.subject]()
    if args.runs is None:
        args.runs = subject.trial_budget
    config = Experiment(
        subject=subject,
        n_runs=args.runs,
        sampling=args.sampling,
        rate=args.rate,
        training_runs=args.training_runs,
        seed=args.seed,
        strategy=DiscardStrategy(args.strategy),
        max_predictors=args.top,
        jobs=args.jobs,
    )
    print(f"running {args.runs} trials of {args.subject} "
          f"({args.sampling} sampling)...", file=sys.stderr)
    result = run_experiment(config)

    print(format_summary_table([result.summary()]))
    print()
    print(_predictor_table(result))
    if args.html:
        from repro.harness.report import write_report

        write_report(result, args.html)
        print(f"wrote HTML report to {args.html}", file=sys.stderr)
    if args.save:
        from repro.core.io import save_reports

        save_reports(args.save, result.reports, result.truth)
        print(f"saved feedback reports to {args.save}", file=sys.stderr)
    return 0


def _injected_faults(args):
    """The ``--inject-fault`` specs as a :class:`FaultInjector`.

    Raises:
        _Refused: Faults were requested without ``--testing``, a spec
            does not parse, or it names a kind this command never fires.
    """
    from repro.store.faults import COMMAND_FAULTS, FaultInjector, parse_faults

    if not args.inject_fault:
        return FaultInjector()
    if not args.testing:
        raise _Refused(
            "--inject-fault is a testing-only option; pass --testing to acknowledge"
        )
    try:
        faults = [fault for spec in args.inject_fault for fault in parse_faults(spec)]
    except ValueError as exc:
        raise _Refused(f"--inject-fault: {exc}") from None
    kinds = COMMAND_FAULTS[args.command]
    foreign = [fault.spec() for fault in faults if fault.kind not in kinds]
    if foreign:
        raise _Refused(
            f"{args.command} never fires {', '.join(foreign)}; "
            f"its fault kinds are {', '.join(kinds)}"
        )
    return FaultInjector(faults)


def _sampling_plan(args, subject, program, seed: int = 0):
    """The :class:`SamplingPlan` the ``--sampling`` options ask for
    (``adaptive`` trains it on fully sampled runs from ``seed``)."""
    return build_plan(
        subject, program, args.sampling,
        rate=args.rate, training_runs=args.training_runs, seed=seed,
    )


def _serve(args) -> int:
    """Run the cooperative collection daemon until SIGTERM/SIGINT."""
    import signal
    import threading

    from repro import obs
    from repro.core.stopping import StoppingPolicy
    from repro.serve import CollectionService, FeedbackServer
    from repro.store import ShardStore
    from repro.store.shards import MANIFEST_NAME

    faults = _injected_faults(args)
    existing = None
    name = args.subject
    if os.path.exists(os.path.join(args.store, MANIFEST_NAME)):
        existing = ShardStore.open(args.store)
        name = existing.manifest.subject
        if args.subject not in (None, name):
            raise _Refused(
                f"store {args.store} holds subject {name!r}, not {args.subject!r}"
            )
    elif name is None:
        raise _Refused("--subject is required when creating a new store")
    subject = SUBJECTS[name]()
    program = subject.build_program()
    # An existing store keeps the plan it was created with, so only a
    # new one is worth the adaptive plan's training trials.
    plan = (
        existing.plan() if existing is not None
        else _sampling_plan(args, subject, program)
    )
    store = ShardStore.open_or_create(
        args.store, subject.name, program.table, plan
    )

    obs_on = bool(args.trace)
    if obs_on:
        obs.configure(trace_path=args.trace)
    service = CollectionService(
        store,
        subject,
        batch_runs=args.batch_runs,
        max_buffered=args.max_buffered,
        steering=not args.no_steering,
        refit_runs=args.refit_runs,
        watchlist_k=args.watchlist_k,
        measure=args.measure,
        stopping=StoppingPolicy(
            epsilon=args.stop_epsilon,
            min_runs=args.stop_min_runs,
            min_failing=args.stop_min_failing,
        ),
    )
    server = FeedbackServer(service, host=args.host, port=args.port, faults=faults)
    server.start()
    # The smoke tests parse this line to find the bound port; keep its
    # shape (and the flush) stable.
    print(f"serving {subject.name} on {server.url} (store {args.store})", flush=True)

    stop = threading.Event()

    def _handle(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
    try:
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        drained = server.close(drain=True)
        if args.metrics:
            service.metrics.write(args.metrics)
            print(f"wrote metrics to {args.metrics}", file=sys.stderr)
        if obs_on:
            obs.shutdown()
        print(
            f"drained {drained} pending reports; store now holds "
            f"{store.n_shards} shards, {store.n_runs} runs "
            f"({store.num_failing} failing)",
            flush=True,
        )
    return 0


def _submit(args) -> int:
    """Run trials, spool their reports, and drain the spool to a server."""
    from repro.serve import fetch_scores, submit_session

    faults = _injected_faults(args)
    subject = SUBJECTS[args.subject]()
    runs = args.runs if args.runs is not None else subject.trial_budget
    if args.until_converged and not runs:
        runs = subject.trial_budget  # rounds of no trials would never converge
    program = subject.build_program()
    session = submit_session(
        subject,
        program,
        _sampling_plan(args, subject, program, seed=args.seed),
        args.url,
        args.spool,
        runs,
        seed=args.seed,
        steered=args.steered,
        until_converged=args.until_converged,
        max_rounds=args.max_rounds,
        batch_size=args.batch_size,
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        faults=faults,
    )
    if args.until_converged:
        print(
            f"{'converged' if session.converged else 'round budget exhausted'} "
            f"after {session.rounds} rounds ({session.runs} trials, "
            f"steering epoch {session.final_epoch})"
        )
    else:
        if runs and not args.steered:
            print(
                f"spooled {runs} reports (seeds {args.seed}.."
                f"{args.seed + runs - 1}) to {args.spool}",
                file=sys.stderr,
            )
        print(
            f"submitted: {len(session.accepted)} accepted, "
            f"{len(session.duplicate)} duplicate, {len(session.rejected)} rejected "
            f"({session.requests} requests, {session.retries} retries)"
        )
    if args.top:
        scores = fetch_scores(args.url, k=args.top, timeout=args.timeout)
        print(
            f"live scores over {scores['n_runs']} runs "
            f"({scores['num_failing']} failing):"
        )
        for entry in scores["predicates"]:
            print(
                f"{entry['score']:>10.3f}  {entry['increase']:>8.3f}  "
                f"{entry['F']:>6}  {entry['S']:>6}  {entry['name']}"
            )
    return 0


def _federate(args) -> int:
    """Merge N source stores/daemons into one destination store.

    Exit codes: 0 for a clean merge (and, unless ``--no-audit``, a clean
    cross-store audit); 1 when shards were skipped or the audit found
    problems; 2 for structural refusals (incompatible stores, diverging
    seed-range claims).
    """
    from repro.federate import (
        FederationError,
        cross_audit,
        federate_stores,
        open_source,
    )
    from repro.store import ShardStore
    from repro.store.shards import MANIFEST_NAME

    faults = _injected_faults(args)
    try:
        sources = [open_source(spec, timeout=args.timeout) for spec in args.sources]
        if os.path.exists(os.path.join(args.dest, MANIFEST_NAME)):
            dest = ShardStore.open(args.dest)
        else:
            dest = ShardStore.create_like(args.dest, sources[0].manifest())
        report = federate_stores(
            sources, dest, faults=faults, max_attempts=args.max_attempts
        )
    except FederationError as exc:
        raise _Refused(exc) from None

    print(
        f"federated {len(sources)} sources into {args.dest}: "
        f"{len(report.pulled)} shards pulled ({report.runs_merged} runs, "
        f"{report.bytes_pulled} bytes), {len(report.deduped)} deduped, "
        f"{len(report.present)} already present, {len(report.skipped)} skipped"
        + (f", {report.retries} retries" if report.retries else "")
    )
    for record in report.skipped:
        print(
            f"skipped {record.filename} ({record.reason}): {record.detail}",
            file=sys.stderr,
        )

    clean = report.clean
    if not args.no_audit:
        audit = cross_audit(dest, sources)
        for src_audit in audit.sources:
            status = "fully replicated" if not (
                src_audit.missing or src_audit.diverged
            ) else (
                f"{len(src_audit.missing)} missing, "
                f"{len(src_audit.diverged)} diverged"
            )
            print(
                f"audit {src_audit.label}: {len(src_audit.replicated)} "
                f"replicated, {status}"
            )
        if not audit.clean:
            clean = False
            print("cross-store audit found problems", file=sys.stderr)

    print(
        f"store {args.dest} now holds {dest.n_shards} shards, "
        f"{dest.n_runs} runs ({dest.num_failing} failing)"
    )
    return 0 if clean else 1


def _collect(args) -> int:
    """Append shards for a subject to a store directory."""
    from repro import obs
    from repro.harness.parallel import run_trials_sharded
    from repro.store import ShardStore

    faults = _injected_faults(args)
    subject = SUBJECTS[args.subject]()
    if args.runs is None:
        args.runs = subject.trial_budget
    program = subject.build_program()
    plan = _sampling_plan(args, subject, program, seed=args.seed or 0)
    seed = args.seed
    if seed is None:
        try:
            seed = ShardStore.open(args.out).next_seed
        except FileNotFoundError:
            seed = 0
    print(
        f"collecting {args.runs} trials of {args.subject} into {args.out} "
        f"(seeds {seed}..{seed + args.runs - 1}, {args.sampling} sampling)...",
        file=sys.stderr,
    )
    obs_on = bool(args.metrics or args.trace)
    if obs_on:
        obs.configure(trace_path=args.trace)
    try:
        store = run_trials_sharded(
            subject,
            args.runs,
            plan,
            args.out,
            seed=seed,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            max_attempts=args.max_attempts,
            chunk_timeout=args.chunk_timeout,
            faults=faults.faults,
        )
        if args.metrics:
            obs.write_metrics(args.metrics)
            print(f"wrote metrics to {args.metrics}", file=sys.stderr)
        if args.trace:
            print(f"wrote trace spans to {args.trace}", file=sys.stderr)
    finally:
        if obs_on:
            obs.shutdown()
    report = getattr(store, "last_collection", None)
    if report is not None and report.retries:
        print(
            f"supervision: {report.attempts} attempts for {report.n_chunks} "
            f"chunks ({report.retries} retries: {report.worker_deaths} dead "
            f"workers, {report.timeouts} timeouts, {report.corrupt_shards} "
            "corrupt shards quarantined)",
            file=sys.stderr,
        )
    print(
        f"store now holds {store.n_shards} shards, {store.n_runs} runs "
        f"({store.num_failing} failing)"
    )
    return 0


def _bakeoff(args) -> int:
    """Run the measure bake-off matrix and report / gate the results."""
    import json

    from repro.harness.bakeoff import compare_to_baseline, run_bakeoff
    from repro.harness.tables import format_bakeoff_table

    document = run_bakeoff(
        SUBJECTS,
        subject_names=args.subjects,
        measure_names=args.measures,
        runs=args.runs,
        seed=args.seed,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(format_bakeoff_table(document))
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        regressions = compare_to_baseline(document, baseline)
        for reg in regressions:
            print(f"baseline: {reg}", file=sys.stderr)
        if regressions:
            return 1
        print(
            f"baseline: importance row matches or improves on {args.baseline}",
            file=sys.stderr,
        )
    return 0


def _analyze_store(args) -> int:
    """Analyse a shard store: streaming pruning, then (optionally) elimination."""
    from repro.core.engine import AnalysisEngine
    from repro.store import ShardStore

    store = ShardStore.open(args.archive)
    print(
        f"opened shard store: {store.n_shards} shards, {store.n_runs} runs "
        f"({store.num_failing} failing), subject {store.manifest.subject}",
        file=sys.stderr,
    )
    if not args.no_audit:
        audit = store.audit()
        for name in audit.rolled_forward:
            print(f"audit: recovered committed shard {name}", file=sys.stderr)
        if audit.quarantined:
            for rec in audit.quarantined:
                # An audit record is a committed entry's: seeded, runs >= 1.
                print(
                    f"audit: quarantined {rec.filename} [{rec.reason}] "
                    f"({rec.n_runs} runs lost, seeds {rec.seed_start}.."
                    f"{rec.seed_start + rec.n_runs - 1}): {rec.detail}",
                    file=sys.stderr,
                )
            print(
                f"audit: {audit.runs_lost} of "
                f"{audit.runs_lost + store.n_runs} runs lost to quarantine; "
                f"analysis continues over the {store.n_runs} surviving runs",
                file=sys.stderr,
            )
        if audit.orphans:
            print(
                "audit: ignoring unregistered shard files: "
                + ", ".join(audit.orphans),
                file=sys.stderr,
            )
        if store.n_shards == 0:
            print("audit left no usable shards; nothing to analyse", file=sys.stderr)
            return 1
    # Pruning needs only the sufficient statistics, streamed shard by
    # shard; no run matrix is materialised for it.
    analysis = AnalysisEngine().analyze_store(
        store,
        method=args.method,
        strategy=DiscardStrategy(args.strategy),
        max_predictors=args.top,
        stats_only=args.stats_only,
        measure=args.measure,
    )
    pruning = analysis.pruning
    print(
        f"pruning kept {pruning.n_kept}/{pruning.n_initial} predicates "
        "(scored incrementally)"
    )
    if args.stats_only:
        _print_stats_ranking(store.table(), analysis, args.top)
        return 0
    print(f"elimination selected {len(analysis.elimination)}")
    print(_predictor_table(analysis))
    return 0


def _print_stats_ranking(table, analysis, top) -> None:
    """Print the pruning survivors ranked by the analysis's measure.

    The ``--stats-only`` output of archives and stores alike; ties
    resolve in ascending predicate-index order.
    """
    from repro.core.ranking import rank

    label = analysis.measure.capitalize()
    width = max(10, len(label))
    print(f"{label:>{width}}  {'Increase':>8}  {'F':>6}  {'S':>6}  predicate")
    for entry in rank(
        table,
        analysis.scores,
        analysis.measure_values,
        candidates=analysis.pruning.kept,
        top=top,
    ):
        print(
            f"{entry.sort_key:>{width}.3f}  {entry.row.increase:>8.3f}  "
            f"{entry.row.F:>6}  {entry.row.S:>6}  {entry.predicate.name}"
        )


def _predictor_table(analysis) -> str:
    """The elimination's predictor table, with per-bug co-occurrence
    columns when the population carries ground truth."""
    reports, truth = analysis.reports, analysis.truth
    elimination = analysis.elimination
    co = None
    bug_ids = None
    if truth is not None and truth.bug_ids:
        bug_ids = list(truth.bug_ids)
        co = cooccurrence_table(
            reports, truth, [s.predicate.index for s in elimination.selected]
        )
    return format_predictor_table(elimination, co, bug_ids=bug_ids)


def _analyze(args) -> int:
    """Analyse a shard store (a directory) or a saved archive."""
    from repro import obs

    if args.profile:
        obs.configure()
    try:
        if os.path.isdir(args.archive):
            code = _analyze_store(args)
        else:
            code = _analyze_archive(args)
        if args.profile:
            obs.print_profile()
        return code
    finally:
        obs.shutdown()


def _analyze_archive(args) -> int:
    """Re-run the analysis half of the pipeline on a saved archive."""
    from repro.core.engine import AnalysisEngine
    from repro.core.io import load_reports

    reports, truth = load_reports(args.archive)
    print(
        f"loaded {reports.n_runs} runs ({reports.num_failing} failing), "
        f"{reports.n_predicates} predicates",
        file=sys.stderr,
    )
    analysis = AnalysisEngine().analyze_reports(
        reports,
        truth=truth,
        method=args.method,
        strategy=DiscardStrategy(args.strategy),
        max_predictors=args.top,
        stats_only=args.stats_only,
        measure=args.measure,
    )
    pruning = analysis.pruning
    if args.stats_only:
        print(f"pruning kept {pruning.n_kept}/{pruning.n_initial} predicates")
        _print_stats_ranking(reports.table, analysis, args.top)
        return 0
    print(
        f"pruning kept {pruning.n_kept}/{pruning.n_initial} predicates; "
        f"elimination selected {len(analysis.elimination)}"
    )
    print(_predictor_table(analysis))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
