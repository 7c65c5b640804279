"""Run one workload of the pipeline benchmark and print its metrics.

Usage, from the repository root::

    python3 pipebench/run.py --workload ingest-ccrypt --seed 1 --seconds 20 --trace 0

The workloads are ``ingest-ccrypt``, ``trials-moss`` and ``rank-exif``
(see ``pipeline.WORKLOADS``).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it runs the same rounds, then a
traced phase of fixed work, and reports the per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The run measures the package under ``src/`` and
leaves nothing behind: its scratch stores live in ``.pipebench-work/``
until it exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".pipebench-work")

#: ``(name, unit, better)`` of every end-to-end metric, in print order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("overhead_x", "x", "lower"),
    ("upload_reports_per_s", "1/s", "higher"),
    ("upload_batch_p50_ms", "ms", "lower"),
    ("rank_p50_ms", "ms", "lower"),
    ("scores_p50_ms", "ms", "lower"),
    ("restart_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: ``(name, unit, better, what it should move)`` of every per-layer
#: metric.  Times are self times summed over the traced phase.
PER_LAYER = [
    ("instrument.s", "s", "lower", "setup_s / wall_s, a small share on every workload"),
    ("instrument.sites", "count", "lower", "setup_s / wall_s, a small share on every workload"),
    ("runtime.trial_s", "s", "lower", "overhead_x and runs_per_s on trials-moss"),
    ("runtime.plain_s", "s", "lower", "overhead_x on trials-moss (the baseline)"),
    ("runtime.trials", "count", "higher", "runs_per_s on trials-moss"),
    ("runtime.obs_per_trial", "count", "lower", "overhead_x on trials-moss"),
    ("client.spool_save_s", "s", "lower", "upload_reports_per_s, runs_per_s on ingest-ccrypt"),
    ("client.spool_list_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("client.spool_load_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("client.spool_remove_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("client.drain_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("client.batches", "count", "lower", "upload_reports_per_s on ingest-ccrypt"),
    ("client.retries", "count", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("protocol.encode_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("protocol.decode_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("protocol.validate_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("protocol.body_bytes", "bytes", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("protocol.wire_bytes", "bytes", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("serve.start_s", "s", "lower", "wall_s on every workload"),
    ("serve.ingest_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("serve.transport_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("serve.requests", "count", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("serve.flush_s", "s", "lower", "runs_per_s on ingest-ccrypt"),
    ("serve.refit_s", "s", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("serve.refits", "count", "lower", "upload_batch_p50_ms on ingest-ccrypt"),
    ("serve.restart_s", "s", "lower", "restart_p50_ms on rank-exif"),
    ("serve.scores_s", "s", "lower", "scores_p50_ms on rank-exif"),
    ("store.commit_s", "s", "lower", "runs_per_s on ingest-ccrypt"),
    ("store.shards", "count", "lower", "runs_per_s on ingest-ccrypt"),
    ("store.shard_bytes", "bytes", "lower", "runs_per_s on ingest-ccrypt"),
    ("store.open_s", "s", "lower", "rank_p50_ms on rank-exif"),
    ("store.stream_stats_s", "s", "lower", "rank_p50_ms and restart_p50_ms on rank-exif"),
    ("store.decode_s", "s", "lower", "rank_p50_ms and restart_p50_ms on rank-exif"),
    ("store.load_merged_s", "s", "lower", "rank_p50_ms on rank-exif"),
    ("store.audit_s", "s", "lower", "rank_p50_ms on rank-exif"),
    ("core.score_s", "s", "lower", "rank_p50_ms and scores_p50_ms on rank-exif"),
    ("core.eliminate_s", "s", "lower", "rank_p50_ms on rank-exif"),
    ("core.analyze_s", "s", "lower", "rank_p50_ms on rank-exif"),
    ("core.report_s", "s", "lower", "rank_p50_ms on rank-exif"),
    ("core.kept", "count", "lower", "rank_p50_ms on rank-exif"),
    ("core.predictors", "count", "lower", "rank_p50_ms on rank-exif"),
    ("unaccounted_s", "s", "lower", "none: traced wall not covered by a layer"),
    ("unaccounted_share", "ratio", "lower", "none: must stay below 0.05"),
    ("trace.wall_s", "s", "lower", "none: the traced phase's wall"),
    ("trace.overhead_x", "x", "lower", "none: traced / untraced round wall"),
]

#: Layer groups whose share of the traced wall shows each workload's design.
DOMINANT = {
    "ingest-ccrypt": ("client.", "protocol.", "serve.", "store.commit"),
    "trials-moss": ("runtime.",),
    "rank-exif": ("store.open", "store.stream_stats", "store.decode", "store.load_merged",
                  "store.audit", "core.", "serve.restart"),
}


def end_to_end(run, samples, pipeline) -> dict:
    """The end-to-end metrics of an untraced run, at the reference speed."""
    # rank-exif's rounds upload nothing; its write side is its set-up's.
    writes = samples if run.workload.round_trials else run.setup_writes
    rates = [runs / wall for runs, wall in zip(samples.round_runs, samples.round_wall)]
    return {
        "setup_s": pipeline.median(run.setup_s),
        "wall_s": pipeline.median(samples.round_wall),
        "runs_per_s": pipeline.median(rates),
        "overhead_x": pipeline.median(writes.overhead),
        "upload_reports_per_s": pipeline.ratio(writes.acked, writes.drain_s),
        "upload_batch_p50_ms": pipeline.median(writes.batch_ms),
        "rank_p50_ms": pipeline.median(samples.rank_ms),
        "scores_p50_ms": pipeline.median(samples.scores_ms),
        "restart_p50_ms": pipeline.median(samples.restart_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run, untraced, traced, tracer, traced_wall, pipeline) -> dict:
    """The per-layer metrics of the traced phase."""
    times = tracer.layer_times()
    layer = lambda name: times.get(name, 0.0)  # noqa: E731
    analysis = run.last_analysis
    unaccounted = traced_wall - sum(times.values())
    return {
        "instrument.s": layer("instrument"),
        "instrument.sites": run.sites,
        "runtime.trial_s": layer("runtime.trial"),
        "runtime.plain_s": layer("runtime.plain"),
        "runtime.trials": traced.trials,
        "runtime.obs_per_trial": traced.observations / max(traced.trials, 1),
        "client.spool_save_s": layer("client.spool_save"),
        "client.spool_list_s": layer("client.spool_list"),
        "client.spool_load_s": layer("client.spool_load"),
        "client.spool_remove_s": layer("client.spool_remove"),
        "client.drain_s": layer("client.drain"),
        "client.batches": len(traced.batch_ms),
        "client.retries": traced.retries,
        "protocol.encode_s": layer("protocol.encode"),
        "protocol.decode_s": layer("protocol.decode"),
        "protocol.validate_s": layer("protocol.validate"),
        "protocol.body_bytes": tracer.totals["protocol.body_bytes"],
        "protocol.wire_bytes": tracer.totals["protocol.wire_bytes"],
        "serve.start_s": layer("serve.start"),
        "serve.ingest_s": layer("serve.ingest"),
        "serve.transport_s": layer("serve.transport"),
        "serve.requests": tracer.calls["serve.ingest"],
        "serve.flush_s": layer("serve.flush"),
        "serve.refit_s": layer("serve.refit"),
        "serve.refits": tracer.calls["serve.refit"],
        "serve.restart_s": layer("serve.restart"),
        "serve.scores_s": layer("serve.scores"),
        "store.commit_s": layer("store.commit"),
        "store.shards": tracer.calls["store.commit"],
        "store.shard_bytes": tracer.totals["store.shard_bytes"],
        "store.open_s": layer("store.open"),
        "store.stream_stats_s": layer("store.stream_stats"),
        "store.decode_s": layer("store.decode"),
        "store.load_merged_s": layer("store.load_merged"),
        "store.audit_s": layer("store.audit"),
        "core.score_s": layer("core.score"),
        "core.eliminate_s": layer("core.eliminate"),
        "core.analyze_s": layer("core.analyze"),
        "core.report_s": layer("core.report"),
        "core.kept": int(analysis.pruning.n_kept),
        "core.predictors": len(analysis.elimination.selected),
        "unaccounted_s": unaccounted,
        "unaccounted_share": unaccounted / traced_wall,
        "trace.wall_s": traced_wall,
        "trace.overhead_x": (
            pipeline.median(traced.round_wall) / pipeline.median(untraced.round_wall)
        ),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Run one workload; returns ``(run, metrics, report_lines)``."""
    import pipeline

    run = pipeline.Run(name, seed, workdir)
    lines = []
    try:
        for _ in range(run.workload.setups):
            run.tally.guard(run.setup, run.setup_writes)
        samples = pipeline.Samples()
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            run.tally.guard(run.round, index, samples)
            index += 1
        if trace:
            traced = pipeline.Samples()
            tracer, traced_wall = run.trace(traced)
            metrics = per_layer(run, samples, traced, tracer, traced_wall, pipeline)
            lines += layer_report(name, tracer, traced_wall)
        else:
            metrics = end_to_end(run, samples, pipeline)
            lines += tails(run, samples, pipeline)
    finally:
        run.close()
    return run, metrics, lines


def tails(run, samples, pipeline) -> list:
    """Tail latencies, with the percentile and sample count they rest on."""
    writes = samples if run.workload.round_trials else run.setup_writes
    lines = []
    for name, values in (("upload_batch_tail_ms", writes.batch_ms), ("rank_tail_ms", samples.rank_ms)):
        if not values:
            continue
        value, percentile, n = pipeline.tail(values)
        lines.append(f"  {name:<24} {value:12.3f} ms   (p{percentile:.1f} of {n} samples)")
    return lines


def layer_report(name: str, tracer, traced_wall: float) -> list:
    """Self time per layer as a share of the traced wall, and the design check."""
    times = tracer.layer_times()
    lines = [f"  traced wall {traced_wall:.3f} s; self time per layer:"]
    for layer, seconds in sorted(times.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<22} {seconds:10.4f} s  {100 * seconds / traced_wall:5.1f}%")
    share = sum(s for layer, s in times.items() if layer.startswith(DOMINANT[name])) / traced_wall
    lines.append(f"  dominant layers {'+'.join(DOMINANT[name])}: {100 * share:.1f}% of the traced wall")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no package to measure under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        run, metrics, lines = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another run still uses it

    tally = run.tally
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "load": "closed loop, 1 client, 1 batch in flight; threads: client + daemon handler",
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    moves = {name: f"  -> {target}" for name, _, _, target in PER_LAYER}
    for name, value in metrics.items():
        print(f"  {name:<24} {value:12.4f} {units[name]:<6}{moves.get(name, '')}")
    print("\n".join(lines))
    ratio = tally.failed / tally.attempted
    print(f"  {'failed_ratio':<24} {ratio:12.4f} ratio ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:20]:
        print(f"  failed: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
