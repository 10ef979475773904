"""raycdc benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload tail_bulk --seed 1 --seconds 30 --trace 0

Run from the repository root. The run generates its inputs from
``--seed``, starts a local Ray session sized from ``nproc``, repeats the
workload's pass for ``--seconds`` seconds in a work directory under the
repository root (removed afterwards) and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs untraced and traced passes
and reports the per-layer metrics (see ``perfbench/README.md``).
Without the ``raycdc`` sources beside it, it exits with status 2.
"""

from __future__ import annotations

import argparse
from collections import Counter
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = {
    "setup_s": "s",
    "ingest_events_per_s": "1/s",
    "commit_lag_p50_s": "s",
    "commit_lag_p90_s": "s",
    "bytes_written_per_event": "B/event",
}
PER_LAYER = {
    "tailer.discover_s": "s",
    "tailer.read_s": "s",
    "tailer.epochs": "count",
    "tailer.segments": "count",
    "routing.validate_s": "s",
    "routing.rows_in": "count",
    "routing.rows_dead_lettered": "count",
    "rules.apply_s": "s",
    "identity.pseudo_id_s": "s",
    "diffmerge.changeset_s": "s",
    "apply.lww_fold_ingest_s": "s",
    "apply.lww_fold_read_s": "s",
    "apply.rows_in": "count",
    "apply.rows_out": "count",
    "apply.superseded_ratio": "ratio",
    "util.bucket_hash_s": "s",
    "lake.sort_s": "s",
    "lake.encode_s": "s",
    "lake.fsync_s": "s",
    "lake.commit_s": "s",
    "lake.apply_unattributed_s": "s",
    "lake.compactions": "count",
    "lake.compact_s": "s",
    "lake.read_scan_s": "s",
    "lake.read_fold_s": "s",
    "lake.l0_runs_at_read": "count",
    "lake.manifest_bytes_written": "bytes",
    "lake.run_files": "count",
    "gen.late_p90_s": "s",
    "gen.backlog_max_segments": "count",
    "trace.overhead_ratio": "ratio",
    "trace.tail_busy_s": "s",
    "trace.tail_accounted_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}
SETUPS = 3  # lake set-ups per run at least (two before the passes); setup_s takes the median
OBJECT_STORE_BYTES = 512 << 20


def host_facts() -> dict:
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        nproc = len(os.sched_getaffinity(0))
    import duckdb
    import polars
    import pyarrow
    import ray

    return {"nproc": nproc, "affinity_cores": len(os.sched_getaffinity(0)),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__, "polars": polars.__version__,
            "duckdb": duckdb.__version__, "python": sys.version.split()[0]}


def start_ray(num_cpus: int, trace_dir: str | None) -> float:
    """Start the session; returns the ``ray.init`` wall time. Workers get
    the repository root on ``PYTHONPATH`` so ``raycdc`` (and the tracer)
    import whatever their working directory."""
    import ray

    path = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    env = {"PYTHONPATH": path, "MALLOC_MMAP_THRESHOLD_": "1073741824"}
    runtime_env = {"env_vars": env}
    if trace_dir:
        from perfbench.trace import TRACE_DIR_ENV

        env[TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.install_worker"
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             runtime_env=runtime_env)
    took = time.perf_counter() - t0
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return took


def end_to_end(runner, passes) -> dict[str, float]:
    from perfbench.workloads import quantile

    ok = [p for p in passes if p.error is None]
    lags = [x for p in ok for x in p.lags]

    def med(xs):
        return statistics.median(xs) if xs else float("nan")

    return {
        "setup_s": med(runner.setups),
        "ingest_events_per_s": med([runner.events_in(p.segments_offered) / p.tail_s for p in ok]),
        "commit_lag_p50_s": quantile(lags, 0.5),
        "commit_lag_p90_s": quantile(lags, 0.9),
        "bytes_written_per_event": med(
            [p.bytes_written / runner.events_in(p.segments_offered) for p in ok]),
    }


def per_layer(runner, plain, traced, spans) -> dict[str, float]:
    from perfbench.layers import layer_metrics
    from perfbench.workloads import quantile

    rows = []
    for p in traced:
        if p.error is not None or p.span_ids is None:
            continue
        m = layer_metrics(spans, os.getpid(), *p.span_ids)
        m.update({
            "tailer.epochs": p.epochs, "tailer.segments": p.segments_committed,
            "lake.l0_runs_at_read": p.l0_runs_at_read, "lake.read_scan_s": p.read_s,
            "lake.manifest_bytes_written": p.manifest_bytes, "lake.run_files": p.run_files,
            "gen.late_p90_s": quantile(p.late, 0.9) if p.late else 0.0,
            "gen.backlog_max_segments": p.backlog_max,
        })
        rows.append(m)
    out = {k: statistics.median([r.get(k, 0.0) for r in rows]) if rows else float("nan")
           for k in PER_LAYER}

    def busy_per_event(ps):
        xs = [p.busy_s / runner.events_in(p.segments_offered) for p in ps if p.error is None]
        return statistics.median(xs) if xs else float("nan")

    out["trace.overhead_ratio"] = busy_per_event(traced) / busy_per_event(plain)
    return out


def measure(runner, seconds: float, trace_dir: str | None):
    """Repeat the workload's pass for about ``seconds``: a pass is not
    started when less than half a pass's time is left. A trickle run is
    one pass over its whole schedule. Traced runs alternate untraced and
    traced passes (a trickle run splits its schedule in two halves).
    Returns (untraced passes, traced passes); stops at a failed pass."""
    from perfbench.trace import set_enabled

    plain, traced = [], []
    if runner.shape.rate:
        if not trace_dir:
            return [runner.run_pass()], traced
        half = max(2, runner.n_segments // 2)
        plain.append(runner.run_pass(half))
        if not plain[0].error:
            set_enabled(trace_dir, True)
            traced.append(runner.run_pass(half))
            set_enabled(trace_dir, False)
        return plain, traced
    start = time.perf_counter()
    while True:
        on = bool(trace_dir) and len(plain) > len(traced)
        if trace_dir:
            set_enabled(trace_dir, on)
        p = runner.run_pass()
        (traced if on else plain).append(p)
        if p.error:
            break
        n = len(plain) + len(traced)
        per = (time.perf_counter() - start) / n
        left = start + seconds - time.perf_counter()
        if left < 0.5 * per and (traced or not trace_dir):
            break
    if trace_dir:
        set_enabled(trace_dir, False)
    return plain, traced


def run(args) -> int:
    from perfbench import workloads

    shape = workloads.scaled(workloads.WORKLOADS[args.workload], args.scale)
    facts = host_facts()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = os.path.join(ROOT, ".perfbench_work", tag)
    trace_dir = os.path.join(work, "trace") if args.trace else None
    os.makedirs(trace_dir or work, exist_ok=True)
    import ray

    clock = {}
    span_counts = {}
    t0 = time.perf_counter()
    try:
        clock["ray_init_s"] = start_ray(facts["nproc"], trace_dir)
        recorder = None
        if trace_dir:
            from perfbench.trace import install_driver

            recorder = install_driver(trace_dir)
        runner = workloads.Runner(shape, args.seed, args.seconds, work, recorder)
        started = ray.remote(workloads.warm_worker).remote()
        runner.prepare()
        ray.get(started)
        clock["prepare_s"] = time.perf_counter() - t0
        runner.warm(SETUPS - 1)
        clock["warm_s"] = time.perf_counter() - t0
        plain, traced = measure(runner, args.seconds, trace_dir)
        clock["measure_s"] = time.perf_counter() - t0
        passes = plain + traced
        if args.trace:
            from perfbench.trace import load_spans

            spans = load_spans(trace_dir, recorder)
            metrics = per_layer(runner, plain, traced, spans)
            span_counts = dict(Counter(sp["name"] for sp in spans))
            units = PER_LAYER
        else:
            metrics = end_to_end(runner, passes)
            units = END_TO_END
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    clock["total_s"] = time.perf_counter() - t0

    attempted = sum(p.segments_offered for p in passes)
    failed = sum(p.segments_offered if p.error else 0 for p in passes)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": facts,
            "ray_num_cpus": facts["nproc"], "passes": len(passes), "setups": len(runner.setups),
            "segments_per_pass": runner.n_segments, "events_per_pass": runner.inputs.events,
            "failed_share": failed / attempted, "clock": clock, "spans": span_counts,
            "errors": sorted({p.error for p in passes if p.error})[:3],
            # not gated: many short Ray tasks, so they swing with host phases
            "read_s": statistics.median([p.read_s for p in passes]),
            "compact_s": statistics.median([p.compact_s for p in passes]),
            "pass_s": [{"setup": round(p.setup_s, 3), "tail": round(p.tail_s, 3),
                        "read": round(p.read_s, 3),
                        "compact": round(p.compact_s, 3),
                        "lag_max": round(max(p.lags, default=0.0), 3)} for p in passes]}
    print(json.dumps(info), flush=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["tail_bulk", "tail_trickle", "tail_deid"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the workload's inputs (tests use 0.05)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "raycdc", "__init__.py")):
        print(f"raycdc sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
