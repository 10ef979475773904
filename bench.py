"""Benchmark harness. Prints ONE JSON line:
{"metric": ..., "value": <headline sec>, "unit": "sec",
 "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
 "events_per_sec": ..., "usable_cpus": ..., "ray_version": ...,
 "pyarrow_version": ...}

Headline = the flagship CDC replay (synthesized tokenized-sequence
changelog → validated → LWW-applied → exactly-once Parquet lake), the
north-star metric being change-events/sec to converged state.

--scaling: runs the same job in fresh processes at num_cpus=N and 4N,
with N = RAY_GRAFT_CPUS // 4, and reports both throughputs, the scaling
efficiency and the two-point fit t(c) = B + W/c (the in-sandbox stand-in
for the N vs 4N cluster-size criterion — see BASELINE.md).
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# /dev/shm: tmpfs page population is fast in this sandbox while regular
# file-backed/anon first-touch is pathologically slow (BASELINE.md)
WORK_ROOT = os.environ.get("RAYCDC_BENCH_WORK", "/dev/shm/raycdc_bench")


def host_facts() -> dict:
    """What a reader needs to compare two bench JSONs: the cores this
    process may actually run on and the engine library versions."""
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ray_version": importlib.metadata.version("ray"),
        "pyarrow_version": importlib.metadata.version("pyarrow"),
    }


def run_bench() -> dict:
    import ray

    # glibc/numpy large allocations reuse the heap instead of fresh mmaps
    # (each fresh mmap re-faults pages at this sandbox's pathological
    # first-touch rate — BASELINE.md). Set before ray.init so workers
    # inherit it. Arrow's jemalloc pool is tuned per worker
    # (raycdc.util.tune_allocators).
    os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", "1073741824")
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as e
    from raycdc.pipelines import SCALE_PRESETS, ensure_synth_inputs, sf_of

    sf = sf_of(SF_DIR)
    n_base, n_events, num_partitions, n_segments, min_len, max_len = SCALE_PRESETS.get(
        sf, SCALE_PRESETS["0.1"]
    )
    # scaling-run overrides: a larger event count / segment fan-out makes
    # scalable work dominate the per-epoch fixed costs (see BASELINE.md)
    n_events = int(os.environ.get("RAYCDC_BENCH_EVENTS", n_events))
    n_segments = int(os.environ.get("RAYCDC_BENCH_SEGMENTS", n_segments))
    min_len = int(os.environ.get("RAYCDC_BENCH_MINLEN", min_len))
    max_len = int(os.environ.get("RAYCDC_BENCH_MAXLEN", max_len))

    # untimed: synthesis is cached on disk (ray-parallel on first run);
    # warm the page cache with one read
    base_dir, log_dir = ensure_synth_inputs(
        WORK_ROOT, n_base, n_events, n_segments, min_len=min_len, max_len=max_len
    )
    for d in (base_dir, log_dir):
        for f in os.listdir(d):
            with open(os.path.join(d, f), "rb") as fh:
                fh.read()

    timings: dict[str, float] = {}

    # ---- headline: CDC apply throughput — tail the changelog into a
    # pre-seeded lake (the north-star metric is change-events/sec through
    # the apply; base seeding is one-time setup and is not timed).
    import shutil

    import ray.data

    from raycdc.apply import base_as_inserts
    from raycdc.lake import LakeTable
    from raycdc.util import read_parquet_clean
    from raycdc.tailer import tail_until_caught_up

    lake_dir = os.path.join(WORK_ROOT, f"bench_lake_p{num_partitions}")

    l0_compact = int(os.environ.get("RAYCDC_BENCH_L0_COMPACT", "24"))

    def prep_lake() -> LakeTable:
        shutil.rmtree(lake_dir, ignore_errors=True)
        lake = LakeTable(lake_dir, num_partitions=num_partitions, l0_compact_files=l0_compact)
        lake.init()
        lake.apply(base_as_inserts(read_parquet_clean(base_dir)), ["__base__"])
        return lake

    # RAYCDC_BENCH_TRANSFORM=deid runs the reference-analog per-record
    # work (rules + change-set envelope crypto — the DeidentifyEncrypt
    # stage) on the timed tail, the workload DeidentifyEncryptDICOM
    # performs per image. --scaling uses it so the timed tail carries the
    # reference's per-record CPU profile (see BASELINE.md). tail_once
    # hands the transform each segment group's LWW winners, not every
    # event, so with kdf="row" a run pays one KDF per group winner.
    transform = None
    tname = os.environ.get("RAYCDC_BENCH_TRANSFORM", "")
    if tname == "deid":
        from raycdc.pipelines import deid_transform

        transform = deid_transform(
            batch_size=None, kdf=os.environ.get("RAYCDC_BENCH_DEID_KDF", "batch"))
    elif tname:
        raise ValueError(f"unknown RAYCDC_BENCH_TRANSFORM {tname!r}")

    def tail(lake: LakeTable) -> None:
        # whole-group batches: one fused task and one L0 run per group of
        # segments, folded as one (see tail_once docstring)
        tail_until_caught_up(lake, log_dir, transform=transform, batch_size=None)

    # untimed warm-up pass: faults worker heaps / object store pages once
    # (this sandbox's first-touch page population is pathologically slow
    # AND noisy — see BASELINE.md; warmed-steady-state is the comparable
    # regime). Timed value = min of N passes to suppress host noise.
    lake = prep_lake()
    tail(lake)

    headline = float("inf")
    for _ in range(int(os.environ.get("RAYCDC_BENCH_PASSES", "2"))):
        lake = prep_lake()  # untimed reset (re-seed)
        t0 = time.time()
        tail(lake)
        headline = min(headline, time.time() - t0)
    # exact converged count: one merge-on-read scan, timed on its own
    # (L0 epochs defer the fold to read/compaction by design)
    t0 = time.time()
    n_rows = lake.read().count()
    read_sec = time.time() - t0
    timings["cdc_replay_tokens"] = round(headline, 3)

    # ---- secondary pipelines over the driver-provided sf tables
    def consume(res):
        import ray.data

        if isinstance(res, ray.data.Dataset):
            for _ in res.iter_batches(batch_size=None, batch_format="pyarrow"):
                pass
        return res

    qs = e.queries()
    secondary = () if os.environ.get("RAYCDC_BENCH_SKIP_QUERIES") else (
        # date_shift is benched via the shuffle variant — the path that
        # survives doc_id-cardinality keys at 100 TB (the broadcast variant
        # is guarded by max_keys and would be the wrong number to track)
        "cdc_lww_latest", "cdc_first_writer", "cdc_date_shift_shuffle",
        "cdc_date_shift", "q1_lineitem",
        "dedup_exact", "text_token_count", "knn_brute", "sessionize_events",
        "orders_rank_per_customer", "lineitem_stats",
        "docs_edit_distance", "lineitem_shared_scan")
    # same discipline as the headline: one untimed warm-up (faults worker
    # heaps / page cache), then min-of-N — the round-2 single-pass timing
    # made host page-population phases look like 2-3x engine regressions
    for name in secondary:
        if name not in qs:
            continue
        consume(qs[name](SF_DIR))  # warm-up, untimed
        best = float("inf")
        for _ in range(2):
            t0 = time.time()
            consume(qs[name](SF_DIR))
            best = min(best, time.time() - t0)
        timings[name] = round(best, 3)

    out = {
        "metric": "cdc_replay_wall_sec",
        "value": timings["cdc_replay_tokens"],
        "unit": "sec",
        "queries": timings,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "n_events": n_events,
        "rows_converged": n_rows,
        "read_sec": round(read_sec, 3),
        "events_per_sec": round(n_events / headline, 1),
        **host_facts(),
    }
    ray.shutdown()
    return out


# The --scaling preset: the timed tail runs the reference's real
# per-event work (the deid rules + sealed change-set envelope,
# DeidentifyEncryptDICOM's per-image crypto, with kdf="row" = one PBKDF2
# per record as the reference seals one envelope per image), so per-event
# CPU dominates and N-vs-4N exercises compute scaling rather than this
# single box's shared page-population bandwidth. 64 segments = 64 fused
# ingest tasks; the short token payload keeps the byte term small next to
# the crypto term. In-tail compaction is deferred (threshold above the run
# count): compaction is maintenance, timed in the headline bench. Each
# variable can be overridden from the environment (see BASELINE.md).
SCALING_PRESET = {
    "RAYCDC_BENCH_EVENTS": "12000000",
    "RAYCDC_BENCH_SEGMENTS": "64",
    "RAYCDC_BENCH_MINLEN": "4",
    "RAYCDC_BENCH_MAXLEN": "8",
    "RAYCDC_BENCH_PASSES": "2",
    "RAYCDC_BENCH_SKIP_QUERIES": "1",
    "RAYCDC_BENCH_TRANSFORM": "deid",
    "RAYCDC_BENCH_DEID_KDF": "row",
    "RAYCDC_BENCH_L0_COMPACT": "1000",
}


def scaling_levels(cpus: int) -> tuple[int, int]:
    """The two parallelism levels (N, 4N) of the scaling run, N = cpus // 4."""
    n = cpus // 4
    if n < 1:
        raise ValueError(f"--scaling needs RAY_GRAFT_CPUS >= 4, got {cpus}")
    return n, 4 * n


def scaling_fit(n: int, sec_n: float, sec_4n: float) -> dict:
    """Scaling efficiency from N to 4N plus the two-point fit
    t(c) = B + W/c: W is the CPU-scalable work (cpu-seconds), B the part
    that does not shrink with more cpus."""
    w = (sec_n - sec_4n) / (1.0 / n - 1.0 / (4 * n))
    return {
        "scaling_efficiency": round(sec_n / sec_4n / 4, 3),
        "cpu_work_cpu_sec": round(w, 1),
        "unscalable_sec": round(max(0.0, sec_4n - w / (4 * n)), 2),
    }


def run_scaling() -> dict:
    n, n4 = scaling_levels(NUM_CPUS)

    def one(ncpu: int) -> dict:
        env = {**SCALING_PRESET, **os.environ, "RAY_GRAFT_CPUS": str(ncpu)}
        p = subprocess.run([sys.executable, os.path.abspath(__file__)],
                           env=env, capture_output=True, text=True)
        if p.returncode:
            raise RuntimeError(f"bench child at num_cpus={ncpu} exited "
                               f"{p.returncode}; stderr tail:\n{p.stderr[-2048:]}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    one(n)  # untimed warm-up: synthesizes the input and warms the page cache
    lo, hi = one(n), one(n4)
    return {
        "metric": "cdc_replay_scaling",
        "levels": [n, n4],
        f"sec_{n}": lo["value"],
        f"events_per_sec_{n}": lo["events_per_sec"],
        f"sec_{n4}": hi["value"],
        f"events_per_sec_{n4}": hi["events_per_sec"],
        **scaling_fit(n, lo["value"], hi["value"]),
        "sf": lo["sf"],
        "n_events": lo["n_events"],
        **host_facts(),
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
