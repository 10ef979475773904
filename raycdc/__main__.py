"""raycdc CLI — the operational surface a pipeline operator uses.

Commands mirror the reference's deployment lifecycle (enable controller
service → wire processors → run flow → watch stats):

    python -m raycdc synth  WORK --base 10000 --events 100000 --segments 8
    python -m raycdc init   LAKE --partitions 64
    python -m raycdc seed   LAKE BASE_DIR
    python -m raycdc tail   LAKE LOG_DIR [--dead-letter DIR] [--rules rules.json]
                                         [--segments-per-epoch N] [--watch SECONDS]
    python -m raycdc status LAKE [--exact]
    python -m raycdc epochs LAKE
    python -m raycdc read   LAKE --out DIR [--epoch N]
    python -m raycdc vacuum LAKE [--keep 1]
    python -m raycdc compact LAKE [--drop-tombstones]

The CLI owns its Ray session (scripts own sessions; library code never
calls ray.init — see __ray_entry__ contract).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_up(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="raycdc")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth", help="generate deterministic base+changelog fixtures")
    sp.add_argument("work_root")
    sp.add_argument("--base", type=int, default=10_000)
    sp.add_argument("--events", type=int, default=100_000)
    sp.add_argument("--segments", type=int, default=8)
    sp.add_argument("--min-len", type=int, default=64)
    sp.add_argument("--max-len", type=int, default=1024)

    ip = sub.add_parser("init", help="bootstrap an empty lake (idempotent)")
    ip.add_argument("lake")
    ip.add_argument("--partitions", type=int, default=64)

    se = sub.add_parser("seed", help="apply a base table as the initial state")
    se.add_argument("lake")
    se.add_argument("base_dir")

    tp = sub.add_parser("tail", help="apply pending changelog segments (exactly-once)")
    tp.add_argument("lake")
    tp.add_argument("log_dir")
    tp.add_argument("--dead-letter", default=None)
    tp.add_argument("--rules", default=None, help="JSON rule-config file (attribute evolution)")
    tp.add_argument("--segments-per-epoch", type=int, default=None)
    tp.add_argument("--watch", type=float, default=None, help="poll every N seconds")

    st = sub.add_parser("status", help="manifest summary")
    st.add_argument("lake")
    st.add_argument("--exact", action="store_true",
                    help="compute exact live rows (merge-on-read scan; needs Ray)")

    rd_ = sub.add_parser("read", help="export the converged table snapshot")
    rd_.add_argument("lake")
    rd_.add_argument("--out", required=True)
    rd_.add_argument("--epoch", type=int, default=None,
                     help="time-travel: read the table state as of this committed "
                          "epoch (any snapshot retained by vacuum --keep)")

    ep = sub.add_parser("epochs", help="list epochs readable via read --epoch")
    ep.add_argument("lake")

    vp = sub.add_parser("vacuum", help="drop unreferenced old epoch files")
    vp.add_argument("lake")
    vp.add_argument("--keep", type=int, default=1)

    cp = sub.add_parser("compact", help="fold each partition's runs, pending ones "
                                        "included, into one fresh run")
    cp.add_argument("lake")
    cp.add_argument("--drop-tombstones", action="store_true",
                    help="also drop delete tombstones (only safe once upstream "
                         "segments can no longer be replayed)")

    lp = sub.add_parser("lineage", help="per-partition provenance from manifests")
    lp.add_argument("lake")
    lp.add_argument("--pid", type=int, default=None, help="restrict to one partition")

    mp = sub.add_parser(
        "mv", help="incrementally refresh a grouped SUM/COUNT materialized view"
    )
    mp.add_argument("lake")
    mp.add_argument("mv_path", help="view directory (created on first refresh)")
    mp.add_argument("--group", required=True, help="group-by column")
    mp.add_argument("--sum", action="append", default=[], metavar="OUT=COL",
                    help="sum aggregate (repeatable)")
    mp.add_argument("--count", action="append", default=[], metavar="OUT",
                    help="row-count aggregate (repeatable)")

    args = p.parse_args(argv)

    if args.cmd == "synth":
        _ray_up(args.num_cpus)
        from raycdc.pipelines import ensure_synth_inputs

        base_dir, log_dir = ensure_synth_inputs(
            args.work_root, args.base, args.events, args.segments,
            min_len=args.min_len, max_len=args.max_len,
        )
        print(json.dumps({"base_dir": base_dir, "log_dir": log_dir}))
        return 0

    from raycdc.lake import LakeTable

    try:
        lk = LakeTable(args.lake, **({"num_partitions": args.partitions} if args.cmd == "init" else {}))
    except ValueError as e:  # a manifest this engine refuses
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.cmd == "init":
        m = lk.init()
        print(json.dumps({"lake": args.lake, "epoch": m["epoch"], "partitions": m["num_partitions"]}))
        return 0
    if not lk.exists():
        print(f"error: no lake at {args.lake} (run `init` first)", file=sys.stderr)
        return 2

    if args.cmd == "seed":
        _ray_up(args.num_cpus)
        import ray.data

        from raycdc.apply import base_as_inserts

        if "__base__" in lk.manifest()["segments_applied"]:
            print(json.dumps({"noop": True, "reason": "already seeded"}))
            return 0
        from raycdc.util import read_parquet_clean

        r = lk.apply(base_as_inserts(read_parquet_clean(args.base_dir)), ["__base__"])
        print(json.dumps(r))
        return 0

    if args.cmd == "tail":
        _ray_up(args.num_cpus)
        from raycdc.tailer import tail_forever, tail_until_caught_up

        transform = None
        if args.rules:
            from raycdc.rules import RuleSet

            rs = RuleSet.from_json(open(args.rules).read())
            problems = rs.validate(None)
            if problems:
                print("invalid rules: " + "; ".join(problems), file=sys.stderr)
                return 2
            transform = lambda ds: ds.map_batches(rs, batch_format="pyarrow")
        kw = dict(
            max_segments_per_epoch=args.segments_per_epoch,
            transform=transform,
            dead_letter_dir=args.dead_letter,
        )
        if args.watch is not None:
            for r in tail_forever(lk, args.log_dir, poll_s=args.watch, **kw):
                print(json.dumps(r), flush=True)
            return 0
        res = tail_until_caught_up(lk, args.log_dir, **kw)
        for r in res:
            print(json.dumps(r))
        if not res:
            print(json.dumps({"caught_up": True}))
        return 0

    if args.cmd == "status":
        from raycdc.lake import _live_rows, _pending

        m = lk.manifest()
        live = _live_rows(m["l0"])  # None while runs are pending (use --exact)
        if args.exact and live is None:
            _ray_up(args.num_cpus)
            live = lk.live_rows()
        print(
            json.dumps(
                {
                    "epoch": m["epoch"],
                    "partitions": m["num_partitions"],
                    "segments_applied": len(m["segments_applied"]),
                    "live_rows": live,
                    # rows in every run (tombstones included)
                    "state_rows": sum(e["rows"] for e in m["l0"]),
                    "pending_l0_runs": len(_pending(m["l0"])),
                    "last_history": (m.get("history") or [None])[-1],
                }
            )
        )
        return 0

    if args.cmd == "epochs":
        print(json.dumps({"epochs": lk.epochs(), "current": lk.manifest()["epoch"]}))
        return 0

    if args.cmd == "read":
        _ray_up(args.num_cpus)
        ds = lk.read(epoch=args.epoch)
        ds.write_parquet(args.out)
        import pyarrow.parquet as pq

        rows = sum(
            pq.ParquetFile(os.path.join(args.out, f)).metadata.num_rows
            for f in os.listdir(args.out)
            if f.endswith(".parquet")
        )
        print(json.dumps({"out": args.out, "rows": rows}))
        return 0

    if args.cmd == "vacuum":
        removed = lk.vacuum(keep_epochs=args.keep)
        print(json.dumps({"removed": len(removed)}))
        return 0

    if args.cmd == "compact":
        _ray_up(args.num_cpus)
        dropped = lk.compact(drop_tombs=args.drop_tombstones)
        m = lk.manifest()
        print(json.dumps({"epoch": m["epoch"], "tombstones_dropped": dropped}))
        return 0

    if args.cmd == "lineage":
        from raycdc.lake import lineage

        for row in lineage(lk, pid=args.pid):
            print(json.dumps(row))
        return 0

    if args.cmd == "mv":
        _ray_up(args.num_cpus)
        from raycdc.mv import MaterializedAggregate

        specs = {}
        for item in args.sum:
            out, _, col = item.partition("=")
            if not col:
                print(f"error: --sum expects OUT=COL, got {item!r}", file=sys.stderr)
                return 2
            specs[out] = (col, "sum")
        for out in args.count:
            specs[out] = (None, "count")
        if not specs:
            print("error: give at least one --sum/--count", file=sys.stderr)
            return 2
        view = MaterializedAggregate(lk, args.group, specs, args.mv_path)
        try:
            t = view.refresh()
        except ValueError as e:  # a missing or float column, or a view newer than the lake
            print(f"error: {e}", file=sys.stderr)
            return 2
        print(json.dumps({"epoch": view.epoch(), "groups": t.num_rows}))
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
