"""Low-CPU robustness gate: run EVERY queries() entry at num_cpus=4.

Fixed-size actor pools (concurrency=N) RESERVE N CPUs; stacked pools, or
one pool as wide as the cluster, starve the upstream ReadParquet task
pool and the streaming executor makes zero progress forever (observed
twice: IVF assign+score, and simhash's 4-actor SimHasher on 4 CPUs).
pytest fixtures built on from_arrow never catch this — blocks arrive
pre-materialized — so this sweep reads the real parquet inputs.

The queries run in a child process that owns the Ray session and prints
``[start] <name>`` before each query, then ``[ok]`` or ``[FAIL]``. If
the child dies (Ray 2.49 can abort the process on a ``task_manager.cc``
check failure), the query it was running is reported
``[FAIL] <name>: aborted`` and a new child resumes at the NEXT query, so
one abort no longer hides every later result. Nothing is retried.

Usage: python scripts/lowcpu_sweep.py [sf_dir]   (default sf0.001)
       python scripts/lowcpu_sweep.py SF_DIR --from N   (queries N.. in
       this process, no child: what each child runs)
Exit code 1 if any query fails; a HANG (no output progression) is the
deadlock signature — run under `timeout`.
"""

import os
import signal
import subprocess
import sys
import time

import pyarrow as pa

import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_queries(sf_dir: str, start: int) -> int:
    """Run queries ``start..`` in this process's own Ray session."""
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as e

    for name, fn in list(e.queries().items())[start:]:
        print(f"[start] {name}", flush=True)
        t0 = time.time()
        try:
            res = fn(sf_dir)
            if isinstance(res, ray.data.Dataset):
                n = res.count()
            elif isinstance(res, pa.Table):
                n = res.num_rows
            else:
                n = len(res)
            print(f"[ok] {name}: rows={n} ({time.time() - t0:.1f}s)", flush=True)
        except Exception as ex:  # noqa: BLE001 - gate reports, doesn't mask
            print(f"[FAIL] {name}: {type(ex).__name__}: {ex}", flush=True)
    ray.shutdown()
    return 0


def main() -> int:
    args = sys.argv[1:]
    sf_dir = args[0] if args else "/root/testdata/sf0.001"
    if "--from" in args:
        return run_queries(sf_dir, int(args[args.index("--from") + 1]))
    import __ray_entry__ as e

    names = list(e.queries())
    # a `timeout` or Ctrl-C must take the child and its Ray session down too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    failed = nxt = 0
    while nxt < len(names):
        # own process group: an aborted child leaves Ray processes behind
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), sf_dir, "--from", str(nxt)],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            for line in child.stdout:
                print(line, end="", flush=True)
                if line.startswith(("[ok] ", "[FAIL] ")):
                    nxt += 1
                    failed += line.startswith("[FAIL] ")
            rc = child.wait()
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if nxt < len(names):  # the child died inside (or before) query nxt
            print(f"[FAIL] {names[nxt]}: aborted (child exit code {rc})", flush=True)
            failed += 1
            nxt += 1
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
