"""The three tail workloads and the pass that each repeats.

A pass builds a fresh 32-partition L0 lake, seeds the base snapshot,
tails the change segments, scans the lake once (merge-on-read) and
compacts it once, then checks the scanned rows against the oracle.
Inputs come from ``raycdc.synth`` shapes and depend only on the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from perfbench import oracle

PARTITIONS = 32
MIN_LEN, MAX_LEN = 48, 192


@dataclass(frozen=True)
class Shape:
    n_base: int
    n_events: int  # per pass; the trickle count follows from its rate
    n_segments: int
    deid: bool = False
    rate: float = 0.0  # trickle: segments published per second
    per_epoch: int | None = None  # tail_once(max_segments_per_epoch=...)


WORKLOADS = {
    "tail_bulk": Shape(n_base=50_000, n_events=200_000, n_segments=8),
    "tail_trickle": Shape(n_base=20_000, n_events=2_000, n_segments=0, rate=2.0,
                          per_epoch=1),
    "tail_deid": Shape(n_base=25_000, n_events=100_000, n_segments=4, deid=True),
}


def scaled(shape: Shape, scale: float) -> Shape:
    """A smaller copy of ``shape`` for quick runs (tests use 0.05)."""
    if scale == 1.0:
        return shape
    return dataclasses.replace(shape, n_base=max(200, int(shape.n_base * scale)),
                               n_events=max(200, int(shape.n_events * scale)))


@dataclass
class Inputs:
    base: pa.Table
    segments: list[pa.Table]
    events: int  # rows offered: every segment row, replays and malformed included
    want: pa.Table  # oracle output


def make_inputs(shape: Shape, seed: int, n_segments: int) -> Inputs:
    from raycdc.synth import EventGenConfig, base_table, events_table, with_replays_and_disorder

    per = shape.n_events // n_segments if not shape.rate else shape.n_events
    total = per * n_segments
    cfg = EventGenConfig(n_events=total, n_base=shape.n_base, seed=seed, dup_replay_rate=0.02,
                         pct_malformed=0.01, hot_key_share=0.1, min_len=MIN_LEN, max_len=MAX_LEN)
    base = base_table(shape.n_base, seed=seed, min_len=MIN_LEN, max_len=MAX_LEN)
    segs = [with_replays_and_disorder(events_table(cfg, 1 + k * per, 1 + (k + 1) * per), cfg)
            for k in range(n_segments)]
    want = oracle.expected(base, pa.concat_tables(segs))
    if shape.deid:
        want = oracle.pseudonymize(want)
    return Inputs(base, segs, sum(s.num_rows for s in segs), want)


@dataclass
class PassResult:
    setup_s: float
    tail_s: float  # first due time to last commit visible
    busy_s: float  # time spent inside tail_once
    lags: list[float]
    read_s: float
    compact_s: float
    bytes_written: int
    manifest_bytes: int
    run_files: int
    l0_runs_at_read: int
    epochs: int
    segments_offered: int
    segments_committed: int
    late: list[float] = field(default_factory=list)
    backlog_max: int = 0
    error: str | None = None
    span_ids: tuple[int, int, int] | None = None


def _files(root: str) -> dict[str, int]:
    out = {}
    for d, _, names in os.walk(root):
        for n in names:
            p = os.path.join(d, n)
            try:
                out[p] = os.path.getsize(p)
            except FileNotFoundError:
                pass
    return out


def _commit_time(lake, result: dict) -> float:
    """Wall time at which ``result``'s epoch became visible: the mtime of
    the manifest it swapped in (or of its snapshot when an automatic
    compaction committed after it)."""
    path = lake.manifest_path
    if result.get("auto_compacted"):
        snap = os.path.join(lake.path, "manifests", f"manifest-e{int(result['epoch']):06d}.json")
        path = snap if os.path.exists(snap) else None
    return os.stat(path).st_mtime_ns / 1e9 if path else time.time()


class Runner:
    """Runs passes of one workload inside a live Ray session."""

    def __init__(self, shape: Shape, seed: int, seconds: float, work: str, recorder=None):
        self.shape, self.seed, self.work = shape, seed, work
        self.recorder = recorder
        self.n_segments = (max(4, math.ceil(shape.rate * seconds)) if shape.rate
                           else shape.n_segments)
        self.transform = None
        self.inputs: Inputs | None = None
        self.bulk_log: str | None = None
        self.setups: list[float] = []
        self._k = 0

    def prepare(self) -> None:
        """Untimed: build inputs (and, in traced runs, the transform after
        the tracer is installed so it captures the traced functions)."""
        self.inputs = make_inputs(self.shape, self.seed, self.n_segments)
        if self.shape.deid:
            from raycdc.pipelines import deid_transform

            self.transform = deid_transform(iterations=200, kdf="batch", batch_size=None)
        if not self.shape.rate:
            from raycdc.tailer import publish_segment

            self.bulk_log = os.path.join(self.work, "log")
            for k, seg in enumerate(self.inputs.segments):
                publish_segment(self.bulk_log, f"seg-{k:05d}.parquet", seg)

    def _span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        from perfbench.trace import DriverSpan

        return DriverSpan(self.recorder, name)

    def setup_lake(self):
        """LakeTable.init plus seeding the base snapshot: the timed set-up."""
        import ray.data

        from raycdc.apply import base_as_inserts
        from raycdc.lake import LakeTable

        self._k += 1
        path = os.path.join(self.work, f"lake-{self._k:03d}")
        with self._span("pass.setup"):
            t0 = time.perf_counter()
            lake = LakeTable(path, num_partitions=PARTITIONS, commit_mode="l0")
            lake.init()
            base = base_as_inserts(ray.data.from_arrow(self.inputs.base))
            if self.transform is not None:
                base = self.transform(base)
            lake.apply(base, ["__base__"])
            self.setups.append(time.perf_counter() - t0)
        return lake

    def warm(self, n: int) -> None:
        """Throw-away set-ups; the last lake is also scanned and compacted.
        The first read scan and compaction of a session run up to 1.5x
        slower than later ones, which would skew runs with few passes."""
        for i in range(n):
            lake = self.setup_lake()
            if i == n - 1:
                for _ in lake.read().iter_batches(batch_size=None, batch_format="pyarrow"):
                    pass
                lake.compact()
            shutil.rmtree(lake.path, ignore_errors=True)

    def run_pass(self, n_segments: int | None = None) -> PassResult:
        from raycdc import tailer

        n = n_segments or self.n_segments
        lake = self.setup_lake()
        setup_s = self.setups[-1]
        dead = os.path.join(lake.path, "dead_letter")
        before = _files(lake.path)
        lags, late = [], []
        epochs = committed = backlog_max = 0
        busy = 0.0
        last_commit = None
        error = None
        ids = [None, None, None]
        try:
            with self._span("pass.tail") as sp:
                if self.shape.rate:
                    log = os.path.join(self.work, f"log-{self._k:03d}")
                    os.makedirs(log)
                    due = [time.time() + 0.05 + k / self.shape.rate for k in range(n)]
                else:
                    log = self.bulk_log
                    due = [time.time()] * n
                first_due = due[0]
                k = 0
                due_of: dict[str, float] = {}
                while True:
                    now = time.time()
                    while self.shape.rate and k < n and due[k] <= now:
                        name = f"seg-{k:05d}.parquet"
                        tailer.publish_segment(log, name, self.inputs.segments[k])
                        late.append(time.time() - due[k])
                        due_of[name] = due[k]
                        k += 1
                    if not self.shape.rate:
                        due_of = {f"seg-{i:05d}.parquet": due[i] for i in range(n)}
                        k = n
                    backlog_max = max(backlog_max, k - committed)
                    t0 = time.perf_counter()
                    r = tailer.tail_once(lake, log, max_segments_per_epoch=self.shape.per_epoch,
                                         transform=self.transform, dead_letter_dir=dead,
                                         batch_size=None)
                    busy += time.perf_counter() - t0
                    if r is not None:
                        at = _commit_time(lake, r)
                        epochs += 1
                        committed += len(r["segments"])
                        lags.extend(at - due_of[s] for s in r["segments"])
                        last_commit = at
                        continue
                    if k >= n:
                        break
                    time.sleep(max(0.0, due[k] - time.time()))
                ids[0] = getattr(sp, "id", None)
            tail_s = (last_commit or time.time()) - first_due
            after = _files(lake.path)
            new = {p: s for p, s in after.items() if p not in before}
            snaps = sum(s for p, s in new.items() if os.path.basename(p).startswith("manifest-e"))
            bytes_written = sum(new.values()) + snaps  # each snapshot mirrors one manifest swap
            run_files = sum(1 for p in new if os.path.basename(p).startswith("l0-"))
            l0_at_read = len(lake.manifest().get("l0", []))

            with self._span("pass.read") as sp:
                t0 = time.perf_counter()
                parts = list(lake.read().iter_batches(batch_size=None, batch_format="pyarrow"))
                read_s = time.perf_counter() - t0
                ids[1] = getattr(sp, "id", None)
            with self._span("pass.compact") as sp:
                t0 = time.perf_counter()
                lake.compact()
                compact_s = time.perf_counter() - t0
                ids[2] = getattr(sp, "id", None)

            rows = pa.concat_tables(parts, promote_options="permissive") if parts else None
            if committed != n:
                error = f"{n - committed} of {n} segments not committed"
            elif rows is None:
                error = "lake read returned no rows"
            else:
                want = self.inputs.want
                if self.shape.rate and n < self.n_segments:
                    want = self._want_prefix(n)
                error = oracle.mismatch(rows, want)
        except Exception as e:  # a failed pass is counted, not hidden
            import traceback

            traceback.print_exc()
            error = f"{type(e).__name__}: {e}"
            tail_s = read_s = compact_s = float("nan")
            bytes_written = snaps = run_files = l0_at_read = 0
        finally:
            shutil.rmtree(lake.path, ignore_errors=True)
            if self.shape.rate:
                shutil.rmtree(os.path.join(self.work, f"log-{self._k:03d}"), ignore_errors=True)
        return PassResult(setup_s=setup_s, tail_s=tail_s, busy_s=busy, lags=lags, read_s=read_s,
                          compact_s=compact_s, bytes_written=bytes_written,
                          manifest_bytes=2 * snaps, run_files=run_files,
                          l0_runs_at_read=l0_at_read, epochs=epochs, segments_offered=n,
                          segments_committed=committed, late=late, backlog_max=backlog_max,
                          error=error, span_ids=tuple(ids) if ids[0] else None)

    def _want_prefix(self, n: int) -> pa.Table:
        want = oracle.expected(self.inputs.base, pa.concat_tables(self.inputs.segments[:n]))
        return oracle.pseudonymize(want) if self.shape.deid else want

    def events_in(self, n_segments: int) -> int:
        return sum(s.num_rows for s in self.inputs.segments[:n_segments])


def warm_worker() -> int:
    """Import what ingest tasks need; run as a Ray task while the driver
    generates inputs, so the first timed set-up meets a started worker."""
    import polars  # noqa: F401
    import pyarrow.parquet  # noqa: F401

    import raycdc.diffmerge  # noqa: F401
    import raycdc.lake  # noqa: F401
    import raycdc.tailer  # noqa: F401

    return os.getpid()


def quantile(values: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else float("nan")
