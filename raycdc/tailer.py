"""Changelog tailer: the ListenDICOM analog — an incremental source that
discovers append-only parquet WAL segments and feeds uncommitted ones to
the lake, epoch by epoch.

Reference: ``ListenDICOM.java:122-190`` accepts pushed records and
commits them into the flow; provenance ``receive`` events at
``ListenDICOM.java:160-164``. Here the "network push" is an append-only
directory of parquet segments (the shape a Debezium/binlog archiver
produces); discovery is a directory listing diffed against the lake
manifest, so the tailer is stateless and restart-safe — the manifest IS
the consumer offset.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterator

import pyarrow as pa

import ray.data

from raycdc.apply import _in_input_order, lww_winners
from raycdc.lake import LakeTable, _publish, ok_lww_order
from raycdc.routing import make_validator


def list_segments(log_dir: str, suffix: str = ".parquet") -> list[str]:
    """Sorted segment names (sort order == append order by naming
    convention seg-NNNNN)."""
    return sorted(f for f in os.listdir(log_dir) if f.endswith(suffix))


def publish_segment(log_dir: str, name: str, table: pa.Table) -> str:
    """The *bring-your-own-WAL-writer* contract, as code (the push-ingest
    analog of ``ListenDICOM.java:165-171``'s create-commit-rollback): a
    concurrent archiver makes a segment visible to the tailer by writing
    the full file under a NON-segment temp name, fsyncing it, and
    committing it with one atomic rename (:func:`raycdc.lake._publish`).
    The tailer's directory listing therefore never sees a torn file, not
    even after a crash, and a failed write leaves no temp file behind
    (rollback = delete, never a partial segment). The segment keeps
    pyarrow's default encoding. Segment ``name``s must sort in append
    order (seg-NNNNN); ``test_tail_forever_concurrent_writer`` gates
    exactly-once under a live writer using this contract."""
    import pyarrow.parquet as pq

    if not name.endswith(".parquet"):
        raise ValueError("segment names must end with .parquet")
    os.makedirs(log_dir, exist_ok=True)
    final = os.path.join(log_dir, name)
    _publish(final, lambda tmp: pq.write_table(table, tmp))
    return final


def pending_segments(lake: LakeTable, log_dir: str) -> list[str]:
    done = set(lake.manifest()["segments_applied"])
    return [s for s in list_segments(log_dir) if s not in done]


def read_segments(log_dir: str, names: list[str]) -> ray.data.Dataset:
    """Segment reader: each file is read INSIDE the map stage
    (``from_items(paths) → map_batches(read)``). Ray 2.49 does not fuse
    ``ReadParquet`` with downstream ``map_batches``, so a ``read_parquet``
    read pays a full object-store round trip for every ingested byte
    before the first transform — on a 100-TB tail that is an extra
    corpus-sized pass through plasma. Reading in the map stage makes
    read → validate → transform → L0 ``write_run`` ONE task per
    segment with zero payload bytes in the object store (the map-only
    ingest ideal; run-file stats are the only task output). Parallelism
    = pending segment count, and each task materializes one segment, so
    the archiver's segment size bounds task memory (documented
    contract; split oversized segments upstream)."""
    import pyarrow.parquet as pq

    def read_files(t: pa.Table):
        for p in t.column("path").to_pylist():
            yield pq.read_table(p)

    paths = [os.path.join(log_dir, n) for n in names]
    ds = ray.data.from_items(
        [{"path": p} for p in paths], override_num_blocks=len(paths)
    )
    # batch_size=1: one TASK per segment — without it the operator
    # bundles the (byte-tiny) path blocks into a handful of tasks and
    # parallelism collapses to the bundle count, not the segment count
    return ds.map_batches(read_files, batch_format="pyarrow", batch_size=1)


def ok_winners(t: pa.Table, key: str) -> pa.Table:
    """The ``ok`` LWW winners of a validator-stamped block on ``key``, in
    input order and without ``_route``: per key, its highest-``lsn`` ok
    row, the last such row on ties. The payload is copied once, by
    :func:`~raycdc.apply._in_input_order`'s filter."""
    t, order = ok_lww_order(t, key)
    return _in_input_order(t, lww_winners(t, key, order))


def tail_once(
    lake: LakeTable,
    log_dir: str,
    max_segments_per_epoch: int | None = None,
    transform: Callable[[ray.data.Dataset], ray.data.Dataset] | None = None,
    dead_letter_dir: str | None = None,
    batch_size: int | None = 65536,
) -> dict | None:
    """Apply ONE epoch of pending segments (or None if fully caught up).

    Flow: discover → read → single-pass validate with
    dead-letter diversion → [optional transform, e.g. a RuleSet stage] →
    lake.apply (exactly-once). The validator checks the change-event
    contract on ``lake.key``, so an event with a null key is
    dead-lettered whatever the lake is keyed by. Dead letters land under
    ``dead_letter_dir/epoch=N`` with full, untransformed payload for
    repair (failure-loopback analog, ``PutDICOM.java:83-86``); one pass
    over the input total. Without a transform the stamped rows go to
    ``lake.apply`` whole and its run writer drops the dead ones in its
    one payload take.

    A transform sees only each block's ``ok`` LWW winners on the raw key
    (:func:`ok_winners`, one payload copy), so it does its per-row work
    — hashing, sealing — once per key of a block, not once per event.
    The transform must be row-wise and deterministic per row: it keeps
    ``lsn``, ``op`` and the key column, drops or adds no row, and the
    key it writes is a function of the raw key alone. ``RuleSet``
    actions with a row-wise ``fn`` (not a ``rename`` of the key) and
    ``DeidentifyEncrypt`` meet this. The run writer still
    folds on the transformed key, so a many-to-one key mapping converges
    as if every row had been transformed: the row that wins a mapped key
    is the winner of its own raw key.

    ``batch_size=None`` keeps each segment ONE batch end-to-end through
    the fused read → validate → transform → L0 write chain: exactly one
    run file per segment (task memory = one segment — bounded by the
    archiver's segment size), each folded alone. The default reduces
    more: Ray Data handed the run writer the epoch's segments as one
    block, so its fold spans segments. On perfbench's tail_bulk seed-7
    epoch (8 segments, 32 partitions) the default wrote 1 run of 86,904
    rows and ``None`` 8 runs of 160,046, but ``None`` ran about twice as
    fast at 4 Ray CPUs on a 4-core host (one task per segment).
    """
    todo = pending_segments(lake, log_dir)
    if not todo:
        return None
    if max_segments_per_epoch:
        todo = todo[:max_segments_per_epoch]
    ds = read_segments(log_dir, todo)
    dl = None
    if dead_letter_dir is not None:
        epoch = lake.manifest()["epoch"] + 1
        dl = os.path.join(dead_letter_dir, f"epoch={epoch:06d}")
    # stateless task stage: fuses with the downstream per-batch reduce
    # and uses every core (an actor pool here capped parallelism at its
    # pool size and paid per-actor warmup)
    ds = ds.map_batches(
        make_validator(lake.key, dl),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    if transform is not None:
        ds = transform(ds.map_batches(ok_winners, fn_kwargs={"key": lake.key},
                                      batch_format="pyarrow"))
    return lake.apply(ds, todo)


def tail_until_caught_up(
    lake: LakeTable,
    log_dir: str,
    max_segments_per_epoch: int | None = None,
    transform=None,
    dead_letter_dir: str | None = None,
    batch_size: int = 65536,
) -> list[dict]:
    """Drain the log: repeat tail_once until no pending segments."""
    return list(tail_forever(
        lake, log_dir, idle_timeout_s=0,
        max_segments_per_epoch=max_segments_per_epoch,
        transform=transform,
        dead_letter_dir=dead_letter_dir,
        batch_size=batch_size,
    ))


def tail_forever(
    lake: LakeTable,
    log_dir: str,
    poll_s: float = 1.0,
    idle_timeout_s: float | None = None,
    max_epochs: int | None = None,
    **tail_kwargs,
) -> Iterator[dict]:
    """Continuous watch loop — the ListenDICOM *push* analog
    (``ListenDICOM.java:122-190``): a long-running tailer that picks up
    segments appearing mid-run and yields each committed epoch as it
    lands (provenance-receive per epoch, not per restart).

    Generator semantics make it embeddable without threads: the caller
    consumes epochs as they commit and controls shutdown. Exits when
    ``max_epochs`` epochs committed, or after ``idle_timeout_s`` seconds
    fully caught up with nothing new (None = poll forever; 0 = return at
    the first poll that finds nothing, without sleeping). Restart-safe
    like everything else: the manifest is the consumer offset, so a
    killed watcher resumes exactly where it stopped.
    """
    n = 0
    idle_since: float | None = None
    while True:
        r = tail_once(lake, log_dir, **tail_kwargs)
        if r is not None:
            idle_since = None
            n += 1
            yield r
            if max_epochs is not None and n >= max_epochs:
                return
            continue
        now = time.monotonic()
        if idle_since is None:
            idle_since = now
        if idle_timeout_s is not None and now - idle_since >= idle_timeout_s:
            return
        time.sleep(poll_s)
