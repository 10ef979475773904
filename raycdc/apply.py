"""The change-event contract and the keyed LWW merge-apply kernel — the
engine's core CDC stage.

The contract, defined here and nowhere else: a change event carries the
table's key column, an ``lsn`` (:data:`LSN`, its per-key order) and an
``op`` (:data:`OP`), one of :data:`OPS`; an op in :data:`TOMBSTONE_OPS`
(``delete``) is a tombstone, tested by :func:`is_tombstone`. The
validator (``routing.stamp_route``) dead-letters an event with a null
key or ``lsn`` or an unknown op; every fold below assumes that contract.

Reference semantics being re-expressed (SURVEY.md §2.3/§2.6):

* ``uid_map`` MERGE-if-absent + global lock
  (``DeidentificationController.java:102-124``) — the reference serializes
  every new key through one lock. Here the lock is *eliminated by
  partitioning*: a hash-bucket shuffle gives each key exactly one owner,
  so first-writer-wins / last-writer-wins folds are local, lock-free,
  vectorized Arrow operations.
* ``Attributes.update(UpdatePolicy.OVERWRITE, ...)``
  (``DecryptReidentifyDICOM.java:192-193``) — last-writer-wins upsert.
* FIFO-queue implicit ordering (``ListenDICOM.java:59``) — made explicit:
  events are ordered per key by LSN; no global sort is ever performed.

Scale design (10^10 events): a two-level fold. Level 1 is an embarrassingly
parallel per-batch reduce (``map_batches``, zero-copy Arrow) that collapses
each batch to at most one row per key — so the shuffle that follows moves
O(distinct keys × touched batches) rows, not O(events). Level 2 is a
hash-bucket shuffle whose per-bucket fold is the same vectorized kernel;
both ride the operator library's one keyed shuffle,
:func:`raycdc.ops._by_key` (level 1 is its per-batch ``prep``). A hot key
costs at most one surviving row per input batch at level 1, so skew in
the *event stream* never concentrates on one reducer and needs no salt
(SURVEY.md §7.4).

One kernel, :func:`lww_winners`, computes the winners of every LWW fold
in the engine from one sort of the key columns only (:func:`lww_order`)
and returns winner row indices in (bucket, key) order. :func:`last_writer_per_key` copies
the payload once in that order — the lake's L0 run write (already
bucket-sorted for its row groups) and its merge-on-read / compaction
fold (key-ordered). The two levels above need no order and materialize
the same winners in input order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from raycdc.metrics import Metrics
from raycdc.ops import _by_key

LSN, OP = "lsn", "op"
OPS = ("insert", "update", "delete")
TOMBSTONE_OPS = ("delete",)


def is_tombstone(op: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """The one tombstone predicate: True where ``op`` is a delete (False
    where it is null)."""
    return np.asarray(pc.is_in(op, value_set=pa.array(TOMBSTONE_OPS)))


def lww_order(t: pa.Table, key: str = "doc_id") -> pa.Array:
    """The one sort of every LWW fold: row indices of ``t`` in
    (``_bucket`` when ``t`` carries it, key, lsn) order, sorting only
    those key columns. The lake's run writer calls it itself — the sort
    doubles as the run's row-group layout — and hands it to the fold."""
    cols = [key, LSN]
    if "_bucket" in t.column_names:
        cols.insert(0, "_bucket")
    return pc.sort_indices(t.select(cols), sort_keys=[(c, "ascending") for c in cols])


def lww_winners(t: pa.Table, key: str = "doc_id", order: pa.Array | None = None) -> np.ndarray:
    """THE LWW kernel: row indices of the highest-``lsn`` row per ``key``,
    in (``_bucket`` when ``t`` carries it, key) order — every LWW fold in
    the engine computes its winners here.

    The winner of each key is the last row of its run in the
    :func:`lww_order` sort (``order``, computed here when not given).
    That sort is stable, so ties (duplicate replays of the same
    (key, lsn)) keep the LAST such row in input order — replays carry
    identical payloads by contract, so the choice is immaterial
    (idempotence, reference analog
    ``DeidentificationController.java:110-117``) but deterministic. Null
    keys never compare equal, so each null-key row is its own winner.
    ``_bucket`` only orders the output, so it must be a function of the
    key within ``t``."""
    idx = lww_order(t, key) if order is None else order
    n = len(idx)
    if n <= 1:
        return np.asarray(idx, dtype=np.int64)
    keys_sorted = t.column(key).take(idx)
    # last row of each run of equal keys (in sorted order)
    last_of_run = np.ones(n, dtype=bool)
    neq = pc.not_equal(keys_sorted.slice(1), keys_sorted.slice(0, n - 1))
    last_of_run[: n - 1] = np.asarray(neq.fill_null(True))
    return np.asarray(idx)[last_of_run]


def _live(t: pa.Table, win: np.ndarray, drop_tombs: bool) -> np.ndarray:
    """``win``, minus its tombstones when ``drop_tombs``."""
    if not drop_tombs or OP not in t.column_names or not len(win):
        return win
    return win[~is_tombstone(t.column(OP).take(win))]


def last_writer_per_key(t: pa.Table, key: str = "doc_id", drop_tombs: bool = False,
                        order: pa.Array | None = None) -> pa.Table:
    """Within-table LWW reduce: the :func:`lww_winners` rows, ordered by
    (``_bucket`` when present, key). The payload (token lists — the
    heavy bytes) is copied ONCE, by a single take in that order, so an
    L0 run comes out bucket-sorted with no second sort or take. With
    ``drop_tombs``, winners that are tombstones are dropped before the
    take (the merge-on-read path). ``order`` is a :func:`lww_order` of
    ``t`` the caller already holds; rows it leaves out are neither
    folded nor copied."""
    return t.take(_live(t, lww_winners(t, key, order), drop_tombs))


def _in_input_order(t: pa.Table, rows: np.ndarray) -> pa.Table:
    """Materialize ``rows`` of ``t`` in input order with one mask filter,
    for folds whose consumers need no order: on unsorted multi-chunk
    batches it beat both an ordered take and a sorted-index take
    (``scripts/kernel_bench.py`` ``lww_unordered_fold``)."""
    keep = np.zeros(t.num_rows, dtype=bool)
    keep[rows] = True
    return t.filter(pa.array(keep))


def drop_tombstones(t: pa.Table) -> pa.Table:
    if OP not in t.column_names or t.num_rows == 0:
        return t
    return t.filter(pa.array(~is_tombstone(t.column(OP))))


def base_as_inserts(base_ds: ray.data.Dataset,
                    column_order: list[str] | None = None) -> ray.data.Dataset:
    """Lift a base-table Dataset into the event schema as lsn=-1 inserts.
    ``column_order`` aligns the lifted schema with the event stream so the
    union of the two datasets has one consistent schema."""

    def lift(t: pa.Table) -> pa.Table:
        n = t.num_rows
        t = t.append_column(LSN, pa.array(np.full(n, -1, dtype=np.int64)))
        t = t.append_column(OP, pa.array(["insert"] * n))
        if column_order:
            t = t.select([c for c in column_order if c in t.column_names])
        return t

    return base_ds.map_batches(lift, batch_format="pyarrow")


def lww_apply(
    events_ds: ray.data.Dataset,
    base_ds: ray.data.Dataset | None = None,
    key: str = "doc_id",
    num_buckets: int = 64,
    batch_size: int = 65536,
    meta_drop: tuple | None = None,
    metrics_name: str | None = None,
) -> ray.data.Dataset:
    """Distributed LWW apply: events (+ optional base) → converged table.

    One :func:`raycdc.ops._by_key` shuffle: its per-batch ``prep`` is the
    level-1 reduce, its per-bucket fold drops tombstone winners and the
    ``meta_drop`` columns (default: ``lsn`` and ``op``).

    ``metrics_name``: when set, both levels publish LWW-index counters
    (``apply.partial_rows_in``/``_out``, ``fold_rows_in``, ``keys_out``,
    ``rows_superseded``, ``tombstones_dropped``, ``buckets_folded``) to
    that named metrics actor, created here if absent — the
    LogCacheStatistics analog (``DeidentificationController.java:102,
    171-174``: 'hit' ≡ a row superseded by a newer LSN for its key,
    'size' ≡ surviving keys)."""
    # get-or-create the named actor before tasks run; tasks hold its handle
    actor = Metrics(metrics_name).actor if metrics_name else None

    def publish(items: dict) -> None:  # fire-and-forget; off ⇒ no cost
        if actor is not None:
            actor.incr_many.remote(items)

    ds = events_ds
    if base_ds is not None:
        ds = base_as_inserts(base_ds, column_order=events_ds.schema().names).union(ds)
    drop = meta_drop if meta_drop is not None else (LSN, OP)

    def partial(batch: pa.Table) -> pa.Table:
        out = _in_input_order(batch, lww_winners(batch, key))
        publish({"apply.partial_rows_in": batch.num_rows,
                 "apply.partial_rows_out": out.num_rows})
        return out

    def fold(group: pa.Table) -> pa.Table:
        win = lww_winners(group, key)
        out = _in_input_order(group, _live(group, win, drop_tombs=True))
        publish({
            "apply.fold_rows_in": group.num_rows,
            "apply.keys_out": out.num_rows,
            "apply.rows_superseded": group.num_rows - len(win),
            "apply.tombstones_dropped": len(win) - out.num_rows,
            "apply.buckets_folded": 1,
        })
        return out.drop_columns([c for c in drop if c in out.column_names])

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=partial)
