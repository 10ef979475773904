"""The keyed LWW merge-apply kernel — the engine's core CDC stage.

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
hash-bucket ``groupby`` whose per-bucket fold is the same vectorized
kernel. Hot keys cost at most one surviving row per batch at level 1, so
skew in the *event stream* never concentrates on one reducer; an optional
salt spreads residual level-2 skew further (SURVEY.md §7.4).

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

from raycdc.util import bucket_of, counter_rng_u64

META_COLS = ("_bucket",)

TOMBSTONE_OPS = ("delete",)


def lww_order(t: pa.Table, key: str = "doc_id", lsn_col: str = "lsn") -> pa.Array:
    """The one sort of every LWW fold: row indices of ``t`` in
    (``_bucket`` when ``t`` carries it, key, lsn) order, sorting only
    those key columns. The lake's run writer calls it itself — the sort
    doubles as the run's row-group layout — and hands it to the fold."""
    cols = [key, lsn_col]
    if "_bucket" in t.column_names:
        cols.insert(0, "_bucket")
    return pc.sort_indices(t.select(cols), sort_keys=[(c, "ascending") for c in cols])


def lww_winners(t: pa.Table, key: str = "doc_id", lsn_col: str = "lsn",
                order: pa.Array | None = None) -> np.ndarray:
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
    key within ``t`` (a salted sub-bucket column is folded one bucket
    group at a time)."""
    n = t.num_rows
    if n <= 1:
        return np.arange(n, dtype=np.int64)
    idx = lww_order(t, key, lsn_col) if order is None else order
    keys_sorted = t.column(key).take(idx)
    # last row of each run of equal keys (in sorted order)
    last_of_run = np.ones(n, dtype=bool)
    neq = pc.not_equal(keys_sorted.slice(1), keys_sorted.slice(0, n - 1))
    last_of_run[: n - 1] = np.asarray(neq.fill_null(True))
    return np.asarray(idx)[last_of_run]


def _is_tomb(op: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """The one tombstone predicate: True where ``op`` is a delete."""
    return np.asarray(pc.is_in(op, value_set=pa.array(TOMBSTONE_OPS)))


def _live(t: pa.Table, win: np.ndarray, op_col: str | None) -> np.ndarray:
    """``win`` minus the rows whose ``op_col`` is a tombstone."""
    if op_col is None or op_col not in t.column_names or not len(win):
        return win
    return win[~_is_tomb(t.column(op_col).take(win))]


def last_writer_per_key(t: pa.Table, key: str = "doc_id", lsn_col: str = "lsn",
                        tombstone_col: str | None = None,
                        order: pa.Array | None = None) -> pa.Table:
    """Within-table LWW reduce: the :func:`lww_winners` rows, ordered by
    (``_bucket`` when present, key). The payload (token lists — the
    heavy bytes) is copied ONCE, by a single take in that order, so an
    L0 run comes out bucket-sorted with no second sort or take. With
    ``tombstone_col`` set, winners that are tombstones are dropped
    before the take (the merge-on-read path). ``order`` is a
    :func:`lww_order` of ``t`` the caller already holds."""
    return t.take(_live(t, lww_winners(t, key, lsn_col, order), tombstone_col))


def _in_input_order(t: pa.Table, rows: np.ndarray) -> pa.Table:
    """Materialize ``rows`` of ``t`` in input order with one mask filter,
    for folds whose consumers need no order: on unsorted multi-chunk
    batches it beat both an ordered take and a sorted-index take
    (``scripts/kernel_bench.py`` ``lww_unordered_fold``)."""
    keep = np.zeros(t.num_rows, dtype=bool)
    keep[rows] = True
    return t.filter(pa.array(keep))


def drop_tombstones(t: pa.Table, op_col: str = "op") -> pa.Table:
    if op_col not in t.column_names or t.num_rows == 0:
        return t
    return t.filter(pa.array(~_is_tomb(t.column(op_col))))


def lww_apply_table(
    events: pa.Table,
    base: pa.Table | None = None,
    key: str = "doc_id",
    lsn_col: str = "lsn",
    op_col: str = "op",
) -> pa.Table:
    """Local (single-table) LWW apply — the per-bucket / unit-test kernel.
    Base rows participate as lsn = -inf inserts."""
    parts = []
    if base is not None and base.num_rows:
        b = base
        if lsn_col not in b.column_names:
            b = b.append_column(lsn_col, pa.array(np.full(b.num_rows, -1, dtype=np.int64)))
        if op_col not in b.column_names:
            b = b.append_column(op_col, pa.array(["insert"] * b.num_rows))
        parts.append(b.select(events.column_names) if set(events.column_names) <= set(b.column_names) else b)
    parts.append(events)
    allt = pa.concat_tables(parts, promote_options="permissive")
    return last_writer_per_key(allt, key=key, lsn_col=lsn_col, tombstone_col=op_col)


class _MetricsMixin:
    """Optional fire-and-forget counter publishing (LogCacheStatistics
    parity, ``DeidentificationController.java:102,171-174`` — the
    reference logs Guava cache hit/miss/size; here 'hit' ≡ a row
    superseded by a newer LSN for its key, 'size' ≡ surviving keys).
    Off (``metrics_name=None``) ⇒ zero hot-path cost."""

    metrics_name: str | None = None
    _metrics_handle = None

    def _incr_many(self, items: dict) -> None:
        if not self.metrics_name:
            return
        if self._metrics_handle is None:
            import ray

            try:
                self._metrics_handle = ray.get_actor(self.metrics_name)
            except ValueError:  # actor gone (e.g. driver exited) — disable
                self.metrics_name = None
                return
        self._metrics_handle.incr_many.remote(items)


class _PartialLww(_MetricsMixin):
    """Level-1 per-batch reduce (stateless; cheap enough for tasks)."""

    def __init__(self, key: str, lsn_col: str, metrics_name: str | None = None):
        self.key, self.lsn_col = key, lsn_col
        self.metrics_name = metrics_name

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = _in_input_order(batch, lww_winners(batch, self.key, self.lsn_col))
        if self.metrics_name:
            self._incr_many(
                {
                    "apply.partial_rows_in": batch.num_rows,
                    "apply.partial_rows_out": out.num_rows,
                }
            )
        return out


def _with_bucket(batch: pa.Table, key: str, num_buckets: int, salt_col: str | None = None,
                 salt_buckets: int = 1) -> pa.Table:
    salt = None
    if salt_col is not None and salt_buckets > 1:
        # spread a key over `salt_buckets` sub-buckets by a deterministic
        # function of another column (e.g. lsn) — requires a second fold.
        salt = counter_rng_u64(0x5A17, np.asarray(batch[salt_col].cast(pa.int64()))) % np.uint64(salt_buckets)
    b = bucket_of(batch.column(key), num_buckets, salt=salt)
    return batch.append_column("_bucket", pa.array(b))


class _FinalFold(_MetricsMixin):
    """Level-2 per-bucket fold. With ``metrics_name`` set, publishes the
    cache-statistics analogs per bucket: rows entering the fold,
    surviving keys, superseded rows ('hits' — the key was already
    present with a newer LSN), and tombstones dropped."""

    def __init__(
        self,
        key: str,
        lsn_col: str,
        op_col: str,
        drop_meta: bool,
        drop_tomb: bool = True,
        meta_drop: tuple | None = None,
        metrics_name: str | None = None,
    ):
        self.key, self.lsn_col, self.op_col = key, lsn_col, op_col
        self.drop_meta, self.drop_tomb, self.meta_drop = drop_meta, drop_tomb, meta_drop
        self.metrics_name = metrics_name

    def __call__(self, group: pa.Table) -> pa.Table:
        rows_in = group.num_rows
        win = lww_winners(group, self.key, self.lsn_col)
        winners = len(win)
        if self.drop_tomb:
            win = _live(group, win, self.op_col)
        out = _in_input_order(group, win)
        if self.metrics_name:
            self._incr_many(
                {
                    "apply.fold_rows_in": rows_in,
                    "apply.keys_out": out.num_rows,
                    "apply.rows_superseded": rows_in - winners,
                    "apply.tombstones_dropped": winners - out.num_rows,
                    "apply.buckets_folded": 1,
                }
            )
        if self.drop_meta:
            to_drop = self.meta_drop if self.meta_drop is not None else (self.lsn_col, self.op_col)
            drop = [c for c in (*META_COLS, *to_drop) if c in out.column_names]
            out = out.drop_columns(drop)
        return out


def _final_fold(
    key: str,
    lsn_col: str,
    op_col: str,
    drop_meta: bool,
    drop_tomb: bool = True,
    meta_drop: tuple | None = None,
    metrics_name: str | None = None,
):
    ff = _FinalFold(key, lsn_col, op_col, drop_meta, drop_tomb, meta_drop, metrics_name)

    def fold(group: pa.Table) -> pa.Table:  # map_groups needs a plain fn
        return ff(group)

    return fold


def base_as_inserts(
    base_ds: ray.data.Dataset,
    lsn_col: str = "lsn",
    op_col: str = "op",
    column_order: list[str] | None = None,
) -> ray.data.Dataset:
    """Lift a base-table Dataset into the event schema as lsn=-1 inserts.
    ``column_order`` aligns the lifted schema with the event stream so the
    union of the two datasets has one consistent schema."""

    def lift(t: pa.Table) -> pa.Table:
        n = t.num_rows
        t = t.append_column(lsn_col, pa.array(np.full(n, -1, dtype=np.int64)))
        t = t.append_column(op_col, pa.array(["insert"] * n))
        if column_order:
            t = t.select([c for c in column_order if c in t.column_names])
        return t

    return base_ds.map_batches(lift, batch_format="pyarrow")


def lww_apply(
    events_ds: ray.data.Dataset,
    base_ds: ray.data.Dataset | None = None,
    key: str = "doc_id",
    lsn_col: str = "lsn",
    op_col: str = "op",
    num_buckets: int = 64,
    batch_size: int = 65536,
    drop_meta: bool = True,
    salt_buckets: int = 1,
    meta_drop: tuple | None = None,
    metrics_name: str | None = None,
) -> ray.data.Dataset:
    """Distributed LWW apply: events (+ optional base) → converged table.

    Pipeline: per-batch partial reduce → hash-bucket shuffle → per-bucket
    vectorized fold. With ``salt_buckets > 1`` the first fold runs on
    (bucket ⊕ salt(lsn)) and a second tiny fold merges the salted
    sub-results (hot-key path).

    ``metrics_name``: when set, the stages publish fire-and-forget
    LWW-index counters (partial_rows_in/out, fold_rows_in, keys_out,
    rows_superseded, tombstones_dropped) to that named metrics actor —
    the LogCacheStatistics analog. The actor is created here if absent."""
    if metrics_name:
        from raycdc.metrics import Metrics

        Metrics(metrics_name)  # ensure the named actor exists before tasks run
    ds = events_ds
    if base_ds is not None:
        order = events_ds.schema().names
        ds = base_as_inserts(base_ds, lsn_col, op_col, column_order=order).union(ds)

    ds = ds.map_batches(
        _PartialLww(key, lsn_col, metrics_name=metrics_name),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    salt_col = lsn_col if salt_buckets > 1 else None
    ds = ds.map_batches(
        lambda t: _with_bucket(t, key, num_buckets, salt_col=salt_col, salt_buckets=salt_buckets),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    if salt_buckets > 1:
        # fold per salted sub-bucket, keeping meta cols AND tombstones —
        # a delete may be the global last writer for a key whose older
        # rows landed in other sub-buckets; only the merge fold may drop it
        ds = ds.groupby("_bucket").map_groups(
            _final_fold(key, lsn_col, op_col, drop_meta=False, drop_tomb=False),
            batch_format="pyarrow",
        )
        ds = ds.drop_columns(["_bucket"])
        ds = ds.map_batches(
            lambda t: _with_bucket(t, key, num_buckets), batch_format="pyarrow"
        )
    return ds.groupby("_bucket").map_groups(
        _final_fold(key, lsn_col, op_col, drop_meta, meta_drop=meta_drop,
                    metrics_name=metrics_name),
        batch_format="pyarrow",
    )
