"""Incremental materialized-view maintenance over a :class:`LakeTable`.

A :class:`MaterializedAggregate` keeps a grouped SUM/COUNT table derived
from the lake's converged state and brings it forward per committed
epoch by a key-pruned delta:

    delta(E) = contrib(state_E ∩ changed_keys)
             − contrib(state_{E−1} ∩ changed_keys)

``changed_keys`` come from exactly the state files the epoch-E manifest
added over epoch E−1 (manifest snapshots are immutable and content-
named, so the file-set difference IS the epoch's touched-key superset).
Both contributions are computed from time-travel reads restricted to
those keys — this is deliberately NOT "apply the delta rows": a
re-delivered older event appears in the epoch's files but LOSES the
LWW fold, and only the state-vs-state difference accounts for that
correctly (tombstones, duplicate replays, out-of-order lsns all
included). A compaction epoch rewrites files but leaves the live state
unchanged, so it reads nothing. Each ingest epoch costs two full
merge-on-read scans (states E and E−1), each filtered by key (a
broadcast Arrow ``is_in``) before the combiner group-by.

The view is its newest ``mv-{epoch:08d}.parquet``, with no pointer
beside it: a refresh folds every epoch it crosses, publishes one file
at the lake's epoch and then removes the older ones, so a failed
refresh leaves the previous view. The fold is one Arrow
``group_by(...).aggregate(sum)`` over the previous view and the
contributions (the subtracted ones negated); a NULL group is one group,
as in SQL. Sums are int64 and only of integer columns, the ones a
delta subtracts exactly. Reference analog: nifi-dicom's running
attribute counters (``LogCacheStatistics``-style derived state), kept
here as lake state instead of an in-process cache.
"""

from __future__ import annotations

import contextlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from raycdc.lake import LakeTable, _atomic_write_parquet
from raycdc.schema_evo import schema_from_str


class MaterializedAggregate:
    """Grouped SUM/COUNT view over the lake's live rows.

    ``specs``: out_col -> (value_col, "sum") | (None, "count"). A hidden
    per-group row count ``_n`` is always maintained so groups whose last
    row disappears are dropped exactly as a full recompute would drop
    them; each count column is a copy of it.
    """

    def __init__(self, lake: LakeTable, group_col: str, specs: dict, mv_path: str):
        for out, (col, kern) in specs.items():
            if kern not in ("sum", "count"):
                raise ValueError(f"{out}: kernel must be sum|count, got {kern!r}")
        self.lake = lake
        self.group_col = group_col
        self.specs = dict(specs)
        self.sums = [out for out, (_, kern) in self.specs.items() if kern == "sum"]
        self.path = mv_path
        os.makedirs(mv_path, exist_ok=True)

    # ------------------------------------------------------------ state
    def _file(self, epoch: int) -> str:
        return os.path.join(self.path, f"mv-{epoch:08d}.parquet")

    def _epochs(self) -> list[int]:
        return sorted(int(f[3:-8]) for f in os.listdir(self.path)
                      if f.startswith("mv-") and f.endswith(".parquet"))

    def epoch(self) -> int | None:
        """The epoch of the newest view file; None before the first refresh."""
        return max(self._epochs(), default=None)

    def _newest(self) -> tuple[int | None, pa.Table | None]:
        """The epoch and table of the newest view file; (None, None)
        before the first refresh. A refresh removes the older files once
        it has published, so the file listed can be gone when it is
        opened: then it lists again, as ``LakeTable._current`` does."""
        while True:
            e = self.epoch()
            if e is None:
                return None, None
            with contextlib.suppress(FileNotFoundError):
                return e, pq.read_table(self._file(e))

    def read(self) -> pa.Table:
        e, view = self._newest()
        if e is None:
            raise FileNotFoundError("view has never been refreshed")
        return view.drop_columns(["_n"])

    # ----------------------------------------------------------- refresh
    def _contrib(self, ds: ray.data.Dataset, keys: pa.Array | None = None) -> list[pa.Table]:
        """The combiner group-by's (group, sums..., _n) tables of the live rows."""
        from raycdc.ops import partial_groupby_agg

        key_col = self.lake.key
        if keys is not None:
            ref = ray.put(keys)
            ds = ds.map_batches(
                lambda t: t.filter(pc.is_in(t.column(key_col), value_set=ray.get(ref))),
                batch_format="pyarrow")
        aggs = {out: (self.specs[out][0], "sum") for out in self.sums}
        aggs["_n"] = (key_col, "count")
        folded = partial_groupby_agg(ds, self.group_col, aggs)
        return [t for t in folded.iter_batches(batch_size=None, batch_format="pyarrow")
                if t.num_rows]

    def _changed_keys(self, e: int) -> pa.Array | None:
        """Keys of the state files epoch ``e`` added; None when it added none."""
        files = lambda m: {ent["file"] for ent in m["l0"]}
        added = files(self.lake.manifest(e)) - files(self.lake.manifest(e - 1))
        cols = [pq.read_table(os.path.join(self.lake.path, f), columns=[self.lake.key])
                .column(0).combine_chunks() for f in sorted(added)]
        return pc.unique(pa.concat_arrays(cols)) if cols else None

    def refresh(self) -> pa.Table:
        """Bring the view to the lake's current epoch; returns it."""
        m = self.lake.manifest()
        cur, (have, prev) = int(m["epoch"]), self._newest()
        if have is not None and have > cur:
            raise ValueError(f"view stamped at {have} but lake is at {cur}")
        if have == cur:
            return prev.drop_columns(["_n"])
        types = {f.name: f.type for f in schema_from_str(m["schema"])} if m.get("schema") else {}
        for col in (self.group_col, *(self.specs[out][0] for out in self.sums)):
            if types and col not in types:
                raise ValueError(f"the lake has no column {col!r}")
        for out in self.sums:
            t = types.get(self.specs[out][0], pa.null())
            if not (pa.types.is_integer(t) or pa.types.is_null(t)):
                raise ValueError(f"{out}: sums only integer columns, {self.specs[out][0]!r} is {t}")
        if have is None or not set(range(have, cur + 1)) <= set(self.lake.epochs()):
            # first refresh, or a needed snapshot was vacuumed: full recompute
            parts = self._contrib(self.lake.read(epoch=cur))
        else:
            parts = [prev]
            for e in range(have + 1, cur + 1):
                if self.lake.manifest(e)["history"][-1].get("compaction"):
                    continue  # the live state is unchanged
                keys = self._changed_keys(e)
                if keys is None:
                    continue
                parts += self._contrib(self.lake.read(epoch=e), keys)
                parts += [pa.table({c: t[c] if c == self.group_col
                                    else pc.negate(t[c].cast(pa.int64()))  # unsigned would wrap
                                    for c in t.column_names})
                          for t in self._contrib(self.lake.read(epoch=e - 1), keys)]
        view = self._fold(parts, types.get(self.group_col, pa.null()))
        _atomic_write_parquet(self._file(cur), view)
        for e in self._epochs():  # the older views: another refresh may remove them first
            if e < cur:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self._file(e))
        return view.drop_columns(["_n"])

    def _fold(self, parts: list[pa.Table], group_type: pa.DataType) -> pa.Table:
        """Per group the sum of every part, groups without a live row
        dropped, sorted by group: ``[group, *specs, _n]``."""
        g, cols = self.group_col, [*self.sums, "_n"]
        empty = pa.schema([(g, group_type), *((c, pa.int64()) for c in cols)]).empty_table()
        t = pa.concat_tables([empty, *(p.select([g, *cols]).cast(empty.schema) for p in parts)])
        agg = t.group_by(g).aggregate([(c, "sum") for c in cols])
        n = agg["_n_sum"]
        view = pa.table({g: agg[g], **{
            out: pc.fill_null(agg[f"{out}_sum"], 0) if kern == "sum" else n
            for out, (_, kern) in self.specs.items()}, "_n": n})
        return view.filter(pc.greater(n, 0)).sort_by(g)
