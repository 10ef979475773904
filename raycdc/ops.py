"""Scale-conscious relational building blocks used by the query surface.

These encode the shuffle-minimizing patterns the engine standardizes on
(SURVEY.md §4, ray_guide "Aggregation at scale"):

* :func:`partial_groupby_agg` — combiner-style aggregation: a vectorized
  per-batch ``pyarrow.Table.group_by`` partial reduce inside
  ``map_batches`` (one row per key per batch), then a small global
  ``groupby().aggregate`` over the partials. The all-to-all exchange
  moves O(keys × batches), not O(rows).
* :func:`broadcast_lookup` / :func:`broadcast_membership` — the small-
  side join: ``ray.put`` once, ``ray.get`` per actor/task, vectorized
  pandas/numpy lookup per batch. No shuffle (reference analog: identity
  CSV ConcurrentHashMap, J1/J3).
* :func:`grouped_min_broadcast` — the grouped-min-then-map pattern
  (date-shift machinery analog, A3/M10).
* :func:`_by_key` — the one shuffle shape of every bucketed operator
  (per-key windows, exact quantiles, joins, set operations, DISTINCT,
  the merge of per-batch sketches and partials, the dedup pair stages):
  stamp ``_bucket = bucket_of(key)`` per batch, ONE
  ``groupby("_bucket")``, fold each bucket (usually a
  :func:`_sorted_runs` sort plus run-frame kernel). Its ``map_groups``
  is the only one in raycdc: no operator runs a UDF per key.
* :func:`_frame` — the one run frame of a sorted bucket, built from any
  boundary mask (key runs, sessions, rank ties): run starts and lengths,
  and per row its run id and its run's first and last row. Every
  per-key fold reads these from the frame, and every window sum is
  :func:`_frame_sum`, one cumsum difference over ``[lo, hi)``. One sort
  and one frame serve every window kernel of a bucket (the shared-sort
  idea of LMFAO, VLDB 2020, inside one bucket).

One kernel per operator family, with the members as thin front ends:

* windows: :func:`hopping_window_agg` (a tumbling window is
  ``size == hop``);
* the content-addressed samplers (:func:`deterministic_sample`,
  :func:`stratified_sample`, :func:`weighted_sample`):
  :func:`_hash_sixteenth`, each sampler supplying only its rate;
* exact quantiles (:func:`grouped_quantile`,
  :func:`grouped_quantile_cont`, and the merged sample of
  :func:`grouped_quantile_sketch`): :func:`_quantile_fold` with a
  ``quantile_disc`` or ``quantile_cont`` pick;
* two-sided joins (:func:`hash_join`, :func:`asof_join`): the schema
  and side conform of :func:`_two_sided`;
* DISTINCT (:func:`distinct_rows`, :func:`set_op`'s prune,
  :func:`grouped_nunique`): :func:`_distinct`.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Max, Min, Sum

from raycdc.util import bucket_of, splitmix64, str_hash_u64

# partial kernel → (pyarrow group_by agg, final ray aggregate, merge fn name)
_COMBINERS = {
    "min": ("min", Min),
    "max": ("max", Max),
    "sum": ("sum", Sum),
    "count": ("count", Sum),  # counts combine by summing
}


def _run_boundaries(col: pa.ChunkedArray | pa.Array, n: int) -> np.ndarray:
    """Boolean new-group mask over a SORTED key column; consecutive NULLs
    are ONE group (SQL GROUP BY / PARTITION BY null convention)."""
    new = np.ones(n, dtype=bool)
    if n > 1:
        a, b = col.slice(1), col.slice(0, n - 1)
        both_null = pc.and_(pc.is_null(a), pc.is_null(b))
        new[1:] = np.asarray(pc.if_else(both_null, False, pc.not_equal(a, b).fill_null(True)))
    return new


class _Frame(NamedTuple):
    """The run frame of sorted rows. ``new`` is the boundary mask;
    ``starts`` and ``lens`` hold one entry per run; ``run``, ``first``
    and ``last`` one per row: its run id and its run's first and last
    row index."""

    new: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    run: np.ndarray
    first: np.ndarray
    last: np.ndarray


def _frame(new: np.ndarray) -> _Frame:
    """The run frame of a boundary mask over sorted rows (``new[0]`` set
    whenever there are rows). An empty mask gives an empty frame."""
    starts = np.flatnonzero(new)
    lens = np.diff(np.append(starts, len(new)))
    run = np.cumsum(new) - 1
    return _Frame(new, starts, lens, run, starts[run], (starts + lens - 1)[run])


def _frame_sum(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``x[lo:hi].sum()`` for every ``(lo, hi)`` pair by one cumsum
    difference: per-run totals are ``(starts, starts + lens)``, a ROWS
    window ``(max(first, i - w + 1), i + 1)``."""
    c0 = np.concatenate([[0], np.cumsum(x)])
    return c0[hi] - c0[lo]


def _quantile_cont(vals: np.ndarray, fr: _Frame, q: float) -> np.ndarray:
    """Per run of ``vals`` (sorted within each run), DuckDB's float64
    ``quantile_cont``: ``RN = (n-1)*q; d = RN - floor(RN);
    v_lo*(1-d) + v_hi*d``."""
    rn = (fr.lens - 1).astype(np.float64) * np.float64(q)
    frn = np.floor(rn)
    d = rn - frn
    lo = vals[fr.starts + frn.astype(np.int64)]
    hi = vals[fr.starts + np.ceil(rn).astype(np.int64)]
    return lo * (np.float64(1.0) - d) + hi * d


def _run_pairs(fr: _Frame) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(a, b)`` row pair with ``a < b`` inside one run, grouped
    by ``b``: row ``b`` pairs with the rows before it in its run."""
    before = np.arange(len(fr.run)) - fr.first
    ib = np.repeat(np.arange(len(before)), before)
    ia = np.arange(len(ib)) - (np.cumsum(before) - before)[ib] + fr.first[ib]
    return ia, ib


def _sorted_runs(g: pa.Table, order: list, key: str) -> tuple[pa.Table, _Frame]:
    """Sort a bucket by ``order`` (led by ``key``) and return it with the
    frame of its key runs (:func:`_run_boundaries`)."""
    g = g.take(pc.sort_indices(g, sort_keys=order)).combine_chunks()
    return g, _frame(_run_boundaries(g.column(key), g.num_rows))


def _distinct(t: pa.Table, cols: list[str]) -> pa.Table:
    """The first row of each distinct ``cols`` value (NULLs equal), by
    one sort and run boundaries. pyarrow 16's multi-key ``group_by`` is
    not used: it returns duplicate groups when string and fixed-width
    keys mix with NULLs."""
    t, fr = _sorted_runs(t, [(c, "ascending") for c in cols], cols[0])
    new = fr.new
    for c in cols[1:]:
        new = new | _run_boundaries(t.column(c), t.num_rows)
    return t.filter(pa.array(new))


def _by_key(
    ds: ray.data.Dataset,
    key: str | list[str],
    fold,
    num_buckets: int,
    batch_size: int | None,
    prep=None,
) -> ray.data.Dataset:
    """The one keyed shuffle of every bucketed operator: each batch (after
    the optional per-batch ``prep`` that prunes or filters) is stamped
    with ``_bucket = bucket_of(key, num_buckets)``, ONE
    ``groupby("_bucket")`` co-locates all rows of a key (``num_buckets``
    groups, never one group per key), and ``fold`` runs once per bucket
    with ``_bucket`` already dropped. A list ``key`` is a composite key.
    Joins pass ``ds`` and ``prep`` as parallel lists, one entry per side:
    each side is prepped and stamped in its own map stage, and the
    stamped sides are unioned into the one groupby. Partitioning
    assumption: one bucket's rows fit a worker."""
    keys = [key] if isinstance(key, str) else list(key)

    def stamper(prep):
        def stamp(t: pa.Table) -> pa.Table:
            if prep is not None:
                t = prep(t)
            b = bucket_of([t.column(k) for k in keys], num_buckets)
            return t.append_column("_bucket", pa.array(b))

        return stamp

    def per_bucket(g: pa.Table) -> pa.Table:
        return fold(g.drop_columns(["_bucket"]))

    sides = zip(ds, prep) if isinstance(ds, list) else [(ds, prep)]
    stamped = [
        d.map_batches(stamper(p), batch_format="pyarrow", batch_size=batch_size)
        for d, p in sides
    ]
    return (
        functools.reduce(ray.data.Dataset.union, stamped)
        .groupby("_bucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def partial_groupby_agg(
    ds: ray.data.Dataset,
    key: str | list[str],
    specs: dict[str, tuple[str, str]],
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """``specs``: out_col -> (in_col, kernel) with kernel in
    min|max|sum|count. Example::

        partial_groupby_agg(ev, "user_id",
                            {"first_lsn": ("event_id", "min"),
                             "n_events": ("event_id", "count")})
    """
    keys = [key] if isinstance(key, str) else list(key)
    for out, (col, kern) in specs.items():
        if kern not in _COMBINERS:
            raise ValueError(f"unsupported kernel {kern!r}")

    def partial(t: pa.Table) -> pa.Table:
        aggs = []
        renames = {}
        for out, (col, kern) in specs.items():
            pa_kern = _COMBINERS[kern][0]
            if kern == "count":
                # count(*) semantics: count nulls too (pyarrow defaults to
                # valid-only, which would silently diverge from the SQL
                # oracles on nullable columns)
                aggs.append((col, pa_kern, pc.CountOptions(mode="all")))
            else:
                aggs.append((col, pa_kern))
            renames[f"{col}_{pa_kern}"] = out
        g = t.group_by(keys).aggregate(aggs)
        names = [renames.get(n, n) for n in g.column_names]
        return g.rename_columns(names)

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    finals = [
        _COMBINERS[kern][1](out, alias_name=out) for out, (_, kern) in specs.items()
    ]
    return partials.groupby(keys).aggregate(*finals)


def broadcast_membership(
    ds: ray.data.Dataset,
    key: str,
    members,
    out_col: str = "matched",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Semi/anti-join by broadcast key set: adds a boolean column.
    ``members`` may be a set/array or an ObjectRef of one."""
    ref = members if isinstance(members, ray.ObjectRef) else ray.put(np.asarray(sorted(members)))

    class Member:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            v = t[key].to_numpy(zero_copy_only=False)
            return t.append_column(out_col, pa.array(np.isin(v, self.keys)))

    return ds.map_batches(Member, batch_format="pyarrow", batch_size=batch_size, concurrency=(1, 2))


def broadcast_lookup(
    ds: ray.data.Dataset,
    key: str,
    mapping: dict,
    out_col: str,
    default=None,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Broadcast hash join (small side): map ``key`` through ``mapping``
    into ``out_col`` (vectorized pandas map per batch)."""
    ref = ray.put(pd.Series(mapping))

    class Lookup:
        def __init__(self):
            self.s = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            v = t[key].to_pandas()
            got = v.map(self.s)
            if default is not None:
                got = got.fillna(default)
            return t.append_column(out_col, pa.Array.from_pandas(got))

    return ds.map_batches(Lookup, batch_format="pyarrow", batch_size=batch_size, concurrency=(1, 2))


def top_k(
    ds: ray.data.Dataset,
    by: str,
    k: int,
    descending: bool = True,
    tiebreak: str | None = None,
    per: str | None = None,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Top-k rows by ``by`` (ties broken by ``tiebreak`` ascending).

    * global (``per=None``): per-batch local prune to k candidates (only
      k × n_batches rows ever leave a batch), then a tiny global
      sort+limit — the combiner shape.
    * grouped (``per=<col>``): top-k PER group via ONE bounded
      hash-bucket shuffle on the group key and a vectorized in-bucket
      sort + per-group head (never one groupby group per key).
    """
    order = [(by, "descending" if descending else "ascending")]
    if tiebreak:
        order.append((tiebreak, "ascending"))

    if per is None:

        def prune(t: pa.Table) -> pa.Table:
            if t.num_rows <= k:
                return t
            return t.take(pc.sort_indices(t, sort_keys=order)[:k])

        pruned = ds.map_batches(prune, batch_format="pyarrow", batch_size=batch_size)

        # candidates ≤ k × n_batches rows by construction → fold in ONE
        # task; ds.sort().limit() would pay the Sort operator's multi-
        # second sample/shuffle fixed cost on a few hundred rows
        def final(t: pa.Table) -> pa.Table:
            return t.take(pc.sort_indices(t, sort_keys=order)[:k])

        return pruned.repartition(1).map_batches(
            final, batch_format="pyarrow", batch_size=None
        )

    def head_per_group(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, [(per, "ascending"), *order], per)
        # rank within group = index - start-of-run (vectorized cumcount)
        return g.filter(pa.array(np.arange(g.num_rows) - fr.first < k))

    return _by_key(ds, per, head_per_group, num_buckets, batch_size)


def _hash_sixteenth(col: pa.ChunkedArray, hash_kernel: str) -> np.ndarray:
    """The one kernel of the content-addressed samplers: each row's hash
    sixteenth of ``str(key)``, 0–15, or 16 for a null key: keeping the
    rows with ``digit < rate`` (``rate`` in [0, 16]) never keeps a null key.

    * ``"sip"`` (engine default): ``str_hash_u64(str(key)) % 16``, fully
      vectorized (one pass per batch, no per-row Python).
    * ``"md5"``: the index of ``md5(str(key))``'s first hex digit, a
      per-row loop kept SOLELY because DuckDB runs the identical
      expression as the ★ oracle
      (``strpos('0123456789abcdef', substr(md5(k), 1, 1)) - 1``)."""
    col = col.cast(pa.string())
    if hash_kernel == "sip":
        digit = (str_hash_u64(col) % np.uint64(16)).astype(np.int64)
        return np.where(np.asarray(pc.is_valid(col.combine_chunks())), digit, 16)
    if hash_kernel == "md5":
        import hashlib

        return np.array(
            [16 if v is None else int(hashlib.md5(v.encode()).hexdigest()[0], 16)
             for v in col.to_pylist()],
            dtype=np.int64,
        )
    raise ValueError(f"unknown hash kernel {hash_kernel!r}")


def deterministic_sample(
    ds: ray.data.Dataset,
    key: str,
    keep_sixteenths: int = 2,
    batch_size: int = 65536,
    hash_kernel: str = "sip",
) -> ray.data.Dataset:
    """Content-addressed Bernoulli sample at rate ``keep_sixteenths/16``.
    Unlike ``ds.random_sample`` this is a pure function of the key —
    replay-stable, partitioning-independent — the property a resumable
    training-data curation pipeline needs (same row set on every rerun).
    A row is kept iff its :func:`_hash_sixteenth` under ``hash_kernel``
    (``"sip"`` or ``"md5"``) is below the rate; null keys are never kept."""
    if not 0 <= keep_sixteenths <= 16:
        raise ValueError("keep_sixteenths must be in [0, 16]")

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(_hash_sixteenth(t.column(key), hash_kernel) < keep_sixteenths))

    return ds.map_batches(pick, batch_format="pyarrow", batch_size=batch_size)


class _Sides(NamedTuple):
    """The two sides of a join in one schema (:func:`_two_sided`)."""

    want: pa.Schema  # the output: left columns, then the right's kept ones
    right: dict  # kept right column -> output name (``_r`` on a clash)
    prep: list  # per-side conform for :func:`_by_key`
    split: object  # bucket -> (left rows, right rows with the left's keys)


def _two_sided(left: ray.data.Dataset, right: ray.data.Dataset, lkeys: list[str],
               rkeys: list[str], payload: bool = True) -> _Sides:
    """The unified schema of a two-sided join and the conform of each
    side into it. The keys ride in the left-named key columns, so both
    sides bucket alike; every other right column is kept (with a ``_r``
    suffix where its name is a left column) unless ``payload`` is
    False, and a side's missing columns are null-backfilled. An
    ``int8`` ``_side`` column tags the side (0 left, 1 right), and
    ``split`` takes a bucket apart again. A name that this schema would
    repeat (a ``<name>_r`` that is already taken, or ``_side``) raises
    ``ValueError`` here, before any task runs."""
    lsch, rsch = left.schema(), right.schema()
    lcols = list(lsch.names)
    rtypes = dict(zip(rsch.names, rsch.types))
    rkeep = [n for n in rsch.names if n not in rkeys] if payload else []
    rename = {n: f"{n}_r" if n in lcols else n for n in rkeep}
    want = pa.schema([*zip(lcols, lsch.types), *((rename[n], rtypes[n]) for n in rkeep)])
    unified = want.append(pa.field("_side", pa.int8()))
    clash = sorted({n for n in unified.names if unified.names.count(n) > 1})
    if clash:
        raise ValueError(f"join output repeats column(s) {clash}: a right column clashing "
                         "with a left one is renamed '<name>_r', so rename the inputs")

    def conform(side: int, colmap: dict):
        def fn(t: pa.Table) -> pa.Table:
            cols = [t.column(colmap[f.name]).cast(f.type)
                    if colmap.get(f.name) in t.column_names
                    else pa.nulls(t.num_rows, type=f.type) for f in want]
            cols.append(pa.array(np.full(t.num_rows, side, dtype=np.int8)))
            return pa.Table.from_arrays(cols, schema=unified)

        return fn

    rmap = {**dict(zip(lkeys, rkeys)), **{o: n for n, o in rename.items()}}
    rcols = [*lkeys, *rename.values()]

    def split(g: pa.Table) -> tuple[pa.Table, pa.Table]:
        side = np.asarray(g["_side"])
        return (g.filter(pa.array(side == 0)).select(lcols).combine_chunks(),
                g.filter(pa.array(side == 1)).select(rcols).combine_chunks())

    return _Sides(want, rename, [conform(0, {n: n for n in lcols}), conform(1, rmap)], split)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str | list[str],
    how: str = "inner",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Distributed hash join for two LARGE sides (when the small-side
    :func:`broadcast_lookup` doesn't apply). Ray Data 2.49 has no join
    primitive; this composes one from a single bounded-fan-out shuffle:

    1. both streams are conformed to a unified schema (side-exclusive
       columns null-backfilled) and stamped with ``_side`` and
       ``_bucket = hash(key) % num_buckets``;
    2. ONE ``groupby(_bucket)`` co-locates matching keys (bounded group
       count — never a group per key);
    3. each bucket splits by side and joins with a vectorized pandas
       merge.

    ``how`` ∈ {"inner", "left", "right", "full", "semi", "anti"}.
    ``key`` may be a LIST of column names (same names on both sides) for
    a composite join key — buckets are the combined key hash, and a NULL
    in ANY component means no match (null-keyed rows still pass through
    unmatched on their preserved side(s), exactly SQL OUTER JOIN
    semantics; on "full" the key columns are coalesced across sides).
    ``semi`` / ``anti`` are SQL EXISTS / NOT EXISTS: left rows kept once
    iff a match exists / doesn't; the right side's payload columns never
    ship (only its key columns are conformed) and a null-keyed left row
    is anti-kept (it matches nothing). Column-name collisions (other
    than the keys) take a ``_r`` suffix from the right side.
    Partitioning assumption: any single bucket's rows fit a worker
    (raise ``num_buckets`` for bigger data; salt upstream for a
    pathological hot key)."""
    if how not in ("inner", "left", "right", "full", "semi", "anti"):
        raise ValueError(
            "how must be one of 'inner', 'left', 'right', 'full', 'semi', 'anti'"
        )
    keys = [key] if isinstance(key, str) else list(key)
    if not keys:
        raise ValueError("key must be non-empty")
    membership = how in ("semi", "anti")

    sides = _two_sided(left, right, keys, keys, payload=not membership)
    want, rcols_out = sides.want, list(sides.right.values())

    def join_bucket(g: pa.Table) -> pa.Table:
        import pandas as pd

        lt, rt = sides.split(g)

        def _valid(t: pa.Table):
            v = None
            for b in keys:
                kv = pc.is_valid(t.column(b))
                v = kv if v is None else pc.and_(v, kv)
            return v

        # SQL `JOIN ON =` semantics: NULL keys never match (pandas merge
        # would pair NaN with NaN). Null-keyed rows are split off BEFORE
        # the merge and re-appended unmatched on whichever side(s) the
        # join preserves ('left'/'full' keep left nulls, 'right'/'full'
        # keep right nulls) — exactly the oracle's OUTER JOIN behavior.
        lt_null = rt_null = None
        if any(rt.column(b).null_count for b in keys):
            rvalid = _valid(rt)
            if how in ("right", "full"):
                rt_null = rt.filter(pc.invert(rvalid))
            rt = rt.filter(rvalid)
        if how in ("inner", "right", "full") and any(
            lt.column(b).null_count for b in keys
        ):
            lvalid = _valid(lt)
            if how == "full":
                lt_null = lt.filter(pc.invert(lvalid))
            lt = lt.filter(lvalid)
        # pandas merges only the (keys, position) mapping — payload columns
        # are gathered by Arrow take (null indices emit nulls on 'left')
        ks = [f"k{i}" for i in range(len(keys))]
        lframe = {k: lt.column(b).to_pandas() for k, b in zip(ks, keys)}
        lframe["li"] = np.arange(lt.num_rows)
        rframe = {k: rt.column(b).to_pandas() for k, b in zip(ks, keys)}
        rframe["ri"] = np.arange(rt.num_rows)
        if membership:
            # EXISTS probe: dedup the right key set, 1:1 left-merge with an
            # indicator — each left row emitted at most once, in order
            m = pd.merge(
                pd.DataFrame(lframe),
                pd.DataFrame(rframe).drop_duplicates(ks),
                on=ks,
                how="left",
                indicator=True,
            )
            hit = (m["_merge"] == "both").to_numpy()
            keep = pa.array(hit if how == "semi" else ~hit)
            out = lt.filter(keep)
            return pa.Table.from_arrays(
                [out.column(f.name) for f in want], schema=want
            )
        pd_how = {"full": "outer"}.get(how, how)
        m = pd.merge(pd.DataFrame(lframe), pd.DataFrame(rframe), on=ks, how=pd_how)
        # right/full emit right-only rows with no left position: both index
        # columns go nullable, Arrow take propagates null indices as nulls
        li = pa.Array.from_pandas(m["li"].astype("Int64"))
        ri = pa.Array.from_pandas(m["ri"].astype("Int64"))
        # gathered by name into `want`: the left's columns, then the right's
        named = {c: lt.column(c).take(li) for c in lt.column_names}
        named.update({c: rt.column(c).take(ri) for c in rcols_out})
        if how in ("right", "full"):
            # key columns must survive right-only rows: coalesce across sides
            for b in keys:
                named[b] = pc.coalesce(
                    named[b].combine_chunks() if isinstance(named[b], pa.ChunkedArray) else named[b],
                    rt.column(b).take(ri).combine_chunks(),
                )
        out = pa.Table.from_arrays(
            [pa.chunked_array([named[f.name]]) if not isinstance(named[f.name], pa.ChunkedArray) else named[f.name] for f in want],
            schema=want,
        )
        extras = [t for t in (lt_null, rt_null) if t is not None and t.num_rows]
        if extras:
            backfilled = []
            for t in extras:
                cols = {
                    f.name: (t.column(f.name) if f.name in t.column_names
                             else pa.nulls(t.num_rows, type=f.type))
                    for f in want
                }
                backfilled.append(
                    pa.Table.from_arrays([cols[f.name] for f in want], schema=want)
                )
            out = pa.concat_tables([out, *backfilled])
        return out

    return _by_key([left, right], keys, join_bucket, num_buckets, batch_size, prep=sides.prep)


def grouped_shift_from_min(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    out_col: str,
    num_buckets: int = 64,
    batch_size: int = 65536,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """High-cardinality grouped-min-then-shift (the date-shift pattern,
    M10/A3) WITHOUT a driver-side dict: ONE hash-bucket shuffle
    (bounded fan-out — ``num_buckets`` groups, never one group per key),
    then a vectorized pandas ``groupby(...).transform('min')`` inside
    each bucket. Use this when the key domain exceeds
    :func:`grouped_min_broadcast`'s driver bound."""
    def per_bucket(g: pa.Table) -> pa.Table:
        df = g.to_pandas()
        df[out_col] = df[col] - df.groupby(key)[col].transform("min")
        if keep_cols:
            df = df[keep_cols]
        # replace_schema_metadata(None): from_pandas attaches a 'pandas'
        # metadata blob that makes the schema unhashable in pyarrow 16,
        # defeating Ray's block-schema dedup downstream
        return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)

    return _by_key(ds, key, per_bucket, num_buckets, batch_size)


def flatten_struct(
    ds: ray.data.Dataset,
    col: str,
    prefix: str = "",
    keep: bool = False,
    stringify: bool = False,
    max_len: int | None = None,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Promote every field of a struct column to a top-level column —
    the ExtractDICOMTags "extract ALL tags" mode (a): the reference's
    visitor stringifies every attribute into the FlowFile map, capped at
    200 chars (``ExtractDICOMTags.java:163-180``). ``stringify=True`` +
    ``max_len=200`` reproduces that contract; by default fields keep
    their native types. Fields of null struct rows surface as nulls."""

    def f(t: pa.Table) -> pa.Table:
        if col not in t.column_names:
            return t  # present-only no-op (schema tolerance)
        sc = t.column(col).combine_chunks()
        if not pa.types.is_struct(sc.type):
            return t
        null_mask = pc.is_null(sc) if sc.null_count else None
        for field in sc.type:
            arr = sc.field(field.name)
            if null_mask is not None:
                arr = pc.if_else(null_mask, pa.nulls(len(sc), type=arr.type), arr)
            if stringify:
                arr = arr.cast(pa.string())
                if max_len is not None:
                    arr = pc.utf8_slice_codeunits(arr, start=0, stop=max_len)
            t = t.append_column(f"{prefix}{field.name}", arr)
        if not keep:
            t = t.drop_columns([col])
        return t

    return ds.map_batches(f, batch_format="pyarrow", batch_size=batch_size)


def grouped_min_broadcast(
    ds: ray.data.Dataset, key: str, col: str, batch_size: int = 65536,
    max_keys: int = 5_000_000,
) -> dict:
    """Per-key minimum as a driver-side dict (small key domain — the
    date-shift epoch pattern). Uses the partial-agg path so the shuffle
    is over per-batch partials only.

    Contract: the key domain must fit on the driver — ``max_keys`` bounds
    it explicitly (raises beyond). For doc_id-cardinality keys use
    ``partial_groupby_agg`` + a broadcast-join dataset path instead."""
    agg = partial_groupby_agg(ds, key, {"_min": (col, "min")}, batch_size=batch_size)
    out = {}
    # batch-wise build: per-row iter_rows() costs ~10 µs/key in driver
    # Python — at the max_keys bound that is minutes; zip over Arrow
    # columns is two C passes per batch
    for t in agg.iter_batches(batch_size=None, batch_format="pyarrow"):
        out.update(zip(t.column(key).to_pylist(), t.column("_min").to_pylist()))
        if len(out) > max_keys:
            raise ValueError(
                f"grouped_min_broadcast: key domain exceeds max_keys={max_keys}; "
                "use a distributed broadcast-join path for high-cardinality keys"
            )
    return out


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on_left: str,
    on_right: str,
    by_left: str | list[str],
    by_right: str | list[str],
    how: str = "left",
    tiebreak: str | None = None,
    direction: str = "backward",
    num_buckets: int = 32,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Distributed as-of join — for every left row, the single right
    row with the greatest ``on_right`` ≤ ``on_left`` (``direction=
    "backward"``, the event→latest-state lookup; DuckDB's ``ASOF
    JOIN``) or the smallest ``on_right`` ≥ ``on_left`` (``"forward"``,
    the event→next-scheduled-state lookup) among rows sharing the
    ``by`` key.

    Shape: the same single bounded-fan-out shuffle as :func:`hash_join`
    (both sides conformed + ``_side``-tagged + bucketed on the by-key,
    ONE groupby), with the per-bucket probe a vectorized
    ``pandas.merge_asof`` over (key, position) only — payload columns
    are gathered by Arrow take afterwards.

    Determinism: when several right rows tie on ``on_right``, the winner
    is the one with the greatest ``tiebreak`` column value backward /
    the SMALLEST forward (pass one for replay-stable output —
    merge_asof alone would pick whichever row the partitioning
    delivered last). SQL-equivalent semantics: right rows
    with a NULL key or NULL time never match; left rows with a NULL time
    match nothing (how='left' keeps them with a null right side).

    ``by_left`` / ``by_right`` may be same-length LISTS for a composite
    entity key (e.g. tenant + user): buckets are the combined key hash,
    the probe passes the full column list to merge_asof, and a NULL in
    ANY key component routes the row to the unmatched path.

    Partitioning assumption (documented contract): one bucket's rows fit
    a worker — raise ``num_buckets`` for bigger data, salt upstream for
    a pathological hot key.
    """
    if how not in ("inner", "left"):
        raise ValueError("how must be 'inner' or 'left'")
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")
    bys_l = [by_left] if isinstance(by_left, str) else list(by_left)
    bys_r = [by_right] if isinstance(by_right, str) else list(by_right)
    if not bys_l or len(bys_l) != len(bys_r):
        raise ValueError("by_left/by_right must be non-empty and the same length")

    sides = _two_sided(left, right, bys_l, bys_r)
    want, rcols_out = sides.want, list(sides.right.values())
    on_right_out = sides.right.get(on_right, on_right)
    tb_out = sides.right.get(tiebreak, tiebreak) if tiebreak else None

    def join_bucket(g: pa.Table) -> pa.Table:
        import pandas as pd

        lt, rt = sides.split(g)
        ok = pc.is_valid(rt.column(on_right_out))
        for b in bys_l:
            ok = pc.and_(ok, pc.is_valid(rt.column(b)))
        rt = rt.filter(ok)
        # deterministic winner among on_right ties: sort right ascending by
        # (time, tiebreak); merge_asof keeps the LAST equal-time row going
        # backward and the FIRST going forward
        rsort = [(on_right_out, "ascending")] + (
            [(tb_out, "ascending")] if tb_out else []
        )
        rt = rt.take(pc.sort_indices(rt, sort_keys=rsort))
        # a null time matches nothing; a null by-key matches nothing
        # (merge_asof also refuses null 'by' values) — both take the
        # unmatched path
        lvalid = pc.is_valid(lt.column(on_left))
        for b in bys_l:
            lvalid = pc.and_(lvalid, pc.is_valid(lt.column(b)))
        lt_ok = lt.filter(lvalid)
        lt_null = lt.filter(pc.invert(lvalid))
        li_ok = np.flatnonzero(np.asarray(lvalid))
        lsorted = np.argsort(
            lt_ok.column(on_left).to_pandas().to_numpy(), kind="stable"
        )
        ks = [f"k{i}" for i in range(len(bys_l))]
        lframe = {"t": lt_ok.column(on_left).to_pandas().to_numpy()[lsorted]}
        lframe.update(
            {k: lt_ok.column(b).to_pandas().to_numpy()[lsorted] for k, b in zip(ks, bys_l)}
        )
        lframe["li"] = li_ok[lsorted]
        rframe = {"t": rt.column(on_right_out).to_pandas()}
        rframe.update({k: rt.column(b).to_pandas() for k, b in zip(ks, bys_l)})
        rframe["ri"] = np.arange(rt.num_rows)
        m = pd.merge_asof(
            pd.DataFrame(lframe),
            pd.DataFrame(rframe),
            on="t",
            by=ks,
            direction=direction,
            allow_exact_matches=True,
        )
        li = m["li"].to_numpy(np.int64)
        ri = pa.Array.from_pandas(m["ri"].astype("Int64"))
        if lt_null.num_rows:  # null-time left rows: no match by definition
            li = np.concatenate([li, np.flatnonzero(~np.asarray(lvalid))])
            ri = pa.concat_arrays(
                [ri.combine_chunks() if isinstance(ri, pa.ChunkedArray) else ri,
                 pa.nulls(lt_null.num_rows, pa.int64())]
            )
        li_arr = pa.array(li)
        named = {c: lt.column(c).take(li_arr) for c in lt.column_names}
        named.update({c: rt.column(c).take(ri) for c in rcols_out})
        out = pa.Table.from_arrays([named[f.name] for f in want], schema=want)
        if how == "inner":
            out = out.filter(pc.is_valid(out.column(on_right_out)))
        return out

    return _by_key([left, right], bys_l, join_bucket, num_buckets, batch_size, prep=sides.prep)


def stratified_sample(
    ds: ray.data.Dataset,
    key: str,
    group_col: str,
    rates: dict,
    default_sixteenths: int = 2,
    batch_size: int = 65536,
    hash_kernel: str = "sip",
) -> ray.data.Dataset:
    """Per-group deterministic sampling: each row keeps with probability
    ``rates.get(group)/16`` (``default_sixteenths`` otherwise), decided by
    a pure hash of ``key`` — the curation move of re-weighting a corpus by
    language/source while staying replay-stable and partitioning-
    independent (rerun ⇒ identical row set; see
    :func:`deterministic_sample` for the kernel contract; null keys are
    never kept, null groups take the default rate)."""
    for g, r in rates.items():
        if not 0 <= int(r) <= 16:
            raise ValueError(f"rate for {g!r} must be in [0, 16]")
    if not 0 <= default_sixteenths <= 16:
        raise ValueError("default_sixteenths must be in [0, 16]")

    def pick(t: pa.Table) -> pa.Table:
        rate = t.column(group_col).to_pandas().map(rates).fillna(default_sixteenths)
        digit = _hash_sixteenth(t.column(key), hash_kernel)
        return t.filter(pa.array(digit < rate.to_numpy(np.int64)))

    return ds.map_batches(pick, batch_format="pyarrow", batch_size=batch_size)


def range_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    on: str,
    lo: str,
    hi: str,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Keyed interval join (inner): left rows paired with every right row
    of the same ``key`` whose ``[lo, hi]`` interval contains ``on``
    (inclusive, SQL ``BETWEEN``). Composition: the :func:`hash_join`
    bounded-fan-out shuffle co-locates keys, then a vectorized Arrow
    range filter — the extra rows a naive approach would shuffle are
    exactly the per-key equi-join pairs, so the per-key pair fan-out is
    the documented contract (key-less or hot-key interval joins should
    bucket by time range instead and salt upstream)."""
    joined = hash_join(left, right, key, how="inner", num_buckets=num_buckets,
                       batch_size=batch_size)

    def in_range(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t.column(on), t.column(lo)),
            pc.less_equal(t.column(on), t.column(hi)),
        )
        return t.filter(pc.fill_null(keep, False))

    return joined.map_batches(in_range, batch_format="pyarrow", batch_size=batch_size)


def sessionize(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    gap_s: float,
    order_col: str | None = None,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Gap-based session windows (the stateful streaming operator Ray Data
    has no primitive for): rows of one ``key`` whose consecutive
    ``ts_col`` gaps are ≤ ``gap_s`` form one session; a gap STRICTLY
    greater than ``gap_s`` opens a new one. Emits one row per session:
    ``(key, session_no, session_start, session_end, n_events)`` with
    ``session_no`` 1-based per key in time order.

    Shape: ONE bounded hash-bucket shuffle on ``key`` (all rows of a key
    land in one bucket), then a fully vectorized in-bucket kernel — sort
    by (key, ts, order), numpy boundary masks, run-fold aggregation off
    the boundary indices. Never a per-key groupby, never a global sort.

    Determinism: rows tying on ``ts_col`` are ordered by ``order_col``
    (pass the LSN/event id for replay-stable numbering — the same
    convention as :func:`asof_join`'s tiebreak). Rows with a NULL key or
    NULL time are dropped (documented contract; mirror with a WHERE in
    SQL — a session over an unknown time is meaningless).

    Partitioning assumption: one bucket's rows fit a worker; raise
    ``num_buckets`` for bigger data, salt is NOT applicable (sessions
    need every row of a key co-located).
    """
    gap_us = np.int64(round(gap_s * 1_000_000))
    if gap_us < 0:
        raise ValueError("gap_s must be non-negative")
    sel = list(dict.fromkeys([key, ts_col] + ([order_col] if order_col else [])))
    order = [(key, "ascending"), (ts_col, "ascending")] + (
        [(order_col, "ascending")] if order_col else []
    )

    def prep(t: pa.Table) -> pa.Table:
        t = t.select(sel)
        return t.filter(pc.and_(pc.is_valid(t.column(key)), pc.is_valid(t.column(ts_col))))

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, order, key)
        us = np.asarray(g.column(ts_col).cast(pa.int64()))
        gap = np.zeros(g.num_rows, dtype=bool)
        gap[1:] = (us[1:] - us[:-1]) > gap_us
        ss = _frame(fr.new | gap)
        # session_no within key = session id minus the session id of the
        # key's first row
        sess_no = (ss.run - ss.run[fr.first] + 1)[ss.starts]
        return pa.table(
            {
                key: g.column(key).take(pa.array(ss.starts)),
                "session_no": pa.array(sess_no.astype(np.int64)),
                "session_start": pa.array(us[ss.starts]).cast(pa.timestamp("us")),
                "session_end": pa.array(us[ss.starts + ss.lens - 1]).cast(pa.timestamp("us")),
                "n_events": pa.array(ss.lens.astype(np.int64)),
            }
        )

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=prep)


def hopping_window_agg(
    ds: ray.data.Dataset,
    ts_col: str,
    size_s: float,
    hop_s: float,
    keys: list[str] | None = None,
    specs: dict[str, tuple[str, str]] | None = None,
    out_col: str = "window_start",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Hopping (sliding) window aggregate: every row lands in the
    ``size_s / hop_s`` epoch-aligned windows that contain its timestamp;
    ``size == hop`` is the tumbling window, one window per row.

    Shape: column-pruned vectorized expansion inside ``map_batches``
    (numpy repeat/broadcast — each batch grows by the m× window fan-out
    BEFORE the combiner, so only (window, keys) partials ever shuffle),
    then :func:`partial_groupby_agg`.

    ``size_s`` must be an integer multiple of ``hop_s`` (epoch-aligned
    window starts are then exactly ``w0 - j*hop`` for ``j < m`` — an
    integer-only formula both this engine and a SQL oracle compute
    identically; no float window math). Rows with NULL ``ts_col`` are
    dropped (SQL mirror: WHERE ts IS NOT NULL). Window starts use
    FLOORED alignment (numpy's floored %), correct for pre-epoch
    timestamps too.
    """
    size_us = int(round(size_s * 1_000_000))
    hop_us = int(round(hop_s * 1_000_000))
    if size_us <= 0 or hop_us <= 0:
        raise ValueError("size_s and hop_s must be positive")
    if size_us % hop_us:
        raise ValueError("size_s must be an integer multiple of hop_s")
    m = size_us // hop_us
    specs = specs or {"n": (ts_col, "count")}
    sel = list(dict.fromkeys([ts_col, *(keys or []), *(c for c, _ in specs.values())]))

    def expand(t: pa.Table) -> pa.Table:
        t = t.select(sel)
        t = t.filter(pc.is_valid(t.column(ts_col)))
        us = np.asarray(t.column(ts_col).cast(pa.int64()).combine_chunks())
        w0 = us - us % np.int64(hop_us)  # floored: epoch-aligned for any sign
        win = (
            w0[:, None]
            - np.arange(m, dtype=np.int64)[None, :] * np.int64(hop_us)
        ).ravel()
        idx = np.repeat(np.arange(len(us), dtype=np.int64), m)
        out = t.take(pa.array(idx))
        return out.append_column(out_col, pa.array(win).cast(pa.timestamp("us")))

    expanded = ds.map_batches(expand, batch_format="pyarrow", batch_size=batch_size)
    return partial_groupby_agg(expanded, [out_col, *(keys or [])], specs, batch_size=batch_size)


def _pick_disc(vals: pa.ChunkedArray, fr: _Frame, q: float) -> pa.Array:
    """Per run of ``vals`` (sorted within each run), DuckDB's
    ``quantile_disc``: the element at ``max(0, ceil(q*n) - 1)``."""
    off = np.maximum(0, np.ceil(float(q) * fr.lens).astype(np.int64) - 1)
    return vals.take(pa.array(fr.starts + off))


def _pick_cont(vals: pa.ChunkedArray, fr: _Frame, q: float) -> pa.Array:
    """Per run of ``vals`` (sorted within each run), float64
    :func:`_quantile_cont`."""
    return pa.array(_quantile_cont(np.asarray(vals.cast(pa.float64())), fr, q), pa.float64())


def _check_qs(qs: dict[str, float]) -> None:
    for name, q in qs.items():
        if not 0.0 <= float(q) <= 1.0:
            raise ValueError(f"quantile {name}={q} outside [0, 1]")


def _quantile_fold(key: str, col: str, qs: dict[str, float], pick, pre=None):
    """The one exact-quantile bucket fold: sort the bucket by (key, col)
    (after the optional per-bucket ``pre``), then one output column per
    ``q`` of ``qs``, ``pick(sorted col, frame, q)`` per key run. Checks
    every ``q`` lies in [0, 1] (:func:`_check_qs`) when built."""
    _check_qs(qs)

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g if pre is None else pre(g),
                             [(key, "ascending"), (col, "ascending")], key)
        cols = {key: g.column(key).take(pa.array(fr.starts))}
        for name, q in qs.items():
            cols[name] = pick(g.column(col), fr, q)
        return pa.table(cols)

    return fold


def _exact_quantiles(ds: ray.data.Dataset, key: str, col: str, qs: dict[str, float],
                     pick, num_buckets: int, batch_size: int) -> ray.data.Dataset:
    """Exact per-key quantiles: prune to (key, col) without null values,
    ONE :func:`_by_key` shuffle, then :func:`_quantile_fold` with ``pick``."""
    fold = _quantile_fold(key, col, qs, pick)

    def prep(t: pa.Table) -> pa.Table:
        return t.select([key, col]).filter(pc.is_valid(t.column(col)))

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=prep)


def grouped_quantile(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    qs: dict[str, float],
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """EXACT per-group discrete quantiles: for each key, each requested
    ``q`` yields the element at index ``max(0, ceil(q*n) - 1)`` of the
    group's sorted non-null values — bit-identical to DuckDB's
    ``quantile_disc`` (rule verified empirically for n=1..20 × 17
    quantiles, float64 arithmetic on both sides).

    Shape: column-pruned to (key, col), ONE bounded hash-bucket shuffle
    on ``key``, then a vectorized in-bucket kernel — one sort by
    (key, col), numpy run boundaries, gather of all quantile indices at
    once. Quantiles don't combine, so the shuffle is inherent; pruning
    to two columns first keeps the exchanged bytes minimal.

    NULL ``col`` values are ignored (SQL aggregate convention); a key
    whose values are ALL null is dropped (mirror with WHERE col IS NOT
    NULL). NULL keys form one group (SQL GROUP BY convention).

    Partitioning assumption: one bucket fits a worker. A LOW-cardinality
    key (fewer keys than buckets) leaves buckets idle — quantiles of a
    handful of giant groups should pre-aggregate to a histogram instead.
    """
    return _exact_quantiles(ds, key, col, qs, _pick_disc, num_buckets, batch_size)


def grouped_nunique(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    out_col: str = "n_unique",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """EXACT ``COUNT(DISTINCT col) GROUP BY key`` without shuffling rows:

    1. per-batch local pair dedup (:func:`_distinct` — one row per
       (key, col) pair per batch leaves the batch);
    2. ONE bounded shuffle of the pairs, bucketed on hash(key, col) so a
       hot KEY spreads over all buckets (the distinct pairs of one key
       need not co-locate — only identical pairs must);
    3. per-bucket global dedup + per-key partial counts (vectorized);
    4. tiny final sum over ≤ buckets × keys partial rows.

    NULL ``col`` never counts (SQL COUNT(DISTINCT) convention); NULL
    keys form one group. Exact at any scale the distinct-PAIR set
    shuffles; for approximate-at-any-cardinality use a sketch instead.
    """
    def local(t: pa.Table) -> pa.Table:
        t = t.select([key, col]).filter(pc.is_valid(t.column(col)))
        return _distinct(t, [key, col])

    def fold(g: pa.Table) -> pa.Table:
        u = _distinct(g, [key, col])
        c = u.group_by([key]).aggregate([(col, "count", pc.CountOptions(mode="all"))])
        return c.rename_columns(["_partial" if n == f"{col}_count" else n for n in c.column_names])

    partials = _by_key(ds, [key, col], fold, num_buckets, batch_size, prep=local)
    return partials.groupby(key).aggregate(Sum("_partial", alias_name=out_col))


def grouped_nunique_approx(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    out_col: str = "n_unique_approx",
    p: int = 11,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """APPROXIMATE ``COUNT(DISTINCT col) GROUP BY key`` via HyperLogLog
    (public algorithm: Flajolet et al. 2007) — the scale path beside the
    exact :func:`grouped_nunique`: where the exact op must shuffle every
    distinct (key, col) PAIR, this shuffles one ``m = 2**p``-byte sketch
    per key per batch, independent of column cardinality (relative error
    ≈ 1.04/sqrt(m); p=11 → m=2048, ~2.3 % σ).

    Shape: per-batch vectorized sketch build (one hash pass, registers
    max-merged with ``np.maximum.at``), ONE small :func:`_by_key`
    shuffle of fixed-size-binary partials; per bucket one sort by key,
    each key run's register blocks max-merged by ``np.maximum.reduceat``
    and the estimator run on all keys at once. Mergeability (max is
    commutative/associative/idempotent) is what makes the result
    partitioning-independent AND replay-safe under at-least-once
    delivery.

    NULL ``col`` never counts (COUNT(DISTINCT) convention); NULL keys
    form one group. Estimator: raw HLL with the standard small-range
    (linear counting) and large-range corrections. Not SQL-hashable →
    rows-only under the driver; accuracy is pytest-gated against the
    exact op.
    """
    if not 4 <= p <= 16:
        raise ValueError("p must be in [4, 16]")
    m = 1 << p

    def sketch(t: pa.Table) -> pa.Table:
        return _hll_sketch_batch(t, key, col, p)

    def merge(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, [(key, "ascending")], key)
        hll = g.column("_hll").combine_chunks()
        buf = np.frombuffer(hll.buffers()[1], dtype=np.uint8)
        blocks = buf[hll.offset * m:(hll.offset + len(hll)) * m].reshape(-1, m)
        est = _hll_estimate(np.maximum.reduceat(blocks, fr.starts), m)
        return pa.table({key: g.column(key).take(pa.array(fr.starts)),
                         out_col: pa.array(np.rint(est).astype(np.int64))})

    return _by_key(ds, key, merge, 64, batch_size, prep=sketch)


def _hll_sketch_batch(t: pa.Table, key: str, col: str, p: int) -> pa.Table:
    """Per-batch HLL register build: one row per key present with its
    ``2**p``-byte register block (fixed-size binary) — the mergeable
    partial both the count-distinct and the set-overlap estimators
    share."""
    m = 1 << p
    t = t.select([key, col])
    t = t.filter(pc.is_valid(t.column(col)))
    kcol = t.column(key)
    codes, uniques = kcol.to_pandas().factorize(use_na_sentinel=False)
    h = str_hash_u64(t.column(col).cast(pa.string()))
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    # rho = leading-zero count of w within 64-p bits, +1 (w==0 → max)
    bitlen = np.zeros(len(w), dtype=np.int64)
    nz = w != 0
    # float64 mantissa rounding can overstate bitlength by 1 for
    # ~2^-53 of values — harmless for a sketch, still deterministic
    bitlen[nz] = np.frexp(w[nz].astype(np.float64))[1]
    rho = (np.int64(64 + 1) - bitlen).astype(np.uint8)
    regs = np.zeros((len(uniques), m), dtype=np.uint8)
    np.maximum.at(regs, (codes, reg), rho)
    karr = pa.Array.from_pandas(pd.Series(uniques)).cast(kcol.type)
    raw = regs.tobytes(order="C")
    hll = pa.array([raw[i * m:(i + 1) * m] for i in range(len(uniques))], type=pa.binary(m))
    return pa.table({key: karr, "_hll": hll})


def _hll_estimate(regs: np.ndarray, m: int) -> np.ndarray:
    """Raw HLL estimator + the standard small/large-range corrections,
    one estimate per row of a ``(keys, m)`` register matrix."""
    regs = regs.astype(np.float64)
    alpha = 0.7213 / (1 + 1.079 / m)  # m >= 128
    est = alpha * m * m / np.sum(np.exp2(-regs), axis=1)
    zeros = (regs == 0).sum(axis=1)
    small = (est <= 2.5 * m) & (zeros > 0)  # small-range: linear counting
    est[small] = m * np.log(m / zeros[small])
    large = ~small & (est > (1 << 64) / 30.0)  # large-range correction
    est[large] = -(2.0**64) * np.log1p(-est[large] / 2.0**64)
    return est


def hll_overlap(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    p: int = 12,
    batch_size: int = 65536,
) -> pa.Table:
    """APPROXIMATE pairwise set overlap between every pair of keys:
    |A∩B| by inclusion-exclusion over mergeable HLL sketches
    (est(A) + est(B) − est(A∪B), where the union sketch is the
    register-wise max — exactly mergeable, so only one ``2**p``-byte
    block per key per batch ever shuffles, never membership pairs).
    The scale path beside the exact :func:`__ray_entry__` audience
    overlap; error grows with disparity, pytest-gated. Returns a small
    (key-pairs × estimates) Arrow table on the driver — key cardinality
    is assumed small (segment/type-like)."""
    m = 1 << p
    parts = ds.map_batches(
        lambda t: _hll_sketch_batch(t, key, col, p),
        batch_format="pyarrow", batch_size=batch_size,
    )
    merged: dict = {}
    for t in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for kk, blob in zip(t.column(key).to_pylist(), t.column("_hll").to_pylist()):
            r = np.frombuffer(blob, dtype=np.uint8)
            if kk in merged:
                merged[kk] = np.maximum(merged[kk], r)
            else:
                merged[kk] = r.copy()
    keys = sorted(merged)
    rows = {"key_a": [], "key_b": [], "inter_approx": [], "jaccard_approx": []}
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            ea, eb, eu = _hll_estimate(
                np.stack([merged[a], merged[b], np.maximum(merged[a], merged[b])]), m
            ).tolist()
            inter = max(0.0, ea + eb - eu)
            rows["key_a"].append(a)
            rows["key_b"].append(b)
            rows["inter_approx"].append(int(round(inter)))
            rows["jaccard_approx"].append(round(inter / eu if eu else 0.0, 6))
    return pa.table({
        "key_a": pa.array(rows["key_a"]),
        "key_b": pa.array(rows["key_b"]),
        "inter_approx": pa.array(rows["inter_approx"], pa.int64()),
        "jaccard_approx": pa.array(rows["jaccard_approx"], pa.float64()),
    })


def pivot_agg(
    ds: ray.data.Dataset,
    key: str,
    pivot_col: str,
    values: list,
    agg: str = "count",
    value_col: str | None = None,
    prefix: str = "n_",
    other: str | None = "other",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Wide (pivoted) aggregation: one output column per ``values`` entry
    — ``prefix + value`` counts (or sums ``value_col``) of rows where
    ``pivot_col == value``; rows matching none land in ``prefix+other``
    (pass ``other=None`` to drop them). The SQL
    ``sum(CASE WHEN pivot = v THEN .. END)`` pattern.

    Shape: pure combiner — indicator columns are stamped vectorized per
    batch, then :func:`partial_groupby_agg` sums them, so the exchange
    is O(keys × batches × len(values)) partial rows, never events. The
    pivot domain must be a small explicit list (an *unknown* domain
    needs a distinct pass first — see :func:`grouped_nunique`).

    NULL ``pivot_col`` falls into ``other`` (SQL CASE ELSE convention);
    NULL keys form one group.
    """
    if agg not in ("count", "sum"):
        raise ValueError("agg must be 'count' or 'sum'")
    if agg == "sum" and not value_col:
        raise ValueError("agg='sum' needs value_col")
    names = [f"{prefix}{v}" for v in values] + ([f"{prefix}{other}"] if other else [])

    def stamp(t: pa.Table) -> pa.Table:
        pcol = t.column(pivot_col)
        src = (
            t.column(value_col).cast(pa.int64())
            if agg == "sum"
            else pa.array(np.ones(t.num_rows, dtype=np.int64))
        )
        zero = pa.array(np.zeros(t.num_rows, dtype=np.int64))
        out = t.select([key])
        matched = pa.array(np.zeros(t.num_rows, dtype=bool))
        for v, name in zip(values, names):
            m = pc.fill_null(pc.equal(pcol, v), False)
            out = out.append_column(name, pc.if_else(m, src, zero))
            matched = pc.or_(matched, m)
        if other:
            out = out.append_column(names[-1], pc.if_else(matched, zero, src))
        return out

    stamped = ds.map_batches(stamp, batch_format="pyarrow", batch_size=batch_size)
    return partial_groupby_agg(
        stamped, key, {n: (n, "sum") for n in names}, batch_size=batch_size
    )


def grouped_quantile_hist(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    qs: dict[str, float],
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """EXACT per-group discrete quantiles via value-histogram combining —
    the scale path :func:`grouped_quantile` documents for LOW-cardinality
    keys: instead of shuffling every row of a hot key into one bucket,
    each batch pre-aggregates to (key, value, count) partials, the
    exchange carries O(keys × distinct values) rows, and the quantile is
    read off the per-key cumulative histogram. Same index rule
    (``max(0, ceil(q*n) - 1)`` over the value-sorted multiset, ==
    DuckDB ``quantile_disc``), bit-identical results to the row-shuffle
    op — use THIS one when keys are few and values repeat (e.g. integer
    cents per event type), the other when keys are many and values are
    near-unique.

    NULL ``col`` ignored; NULL keys one group. Contract: the per-key
    distinct-VALUE set fits a worker (a truly unbounded value domain
    needs a sketch or the row-shuffle op)."""
    _check_qs(qs)

    pruned = ds.map_batches(
        lambda t: t.select([key, col]).filter(pc.is_valid(t.column(col))),
        batch_format="pyarrow", batch_size=batch_size,
    )
    hist = partial_groupby_agg(pruned, [key, col], {"_cnt": (col, "count")},
                               batch_size=batch_size)

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, [(key, "ascending"), (col, "ascending")], key)
        cnt = np.asarray(g.column("_cnt")).astype(np.int64)
        # per-key cumulative histogram: the key's running count
        cum = _frame_sum(cnt, fr.first, np.arange(g.num_rows) + 1)
        totals = cum[fr.starts + fr.lens - 1]
        # monotonic position encoding: one searchsorted finds, per key,
        # the first histogram row whose cumulative count exceeds target
        big = np.int64(totals.max(initial=0) + 1)
        enc = fr.run * big + np.minimum(cum, big - 1)
        cols = {key: g.column(key).take(pa.array(fr.starts))}
        for name, q in qs.items():
            target = np.maximum(0, np.ceil(float(q) * totals).astype(np.int64) - 1)
            pos = np.searchsorted(enc, np.arange(len(fr.starts)) * big + target, side="right")
            cols[name] = g.column(col).take(pa.array(pos))
        return pa.table(cols)

    # the histogram is small by contract (keys × distinct values) — fold
    # in ONE task like top_k's final; a second groupby here would pay
    # Ray's multi-second Sort-operator fixed cost on a tiny table
    return hist.repartition(1).map_batches(fold, batch_format="pyarrow", batch_size=None)


def grouped_concat(
    ds: ray.data.Dataset,
    key: str,
    val_col: str,
    order_cols: list[str],
    sep: str = ",",
    out_col: str = "seq",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Ordered per-key concatenation (SQL ``string_agg(val, sep ORDER BY
    ...)``): assembles each key's values into one delimited string in
    ``order_cols`` order — the sequence-assembly step that turns an
    event/token stream into one training example per entity.

    Shape: ONE bounded hash-bucket shuffle on ``key``, then a fully
    vectorized in-bucket kernel — sort by (key, *order), run boundaries,
    ``pa.ListArray.from_arrays`` over the boundary offsets,
    ``pc.binary_join`` — no per-row Python, no per-group callback.

    NULL values are skipped (string_agg convention; a key whose values
    are ALL null is dropped — mirror with WHERE val IS NOT NULL); NULL
    keys form one group. Pass a total ``order_cols`` (e.g. ts + LSN) for
    replay-stable output. Contract: one key's concatenated payload fits
    a worker — entity-sized sequences, not corpus-sized."""
    sel = list(dict.fromkeys([key, val_col, *order_cols]))
    order = [(key, "ascending")] + [(c, "ascending") for c in order_cols]

    def prep(t: pa.Table) -> pa.Table:
        t = t.select(sel)
        return t.filter(pc.is_valid(t.column(val_col)))

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, order, key)
        vals = g.column(val_col).cast(pa.string()).combine_chunks()
        offsets = pa.array(np.append(fr.starts, g.num_rows).astype(np.int32))
        lists = pa.ListArray.from_arrays(offsets, vals)
        return pa.table(
            {key: g.column(key).take(pa.array(fr.starts)), out_col: pc.binary_join(lists, sep)}
        )

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=prep)


def grouped_ntile(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    n_tiles: int,
    out_col: str = "tile",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key NTILE (SQL ``ntile(b) OVER (PARTITION BY key ORDER BY
    ...)``): every row gets a 1-based tile number, the first ``n % b``
    tiles one row larger — the deterministic stratified train/val/test
    split (tile by quality rank within each language, keep tile 1).

    Shape: ONE bounded hash-bucket shuffle on ``key``, vectorized
    in-bucket kernel (sort, run boundaries, cumcount rank, closed-form
    tile fill — no per-group callback). Pass a TOTAL ``order_cols``
    (end with a unique id) for replay-stable tiles; NULL keys form one
    group (SQL PARTITION BY convention)."""
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    order = [(key, "ascending")] + [(c, "ascending") for c in order_cols]

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, order, key)
        rank = np.arange(g.num_rows) - fr.first  # 0-based within key
        nrow = fr.lens[fr.run]  # the key's row count on every row
        size = nrow // n_tiles
        rem = nrow % n_tiles
        cut = rem * (size + 1)
        tile = np.where(
            rank < cut,
            rank // (size + 1),
            rem + (rank - cut) // np.maximum(size, 1),
        ) + 1
        return g.append_column(out_col, pa.array(tile.astype(np.int64)))

    return _by_key(ds, key, fold, num_buckets, batch_size)


def grouped_lag(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    val_col: str,
    periods: int = 1,
    out_col: str = "prev",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key LAG / LEAD (SQL ``lag(val, p) OVER (PARTITION BY key ORDER
    BY ...)``): every row gains the value ``periods`` rows earlier within
    its key, NULL when fewer rows precede it — the previous-state /
    delta-feature op. A negative ``periods`` is LEAD: ``lead(val, p)`` is
    ``periods=-p``, the value ``p`` rows later, NULL past the key's end.

    Shape: ONE bounded hash-bucket shuffle on ``key``, vectorized
    in-bucket kernel (sort, run frame, masked index take — the shifted
    column is gathered with one Arrow ``take``, NULL where the shifted
    row falls outside the row's key run). Pass a TOTAL ``order_cols`` for
    replay-stable output; NULL keys form one group."""
    if periods == 0:
        raise ValueError("periods must be non-zero")
    order = [(key, "ascending")] + [(c, "ascending") for c in order_cols]

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, order, key)
        src = np.arange(g.num_rows) - periods
        shifted = pa.array(src, mask=(src < fr.first) | (src > fr.last))
        return g.append_column(out_col, g.column(val_col).take(shifted))

    return _by_key(ds, key, fold, num_buckets, batch_size)


def _grouping_sets(
    ds: ray.data.Dataset,
    keys: list[str],
    levels: list[tuple[list[str], int]],
    specs: dict[str, tuple[str, str]],
    lvl_col: str,
    batch_size: int,
) -> ray.data.Dataset:
    """The one multi-level aggregate: raw rows are folded ONCE at the
    finest level (all ``keys``); that key-cardinality-sized result is
    materialized and every ``(kept keys, lvl)`` level re-folds from it
    (count re-folds as sum — min|max|sum|count are all associative).
    Rolled-up key columns are NULL of the key's type; ``lvl_col`` holds
    the level's ``lvl``."""
    sch = ds.schema()  # one-block peek: rolled-up NULL columns keep key types
    ktypes = dict(zip(sch.names, sch.types))
    # Materialize the finest fold: it is key-cardinality-sized (small by
    # contract), and without this each union branch would re-execute the
    # whole lineage from the raw-row read.
    finest = partial_groupby_agg(ds, keys, specs, batch_size=batch_size).materialize()
    respec = {
        out: (out, "sum" if kern in ("count", "sum") else kern)
        for out, (_, kern) in specs.items()
    }

    def conform(kept: list[str], lvl: int):
        def fn(t: pa.Table) -> pa.Table:
            cols = {
                k: t.column(k) if k in kept else pa.nulls(t.num_rows, type=ktypes[k])
                for k in keys
            }
            cols.update({out: t.column(out) for out in specs})
            cols[lvl_col] = pa.array(np.full(t.num_rows, lvl, dtype=np.int32))
            return pa.table(cols)

        return fn

    parts = []
    for kept, lvl in levels:
        if len(kept) == len(keys):
            cur = finest
        elif kept:
            cur = partial_groupby_agg(finest, kept, respec, batch_size=batch_size)
        else:
            # grand total: constant synthetic key, dropped after the fold
            cur = partial_groupby_agg(
                finest.map_batches(
                    lambda t: t.append_column(
                        "_all", pa.array(np.zeros(t.num_rows, np.int8))
                    ),
                    batch_format="pyarrow",
                ),
                ["_all"], respec, batch_size=batch_size,
            ).map_batches(lambda t: t.drop_columns(["_all"]), batch_format="pyarrow")
        parts.append(cur.map_batches(conform(kept, lvl), batch_format="pyarrow"))
    return functools.reduce(ray.data.Dataset.union, parts)


def rollup_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    specs: dict[str, tuple[str, str]],
    lvl_col: str = "lvl",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """SQL ``GROUP BY ROLLUP(k1, .., kn)``: aggregates at every key
    prefix — (k1..kn), (k1..kn-1), .., () — rolled-up key columns NULL
    and ``lvl_col`` = how many keys are rolled up (= the GROUPING()
    bitmask for prefix sets). ``specs`` as in
    :func:`partial_groupby_agg` (min|max|sum|count).

    Scale shape (:func:`_grouping_sets`): the INPUT is aggregated once,
    at the finest level; every coarser level re-aggregates that
    key-cardinality-sized result. Contract for SQL-oracle parity: key
    columns must be non-null (a NULL key value would be
    indistinguishable from a rolled-up level — the same ambiguity SQL
    resolves with GROUPING())."""
    if not keys:
        raise ValueError("keys must be non-empty")
    n = len(keys)
    levels = [(keys[: n - lvl], lvl) for lvl in range(n + 1)]
    return _grouping_sets(ds, keys, levels, specs, lvl_col, batch_size)


def grouping_sets_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    sets: list[list[str]],
    specs: dict[str, tuple[str, str]],
    lvl_col: str = "lvl",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """SQL ``GROUP BY GROUPING SETS(...)``: one result row-set per key
    subset in ``sets``, rolled-up key columns NULL, ``lvl_col`` = the
    SQL ``GROUPING(k1, .., kn)`` bitmask (keys[0] is the most
    significant bit; bit set ⇔ that key is rolled up in the set).

    Scale shape (same as :func:`rollup_agg`, :func:`_grouping_sets`):
    one raw-row fold, every set re-folds from it. Key columns must be
    non-null (SQL's GROUPING() ambiguity)."""
    if not keys or not sets:
        raise ValueError("keys and sets must be non-empty")
    for s in sets:
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s} not a subset of keys {keys}")
    n = len(keys)
    levels = []
    for s in sets:
        kept = [k for k in keys if k in s]  # canonical key order
        lvl = sum(1 << (n - 1 - i) for i, k in enumerate(keys) if k not in kept)
        levels.append((kept, lvl))
    return _grouping_sets(ds, keys, levels, specs, lvl_col, batch_size)


def cube_agg(
    ds: ray.data.Dataset,
    keys: list[str],
    specs: dict[str, tuple[str, str]],
    lvl_col: str = "lvl",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """SQL ``GROUP BY CUBE(k1, .., kn)``: every one of the 2**n key
    subsets, via :func:`grouping_sets_agg` (one raw-row pass total)."""
    n = len(keys)
    sets = [
        [k for i, k in enumerate(keys) if mask & (1 << (n - 1 - i)) == 0]
        for mask in range(1 << n)
    ]
    return grouping_sets_agg(
        ds, keys, sets, specs, lvl_col=lvl_col, batch_size=batch_size
    )


def grouped_rank(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    tie_cols: list[str] | None = None,
    rn_col: str | None = "rn",
    rank_col: str | None = "rnk",
    dense_col: str | None = "drnk",
    pr_col: str | None = None,
    cd_col: str | None = None,
    descending: list[bool] | None = None,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key ROW_NUMBER / RANK / DENSE_RANK — plus optional
    PERCENT_RANK (``pr_col``) and CUME_DIST (``cd_col``) — in ONE pass
    (SQL ``.. OVER (PARTITION BY key ORDER BY ...)``). Rows sort by the
    full ``order_cols`` (pass a total order so row_number is
    deterministic); RANK/DENSE_RANK/PERCENT_RANK/CUME_DIST ties are
    decided by ``tie_cols`` (default: all of ``order_cols`` — give a
    PREFIX when the tail is only a row_number tiebreaker, exactly SQL's
    two different ORDER BY lists). ``descending`` flags each order
    column's direction (default all ascending; nulls sort last either
    way, DuckDB's default). Any output column can be disabled with
    None. Float finalize order is fixed for SQL-oracle bit parity:
    percent_rank = (rank - 1) / (n_key - 1) (0.0 when n_key = 1);
    cume_dist = n_at_or_before_tie / n_key.

    Shape: ONE bounded hash-bucket shuffle on ``key``; in-bucket kernel
    is a vectorized sort + run-boundary masks + cumulative maxima — no
    per-row Python. NULL keys form one group; consecutive NULL tie
    values tie (SQL PARTITION BY / ORDER BY null conventions)."""
    tie_cols = list(order_cols) if tie_cols is None else list(tie_cols)
    if not set(tie_cols) <= set(order_cols):
        raise ValueError("tie_cols must be a subset of order_cols")
    desc = [False] * len(order_cols) if descending is None else list(descending)
    if len(desc) != len(order_cols):
        raise ValueError("descending must match order_cols length")
    order = [(key, "ascending")] + [
        (c, "descending" if d else "ascending") for c, d in zip(order_cols, desc)
    ]

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, order, key)
        n = g.num_rows
        if rn_col is not None:
            g = g.append_column(rn_col, pa.array(np.arange(n) - fr.first + 1, pa.int64()))
        need_tie = (
            rank_col is not None or dense_col is not None
            or pr_col is not None or cd_col is not None
        )
        if need_tie:
            # tie runs never cross a key run: the tie mask includes fr.new
            tie_new = fr.new
            for c in tie_cols:
                tie_new = tie_new | _run_boundaries(g.column(c), n)
            tie = _frame(tie_new)
            rnk = tie.first - fr.first + 1
            if rank_col is not None:
                g = g.append_column(rank_col, pa.array(rnk, pa.int64()))
            if dense_col is not None:
                g = g.append_column(
                    dense_col, pa.array(tie.run - tie.run[fr.first] + 1, pa.int64())
                )
            n_key = fr.lens[fr.run].astype(np.float64)
            if pr_col is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    prv = (rnk - 1).astype(np.float64) / (n_key - 1)
                prv[n_key == 1] = 0.0
                g = g.append_column(pr_col, pa.array(prv, pa.float64()))
            if cd_col is not None:
                # rows at-or-before this row's tie run
                cdv = (tie.last - fr.first + 1).astype(np.float64) / n_key
                g = g.append_column(cd_col, pa.array(cdv, pa.float64()))
        return g

    return _by_key(ds, key, fold, num_buckets, batch_size)


def unpivot(
    ds: ray.data.Dataset,
    id_cols: list[str],
    value_cols: list[str],
    var_col: str = "name",
    val_col: str = "value",
    val_type: pa.DataType | None = None,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """SQL UNPIVOT / pandas melt: each input row becomes
    ``len(value_cols)`` output rows of (``*id_cols``, column name,
    column value). Map-only (no shuffle, fully streaming); per batch the
    wide→long reshape is one Arrow concat of ``len(value_cols)`` column
    slices — no per-row Python. ``val_type`` fixes the common value
    type (default: the first value column's type; all value columns
    must cast to it)."""
    if not value_cols:
        raise ValueError("value_cols must be non-empty")
    want_t = val_type

    def fn(t: pa.Table) -> pa.Table:
        vt = want_t or t.schema.field(value_cols[0]).type
        parts = []
        for c in value_cols:
            cols = {k: t.column(k) for k in id_cols}
            cols[var_col] = pa.array(np.full(t.num_rows, c, dtype=object), pa.string())
            cols[val_col] = t.column(c).cast(vt)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def moment_agg(
    ds: ray.data.Dataset,
    key: str | list[str],
    specs: dict[str, tuple],
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Grouped moment statistics via the combiner-groupby shape (partial
    sums per batch, one tiny shuffle of (key, n, Σx, Σx², ..) rows,
    vectorized finalize). ``specs``: out ->

    * ``(col, kernel)`` with kernel in ``mean | var_pop | var_samp |
      std_pop | std_samp`` (SQL null convention: null values excluded);
    * ``(xcol, ycol, kernel)`` with kernel in ``covar_pop | covar_samp
      | corr | wmean`` (rows where EITHER side is null excluded;
      ``wmean`` is the y-weighted mean of x: ``Σ(x·y) / Σy``, NULL
      when the weight total is 0 — mirror the SQL expression
      ``sum(x*y)/sum(y)`` exactly).

    Finalize order is FIXED so a SQL oracle reproduces bit-identical
    float64 (feed integer-valued columns whose partial sums stay below
    2**53 and float addition is order-independent — exact):

        mean      = s / n
        var_pop   = (q - s * (s / n)) / n          (NULL when n = 0)
        var_samp  = (q - s * (s / n)) / (n - 1)    (NULL when n < 2)
        std_*     = sqrt(var_*)
        cov       = sxy - sx * (sy / n)
        covar_pop = cov / n ; covar_samp = cov / (n - 1)
        corr      = cov / sqrt((sxx - sx*(sx/n)) * (syy - sy*(sy/n)))
                    (NULL when either variance term is 0)
        skew_pop  = m3 / (m2 * sqrt(m2))        (NULL when m2 <= 0)
        kurt_pop  = m4 / (m2 * m2) - 3.0        (excess; NULL when m2 <= 0)
          with  m2 = q/n - mean*mean
                m3 = c3/n - 3.0*mean*(q/n) + 2.0*(mean*mean)*mean
                m4 = c4/n - 4.0*mean*(c3/n) + 6.0*(mean*mean)*(q/n)
                     - 3.0*((mean*mean)*(mean*mean))
          (only +,-,*,/ and sqrt — every op IEEE-deterministic, so a SQL
          oracle spelling the identical expression over the identical
          exact sums reproduces bit-equal doubles; for the higher
          moments the exactness contract tightens to n·max|x|⁴ < 2**53)
    """
    keys = [key] if isinstance(key, str) else list(key)
    singles = {"mean", "var_pop", "var_samp", "std_pop", "std_samp",
               "skew_pop", "kurt_pop"}
    cubics = {"skew_pop", "kurt_pop"}
    pairs = {"covar_pop", "covar_samp", "corr", "wmean",
             "regr_slope", "regr_intercept", "r2"}
    for out, spec in specs.items():
        kern = spec[-1]
        if kern in singles and len(spec) != 2:
            raise ValueError(f"{out}: {kern} takes (col, kernel)")
        if kern in pairs and len(spec) != 3:
            raise ValueError(f"{out}: {kern} takes (xcol, ycol, kernel)")
        if kern not in singles | pairs:
            raise ValueError(f"unsupported kernel {kern!r}")

    def partial(t: pa.Table) -> pa.Table:
        cols = {k: t.column(k) for k in keys}
        aggs = []
        for out, spec in specs.items():
            if spec[-1] in singles:
                v = t.column(spec[0]).cast(pa.float64())
                cols[f"{out}__s"] = v
                q = pc.multiply(v, v)
                cols[f"{out}__q"] = q
                aggs += [(f"{out}__s", "count"), (f"{out}__s", "sum"),
                         (f"{out}__q", "sum")]
                if spec[-1] in cubics:
                    cols[f"{out}__c3"] = pc.multiply(q, v)
                    cols[f"{out}__c4"] = pc.multiply(q, q)
                    aggs += [(f"{out}__c3", "sum"), (f"{out}__c4", "sum")]
            else:
                x = t.column(spec[0]).cast(pa.float64())
                y = t.column(spec[1]).cast(pa.float64())
                both = pc.and_(pc.is_valid(x), pc.is_valid(y))
                x = pc.if_else(both, x, pa.nulls(t.num_rows, pa.float64()))
                y = pc.if_else(both, y, pa.nulls(t.num_rows, pa.float64()))
                cols[f"{out}__sx"] = x
                cols[f"{out}__sy"] = y
                cols[f"{out}__sxy"] = pc.multiply(x, y)
                cols[f"{out}__sxx"] = pc.multiply(x, x)
                cols[f"{out}__syy"] = pc.multiply(y, y)
                aggs += [(f"{out}__sx", "count"), (f"{out}__sx", "sum"),
                         (f"{out}__sy", "sum"), (f"{out}__sxy", "sum"),
                         (f"{out}__sxx", "sum"), (f"{out}__syy", "sum")]
        g = pa.table(cols).group_by(keys).aggregate(aggs)
        ren = {f"{c}_{k}": (f"{c.rsplit('__', 1)[0]}__n" if k == "count" else c)
               for c, k in aggs}
        return g.rename_columns([ren.get(n, n) for n in g.column_names])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size)
    part_cols = []
    for out, spec in specs.items():
        if spec[-1] in singles:
            part_cols += [f"{out}__n", f"{out}__s", f"{out}__q"]
            if spec[-1] in cubics:
                part_cols += [f"{out}__c3", f"{out}__c4"]
        else:
            part_cols += [f"{out}__n", f"{out}__sx", f"{out}__sy",
                          f"{out}__sxy", f"{out}__sxx", f"{out}__syy"]
    folded = partials.groupby(keys).aggregate(
        *[Sum(c, alias_name=c) for c in part_cols]
    )

    def finalize(t: pa.Table) -> pa.Table:
        out_cols = {k: t.column(k) for k in keys}
        for out, spec in specs.items():
            kern = spec[-1]
            n = np.asarray(t.column(f"{out}__n"), dtype=np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                if kern in singles:
                    s = np.asarray(t.column(f"{out}__s"), dtype=np.float64)
                    q = np.asarray(t.column(f"{out}__q"), dtype=np.float64)
                    if kern == "mean":
                        v, bad = s / n, n == 0
                    elif kern in cubics:
                        c3 = np.asarray(t.column(f"{out}__c3"), dtype=np.float64)
                        c4 = np.asarray(t.column(f"{out}__c4"), dtype=np.float64)
                        mean, qn = s / n, q / n
                        m2 = qn - mean * mean
                        if kern == "skew_pop":
                            m3 = (c3 / n - 3.0 * mean * qn
                                  + 2.0 * (mean * mean) * mean)
                            v = m3 / (m2 * np.sqrt(m2))
                        else:
                            m4 = (c4 / n - 4.0 * mean * (c3 / n)
                                  + 6.0 * (mean * mean) * qn
                                  - 3.0 * ((mean * mean) * (mean * mean)))
                            v = m4 / (m2 * m2) - 3.0
                        bad = (n == 0) | ~(m2 > 0)
                    else:
                        m2 = q - s * (s / n)
                        den = n if kern.endswith("pop") else n - 1
                        v, bad = m2 / den, (n == 0) | (den == 0)
                        if kern.startswith("std"):
                            v = np.sqrt(v)
                else:
                    sx = np.asarray(t.column(f"{out}__sx"), dtype=np.float64)
                    sy = np.asarray(t.column(f"{out}__sy"), dtype=np.float64)
                    sxy = np.asarray(t.column(f"{out}__sxy"), dtype=np.float64)
                    if kern == "wmean":
                        v, bad = sxy / sy, (n == 0) | (sy == 0)
                        out_cols[out] = pa.array(v, pa.float64(), mask=bad)
                        continue
                    cov = sxy - sx * (sy / n)
                    if kern == "corr":
                        sxx = np.asarray(t.column(f"{out}__sxx"), dtype=np.float64)
                        syy = np.asarray(t.column(f"{out}__syy"), dtype=np.float64)
                        d2 = (sxx - sx * (sx / n)) * (syy - sy * (sy / n))
                        v, bad = cov / np.sqrt(d2), (n == 0) | (d2 <= 0)
                    elif kern in ("regr_slope", "regr_intercept", "r2"):
                        # OLS of y on x; fixed expression order (see class
                        # docstring) so an exact-int SQL mirror is bit-equal:
                        #   slope = cov / mxx ; intercept = sy/n - slope*(sx/n)
                        #   r2    = (cov * cov) / (mxx * myy)
                        sxx = np.asarray(t.column(f"{out}__sxx"), dtype=np.float64)
                        mxx = sxx - sx * (sx / n)
                        if kern == "regr_slope":
                            v, bad = cov / mxx, (n == 0) | (mxx == 0)
                        elif kern == "regr_intercept":
                            slope = cov / mxx
                            v = sy / n - slope * (sx / n)
                            bad = (n == 0) | (mxx == 0)
                        else:
                            syy = np.asarray(t.column(f"{out}__syy"), dtype=np.float64)
                            myy = syy - sy * (sy / n)
                            v = (cov * cov) / (mxx * myy)
                            bad = (n == 0) | (mxx == 0) | (myy == 0)
                    else:
                        den = n if kern.endswith("pop") else n - 1
                        v, bad = cov / den, (n == 0) | (den == 0)
            out_cols[out] = pa.array(v, pa.float64(), mask=bad)
        return pa.table(out_cols)

    return folded.map_batches(finalize, batch_format="pyarrow")


def grouped_first_last(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    val_col: str,
    first_col: str | None = "first_val",
    last_col: str | None = "last_val",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key FIRST_VALUE / LAST_VALUE over the WHOLE partition (SQL
    ``first_value(val) OVER (PARTITION BY key ORDER BY ... ROWS BETWEEN
    UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)``): every row gains its
    key's first and/or last value in the given order. One bounded
    hash-bucket shuffle; in-bucket the values are gathered with two
    Arrow takes at the key-run boundary indices."""
    order = [(key, "ascending")] + [(c, "ascending") for c in order_cols]

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, order, key)
        vals = g.column(val_col)
        if first_col is not None:
            g = g.append_column(first_col, vals.take(pa.array(fr.first)))
        if last_col is not None:
            g = g.append_column(last_col, vals.take(pa.array(fr.last)))
        return g

    return _by_key(ds, key, fold, num_buckets, batch_size)


def grouped_quantile_cont(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    qs: dict[str, float],
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """EXACT per-group INTERPOLATED quantiles (SQL ``quantile_cont`` /
    ``percentile_cont``): for each key, ``q`` yields the linear
    interpolation between the two order statistics around rank
    ``q*(n-1)``. :func:`_quantile_cont` replicates DuckDB's float64
    arithmetic (``RN = (n-1)*q; d = RN - floor(RN); v_lo*(1-d) +
    v_hi*d``), verified bit-identical across n=1..4096 × 18 short-literal quantiles (a
    LONG-mantissa q literal can differ 1 ulp through SQL's
    DECIMAL→DOUBLE parse, so keep oracle literals short).

    Same shape as :func:`grouped_quantile`: column-pruned, ONE bounded
    hash-bucket shuffle, vectorized in-bucket sort + gathers. NULL
    values ignored; all-null keys dropped; NULL keys one group. Output
    columns are float64 (SQL convention)."""
    return _exact_quantiles(ds, key, col, qs, _pick_cont, num_buckets, batch_size)


def set_op(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    how: str,
    cols: list[str] | None = None,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """SQL set operations with DISTINCT semantics: ``how`` ∈
    {"intersect", "except", "union"} — INTERSECT / EXCEPT / UNION
    (each deduplicates, per the SQL default). ``cols`` projects both
    sides first (default: the left schema's columns; both sides must
    share them).

    Shape: both sides prune to ``cols``, dedupe LOCALLY per batch with
    :func:`_distinct` (the combiner trick — at most one row per distinct value leaves a
    batch per side), then ONE bounded hash-bucket shuffle co-locates
    equal rows; the in-bucket kernel is a vectorized pandas indicator
    merge over (row, side). NULLs compare equal to NULLs, as SQL set
    operations do (DISTINCT grouping, not join equality)."""
    if how not in ("intersect", "except", "union"):
        raise ValueError("how must be 'intersect', 'except' or 'union'")
    cols = list(left.schema().names) if cols is None else list(cols)

    def conform(side: int):
        def fn(t: pa.Table) -> pa.Table:
            t = _distinct(t.select(cols), cols)  # combiner prune before the shuffle
            return t.append_column(
                "_side", pa.array(np.full(t.num_rows, side, dtype=np.int8))
            )

        return fn

    def fold(g: pa.Table) -> pa.Table:
        import pandas as pd

        side = np.asarray(g["_side"])
        g = g.drop_columns(["_side"])
        df = g.to_pandas()
        in_l = pd.Series(side == 0).groupby([df[c] for c in cols], dropna=False).transform("any")
        in_r = pd.Series(side == 1).groupby([df[c] for c in cols], dropna=False).transform("any")
        first = ~df.duplicated(cols)
        if how == "intersect":
            keep = first & in_l.to_numpy() & in_r.to_numpy()
        elif how == "except":
            keep = first & in_l.to_numpy() & ~in_r.to_numpy()
        else:
            keep = first
        return g.filter(pa.array(keep.to_numpy()))

    return _by_key(
        [left, right], cols, fold, num_buckets, batch_size, prep=[conform(0), conform(1)]
    )


def weighted_sample(
    ds: ray.data.Dataset,
    key: str,
    weight_col: str,
    batch_size: int = 65536,
    hash_kernel: str = "sip",
) -> ray.data.Dataset:
    """Content-addressed WEIGHTED Bernoulli sample (importance sampling /
    corpus re-weighting): each row keeps with probability
    ``weight/16`` where ``weight`` is the row's integer ``weight_col``
    clamped to [0, 16]. Like :func:`deterministic_sample` it is a pure
    function of the key — replay-stable and partitioning-independent —
    but the rate varies per row, so upweighted strata (long docs, rare
    languages) survive at higher rates in ONE streaming pass.

    The kernel is :func:`deterministic_sample`'s :func:`_hash_sixteenth`
    with the clamped weight as the rate. Null keys or null weights are
    never kept."""
    def pick(t: pa.Table) -> pa.Table:
        w = pc.coalesce(t.column(weight_col).cast(pa.int64()), pa.scalar(0, pa.int64()))
        digit = _hash_sixteenth(t.column(key), hash_kernel)
        return t.filter(pa.array(digit < np.clip(np.asarray(w), 0, 16)))

    return ds.map_batches(pick, batch_format="pyarrow", batch_size=batch_size)


def grouped_mode(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    out_col: str = "mode",
    n_col: str | None = None,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key MODE: the most frequent non-null ``col`` value, ties
    broken by the SMALLEST value (deterministic, SQL-expressible —
    DuckDB's bare ``mode()`` tie-break is undefined, so oracles should
    use the count-window form). ``n_col`` optionally emits the count.

    Shape: (key, value) pair counts fold as a combiner groupby — the
    shuffle carries one row per DISTINCT pair, never raw rows — then
    one bounded bucket shuffle on ``key`` picks each key's head by a
    vectorized (count desc, value asc) sort + run-boundary gather.
    All-null keys' rows are dropped (SQL aggregate convention); NULL
    keys form one group."""
    pruned = ds.map_batches(
        lambda t: t.select([key, col]).filter(pc.is_valid(t.column(col))),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
    pairs = partial_groupby_agg(pruned, [key, col], {"_n": (col, "count")})

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(
            g, [(key, "ascending"), ("_n", "descending"), (col, "ascending")], key
        )
        heads = g.take(pa.array(fr.starts))
        cols = {key: heads.column(key), out_col: heads.column(col)}
        if n_col is not None:
            cols[n_col] = heads.column("_n")
        return pa.table(cols)

    return _by_key(pairs, key, fold, num_buckets, batch_size)


def _frame_agg(g: pa.Table, lo: np.ndarray, hi: np.ndarray):
    """``agg(col, kernel)`` over every row's frame ``[lo, hi)`` for the
    cumsum-difference kernels: ``sum`` (int64, NULLs add zero), ``count``
    (non-null values) and ``mean`` (``CAST(sum AS DOUBLE) / count`` in
    that order, NULL over a frame with no value). Each column is cast
    and summed once."""
    sums: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def agg(col: str, kern: str) -> pa.Array:
        if col not in sums:
            a = g.column(col).cast(pa.int64())
            sums[col] = (
                _frame_sum(np.asarray(a.fill_null(0)), lo, hi),
                _frame_sum(np.asarray(pc.is_valid(a), dtype=np.int64), lo, hi),
            )
        s, c = sums[col]
        if kern == "sum":
            return pa.array(s.astype(np.int64))
        if kern == "count":
            return pa.array(c.astype(np.int64))
        with np.errstate(divide="ignore", invalid="ignore"):
            m = s.astype(np.float64) / c
        return pa.array(m, pa.float64(), mask=c == 0)

    return agg


def grouped_rolling_agg(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    specs: dict[str, tuple[str, str]],
    window: int | None,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key ROWS-frame rolling aggregates (SQL ``agg(val) OVER
    (PARTITION BY key ORDER BY ... ROWS BETWEEN window-1 PRECEDING AND
    CURRENT ROW)``); ``window=None`` is ``ROWS UNBOUNDED PRECEDING``, the
    running aggregate (running total, running min/max). ``specs``: out ->
    (val_col, kernel), kernel ∈ ``sum | count | mean | min | max`` — the
    whole family in ONE bucket shuffle and one in-bucket sort.

    Kernels: sum/count/mean are :func:`_frame_agg` over the frame
    ``[max(first, i - window + 1), i + 1)`` (integer sums stay exact —
    no float reassociation; write the mean oracle as the explicit
    division, windowed ``avg()`` may reassociate); min/max run pandas' C
    rolling kernels per key run (values round-trip through float64 —
    exact for |v| < 2**53)."""
    if window is not None and window < 1:
        raise ValueError("window must be >= 1")
    for out, (c, kern) in specs.items():
        if kern not in ("sum", "count", "mean", "min", "max"):
            raise ValueError(f"unsupported rolling kernel {kern!r}")
    order = [(key, "ascending")] + [(c, "ascending") for c in order_cols]

    def fold(g: pa.Table) -> pa.Table:
        import pandas as pd

        g, fr = _sorted_runs(g, order, key)
        n = g.num_rows
        w = window or max(n, 1)  # a bucket-long window never leaves its run
        pos = np.arange(n)
        agg = _frame_agg(g, np.maximum(fr.first, pos - (w - 1)), pos + 1)
        for out, (col, kern) in specs.items():
            if kern in ("sum", "count", "mean"):
                g = g.append_column(out, agg(col, kern))
                continue
            v = pd.Series(np.asarray(g.column(col).cast(pa.float64()), dtype=np.float64))
            r = getattr(v.groupby(fr.run).rolling(w, min_periods=1), kern)().to_numpy()
            bad = np.isnan(r)
            g = g.append_column(
                out,
                pa.array(np.where(bad, 0, r).astype(np.int64), pa.int64(), mask=bad)
                if pa.types.is_integer(g.schema.field(col).type)
                else pa.array(r, pa.float64(), mask=bad),
            )
        return g

    return _by_key(ds, key, fold, num_buckets, batch_size)


def bloom_build(
    ds: ray.data.Dataset,
    key: str,
    num_bits: int = 1 << 24,
    num_hashes: int = 4,
    batch_size: int = 65536,
) -> np.ndarray:
    """Build a Bloom filter over ``key`` (distinct non-null values) and
    return it as a packed uint64 bitmap (``num_bits/8`` bytes — 2 MiB at
    the default; size for ~n·10 bits per expected distinct key to keep
    the false-positive rate ≤ ~1%).

    Shape: each batch emits only the SET BIT INDICES of its keys (k
    vectorized hash passes, deduped locally — bounded by batch keys ×
    ``num_hashes``, usually far less); a combiner groupby dedupes
    indices cluster-wide, and the driver packs the ≤``num_bits``
    distinct indices into the bitmap. No raw keys ever leave a batch."""
    nb = np.uint64(num_bits)

    def indices(t: pa.Table) -> pa.Table:
        col = t.column(key).cast(pa.string())
        col = col.filter(pc.is_valid(col))
        h = str_hash_u64(col)
        idx = [(splitmix64(h ^ np.uint64((0x9E3779B97F4A7C15 * (i + 1)) & 0xFFFFFFFFFFFFFFFF)) % nb)
               for i in range(num_hashes)]
        u = np.unique(np.concatenate(idx)) if idx else np.array([], np.uint64)
        return pa.table({"_bit": pa.array(u.astype(np.int64))})

    bits = partial_groupby_agg(
        ds.map_batches(indices, batch_format="pyarrow", batch_size=batch_size),
        "_bit", {"_n": ("_bit", "count")},
    )
    bitmap = np.zeros(num_bits >> 6, dtype=np.uint64)
    for t in bits.iter_batches(batch_size=None, batch_format="pyarrow"):
        idx = np.asarray(t.column("_bit"), dtype=np.uint64)
        np.bitwise_or.at(bitmap, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))
    return bitmap


def bloom_semi_filter(
    ds: ray.data.Dataset,
    key: str,
    bitmap,
    num_hashes: int = 4,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Approximate semi-join pre-filter: keep rows whose ``key`` is
    POSSIBLY in the Bloom filter built by :func:`bloom_build` (no false
    negatives; false positives pass through at the filter's FP rate).
    The 100-TB move: broadcast the 2 MiB bitmap once (``ray.put``) and
    drop definite non-matches BEFORE a hash_join/set_op shuffle —
    shuffle volume falls to matches + ε. Follow with the exact join for
    exact semantics; null keys are dropped (they match nothing).
    ``bitmap`` may be the numpy array or an ObjectRef of it."""
    import ray as _ray

    ref = bitmap if isinstance(bitmap, _ray.ObjectRef) else _ray.put(bitmap)

    class Probe:
        def __init__(self):
            self.bm = _ray.get(ref)
            self.nb = np.uint64(len(self.bm) << 6)

        def __call__(self, t: pa.Table) -> pa.Table:
            col = t.column(key).cast(pa.string())
            h = str_hash_u64(col)
            keep = np.asarray(pc.is_valid(col.combine_chunks()))
            for i in range(num_hashes):
                idx = splitmix64(h ^ np.uint64((0x9E3779B97F4A7C15 * (i + 1)) & 0xFFFFFFFFFFFFFFFF)) % self.nb
                word = self.bm[(idx >> np.uint64(6)).astype(np.int64)]
                keep &= ((word >> (idx & np.uint64(63))) & np.uint64(1)).astype(bool)
            return t.filter(pa.array(keep))

    return ds.map_batches(
        Probe, batch_format="pyarrow", batch_size=batch_size, concurrency=(1, 4)
    )


def unnest_list(
    ds: ray.data.Dataset,
    col: str,
    out_col: str | None = None,
    keep_cols: list[str] | None = None,
    index_col: str | None = None,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Explode a ``list<T>`` column (SQL ``unnest``): one output row per
    list element, parent columns repeated. Map-only, fully vectorized —
    parent columns gather with ONE Arrow take over the repeated parent
    indices (derived from the list offsets), elements are the list's
    flat values array (zero-copy slice). NULL and empty lists emit no
    rows (SQL unnest convention). ``index_col`` optionally emits the
    0-based element ordinal."""
    out_col = out_col or col

    def fn(t: pa.Table) -> pa.Table:
        lc = t.column(col).combine_chunks()
        if isinstance(lc, pa.ChunkedArray):
            lc = lc.combine_chunks()
        # normalize null lists to empty so offsets are usable directly
        lc = pc.if_else(pc.is_valid(lc), lc, pa.scalar([], lc.type))
        lc = lc.combine_chunks() if isinstance(lc, pa.ChunkedArray) else lc
        offs = np.asarray(lc.offsets, dtype=np.int64)
        lens = offs[1:] - offs[:-1]
        parent = np.repeat(np.arange(t.num_rows, dtype=np.int64), lens)
        flat = lc.flatten()
        keep = keep_cols if keep_cols is not None else [c for c in t.column_names if c != col]
        cols = {c: t.column(c).take(pa.array(parent)) for c in keep}
        cols[out_col] = flat
        if index_col is not None:
            idx = np.arange(len(parent), dtype=np.int64) - np.repeat(offs[:-1], lens)
            cols[index_col] = pa.array(idx)
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)


def grouped_array_agg(
    ds: ray.data.Dataset,
    key: str,
    val_col: str,
    order_cols: list[str],
    out_col: str = "vals",
    distinct: bool = False,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Ordered per-key ARRAY aggregation (SQL ``list(val ORDER BY ..)``
    / ``array_agg``): each key becomes ONE row whose ``out_col`` is the
    key's values as a real ``list<T>`` in ``order_cols`` order — the
    typed counterpart of :func:`grouped_concat` for sequence-model
    training examples. ``distinct=True`` is collect_set: each value
    once per key, keeping its FIRST occurrence's position in the order
    (deduped locally per batch first — the combiner — then exactly in
    the bucket fold). Same vectorized shape: one bounded bucket
    shuffle, in-bucket sort, ``pa.ListArray.from_arrays`` over the key
    run boundaries — no per-row Python. NULL values are skipped
    (array_agg FILTER convention); all-null keys are dropped; NULL keys
    form one group. Contract: one key's sequence fits a worker."""
    sel = list(dict.fromkeys([key, val_col, *order_cols]))
    order = [(key, "ascending")] + [(c, "ascending") for c in order_cols]

    def _first_per_pair(t: pa.Table) -> pa.Table:
        # keep each (key, val)'s FIRST row in the sort order (C-speed
        # pandas duplicated mask; NaN keys compare equal, like the fold)
        df = pa.table({"k": t.column(key), "v": t.column(val_col)}).to_pandas()
        return t.filter(pa.array(~df.duplicated(["k", "v"]).to_numpy()))

    def prep(t: pa.Table) -> pa.Table:
        t = t.select(sel)
        t = t.filter(pc.is_valid(t.column(val_col)))
        if distinct:
            t = t.take(pc.sort_indices(t, sort_keys=order)).combine_chunks()
            t = _first_per_pair(t)
        return t

    def fold(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=order)).combine_chunks()
        if distinct:
            g = _first_per_pair(g).combine_chunks()
        fr = _frame(_run_boundaries(g.column(key), g.num_rows))
        offsets = pa.array(np.append(fr.starts, g.num_rows).astype(np.int32))
        return pa.table(
            {
                key: g.column(key).take(pa.array(fr.starts)),
                out_col: pa.ListArray.from_arrays(offsets, g.column(val_col).combine_chunks()),
            }
        )

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=prep)


def grouped_range_rolling(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    specs: dict[str, tuple[str, str]],
    range_delta: int,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key RANGE-frame rolling aggregates over a numeric/time order
    column (SQL ``agg(val) OVER (PARTITION BY key ORDER BY ts RANGE
    BETWEEN range_delta PRECEDING AND CURRENT ROW)``): the window is
    every row of the key whose ``ts`` lies in ``[ts_i - range_delta,
    ts_i]`` — the time-interval window ROWS frames can't express (ties
    in ``ts`` share one frame, exactly SQL RANGE semantics). ``specs``:
    out -> (val_col, kernel), kernel ∈ ``sum | count | mean`` (mean =
    ``CAST(sum AS DOUBLE)/count`` in that fixed order — mirror the SQL
    expression, not a windowed avg()).

    Shape: one bounded bucket shuffle; in-bucket the per-row window
    START indices come from ONE vectorized ``np.searchsorted`` over a
    key-lifted timestamp axis (each key run shifted onto its own
    disjoint segment of the int64 line), then every kernel is a cumsum
    difference. NULL ``ts`` rows are dropped (SQL: they'd form an
    unordered peer group); NULL values add zero / don't count."""
    if range_delta < 0:
        raise ValueError("range_delta must be >= 0")
    for out, (c, kern) in specs.items():
        if kern not in ("sum", "count", "mean"):
            raise ValueError(f"unsupported range-rolling kernel {kern!r}")
    order = [(key, "ascending"), (ts_col, "ascending")]

    def prep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column(ts_col)))

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, order, key)
        ts = np.asarray(g.column(ts_col).cast(pa.int64()))
        t0, t1 = (int(ts.min()), int(ts.max())) if len(ts) else (0, 0)
        span = t1 - t0 + range_delta + 2
        if len(fr.starts) * span > 2**62:
            raise ValueError("key runs × ts span overflow the lifted axis; "
                             "raise num_buckets or narrow the ts domain")
        lifted = ts - t0 + fr.run * span
        lo = np.searchsorted(lifted, lifted - range_delta, side="left")
        # ties at ts_i: SQL RANGE frames END at the last peer, too
        hi = np.searchsorted(lifted, lifted, side="right")
        agg = _frame_agg(g, lo, hi)
        for out, (col, kern) in specs.items():
            g = g.append_column(out, agg(col, kern))
        return g

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=prep)


def histogram_agg(
    ds: ray.data.Dataset,
    col: str,
    lo: int,
    hi: int,
    nbins: int,
    key: str | list[str] | None = None,
    bin_col: str = "bin",
    n_col: str = "n",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Equi-width histogram (optionally per group): counts of ``col``
    values per bin over ``[lo, hi)``, out-of-range values clamped into
    the edge bins, NULLs dropped — the data-profiling / distribution-
    audit primitive. Integer bin math (``(v - lo) * nbins // (hi -
    lo)``, floor division — mirror the SQL expression exactly).

    Shape: the combiner groupby — per batch at most ``nbins`` (×
    groups) partial rows leave; the shuffle is bin-cardinality-sized,
    never row-sized. Empty bins are absent (SQL GROUP BY semantics;
    densify downstream if needed)."""
    if not (hi > lo and nbins > 0):
        raise ValueError("need hi > lo and nbins > 0")
    keys = [] if key is None else ([key] if isinstance(key, str) else list(key))
    width = hi - lo

    def stamp(t: pa.Table) -> pa.Table:
        v = t.column(col).cast(pa.int64())
        mask = pc.is_valid(v)
        t = t.filter(mask)
        v = np.asarray(t.column(col).cast(pa.int64()))
        b = np.clip((v - lo) * nbins // width, 0, nbins - 1)
        cols = {k: t.column(k) for k in keys}
        cols[bin_col] = pa.array(b.astype(np.int64))
        return pa.table(cols) if keys else pa.table({bin_col: cols[bin_col]})

    binned = ds.map_batches(stamp, batch_format="pyarrow", batch_size=batch_size)
    return partial_groupby_agg(
        binned, [*keys, bin_col], {n_col: (bin_col, "count")}, batch_size=batch_size
    )


def profile_columns(
    ds: ray.data.Dataset,
    cols: list[str],
    approx_distinct: bool = False,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Dataset profiling: one row per column with ``n_rows``,
    ``n_null``, ``n_distinct`` and stringified ``min`` / ``max`` — the
    pre-training data-audit summary.

    Shape: n/null/min/max fold as per-column combiner groupbys over
    one-row per-batch partials (no row shuffle; min/max compare in the
    column's NATIVE type and stringify only at the end — a string fold
    would compare '100' < '99'). Distinct counts for ALL columns ride
    ONE melted (column, value) pair-dedup shuffle (the grouped_nunique
    pattern with the column name in the bucket key — one exchange total
    instead of one per column; ``approx_distinct=True`` switches to the
    HyperLogLog sketch when per-batch value sets are too wide)."""
    parts = []
    for c in cols:
        def stamp(t: pa.Table, c=c) -> pa.Table:
            v = t.column(c)
            valid = v.filter(pc.is_valid(v))
            # min/max stay NATIVE-typed through the fold
            mn = pc.min(valid) if len(valid) else pa.scalar(None, v.type)
            mx = pc.max(valid) if len(valid) else pa.scalar(None, v.type)
            return pa.table(
                {
                    "column": pa.array([c]),
                    "n_rows": pa.array([t.num_rows], pa.int64()),
                    "n_null": pa.array([t.num_rows - len(valid)], pa.int64()),
                    "min": pa.array([mn.as_py()], v.type),
                    "max": pa.array([mx.as_py()], v.type),
                }
            )

        def stringify(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "column": t["column"],
                    "n_rows": t["n_rows"],
                    "n_null": t["n_null"],
                    "min": pa.array(
                        [None if v is None else str(v) for v in t["min"].to_pylist()],
                        pa.string(),
                    ),
                    "max": pa.array(
                        [None if v is None else str(v) for v in t["max"].to_pylist()],
                        pa.string(),
                    ),
                }
            )

        parts.append(
            partial_groupby_agg(
                ds.map_batches(stamp, batch_format="pyarrow", batch_size=batch_size),
                "column",
                {
                    "n_rows": ("n_rows", "sum"),
                    "n_null": ("n_null", "sum"),
                    "min": ("min", "min"),
                    "max": ("max", "max"),
                },
                batch_size=batch_size,
            ).map_batches(stringify, batch_format="pyarrow")
        )
    stats = parts[0]
    for p in parts[1:]:
        stats = stats.union(p)

    def melt(t: pa.Table) -> pa.Table:
        outs = []
        for c in cols:
            outs.append(
                pa.table(
                    {
                        "column": pa.array(np.full(t.num_rows, c, object), pa.string()),
                        "_v": t.column(c).cast(pa.string()),
                    }
                )
            )
        return pa.concat_tables(outs)

    melted = ds.map_batches(melt, batch_format="pyarrow", batch_size=batch_size)
    nd_fn = grouped_nunique_approx if approx_distinct else grouped_nunique
    nd = nd_fn(melted, "column", "_v", out_col="n_distinct")
    return hash_join(stats, nd, "column", how="left")


def grouped_zscore(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    out_col: str = "z",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-group z-score standardization: ``z = (x - mean) / std_pop``
    within each key — the feature-normalization transform. Fixed
    float64 expression tree for SQL-oracle bit parity on exact-integer
    inputs (same discipline as :func:`moment_agg`):

        mean = s / n ;  z = (x - s / n) / sqrt((q - s * (s / n)) / n)

    NULL when the group's variance is 0 or x is NULL. Shape: ONE
    bounded hash-bucket shuffle on ``key``, then an in-bucket
    vectorized groupby-transform (each row's key-run sums by
    :func:`_frame_sum` — no driver dict, works at any key cardinality).
    NULL keys form one group; NULL values don't contribute to the
    moments."""
    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, [(key, "ascending")], key)
        a = g.column(col).cast(pa.float64())
        x = np.asarray(a.fill_null(0.0))
        valid = np.asarray(pc.is_valid(a), dtype=np.float64)
        xv = x * valid
        s = _frame_sum(xv, fr.first, fr.last + 1)
        q = _frame_sum(xv * xv, fr.first, fr.last + 1)
        nn = _frame_sum(valid, fr.first, fr.last + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            var = (q - s * (s / nn)) / nn
            z = (x - s / nn) / np.sqrt(var)
        bad = ~(np.asarray(pc.is_valid(a))) | (nn == 0) | ~(var > 0)
        return g.append_column(out_col, pa.array(z, pa.float64(), mask=bad))

    return _by_key(ds, key, fold, num_buckets, batch_size)


def funnel_steps(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    type_col: str,
    steps: list,
    window: int | None = None,
    out_col: str = "steps_reached",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Ordered event-funnel analysis (the ClickHouse ``windowFunnel``
    shape): for each key, how many of ``steps`` completed IN ORDER —
    greedy from the EARLIEST step-1 event, each next step the earliest
    strictly-later match, the whole chain within ``window`` of step 1
    when given (timestamps as int64, e.g. epoch µs). Emits one row per
    key with ``out_col`` ∈ [0, len(steps)].

    Shape: ONE bounded bucket shuffle on ``key``; in-bucket each step
    is a vectorized masked per-run minimum (+inf-masked ``np.minimum``
    fold via ``np.minimum.reduceat``) — len(steps) O(n) passes, no
    per-key Python. Greedy-earliest is deterministic and exactly
    SQL-expressible as a chain of min-ts CTEs. NULL keys form one
    group; NULL ts/type rows are ignored."""
    if not steps:
        raise ValueError("steps must be non-empty")

    def prep(t: pa.Table) -> pa.Table:
        t = t.select([key, ts_col, type_col])
        return t.filter(pc.and_(pc.is_valid(t.column(ts_col)), pc.is_valid(t.column(type_col))))

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, [(key, "ascending")], key)
        ts = np.asarray(g.column(ts_col).cast(pa.int64()), dtype=np.float64)
        et = g.column(type_col)
        starts = fr.starts
        reached = np.zeros(len(starts), dtype=np.int64)
        prev_t = np.full(len(starts), -np.inf)
        t1 = None
        alive = np.ones(len(starts), dtype=bool)
        for si, step in enumerate(steps):
            m = np.asarray(pc.equal(et, step).fill_null(False))
            cand = np.where(m & (ts > prev_t[fr.run]), ts, np.inf)
            if window is not None and t1 is not None:
                cand = np.where(t1[fr.run] + window >= ts, cand, np.inf)
            step_min = np.minimum.reduceat(cand, starts)
            hit = alive & np.isfinite(step_min)
            reached[hit] = si + 1
            prev_t = np.where(hit, step_min, prev_t)
            if si == 0:
                t1 = np.where(hit, step_min, np.inf)
            alive = hit
            if not alive.any():
                break
        return pa.table(
            {key: g.column(key).take(pa.array(starts)),
             out_col: pa.array(reached)}
        )

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=prep)


def grouped_normalize(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    method: str = "minmax",
    out_col: str | None = None,
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-group normalization transforms beside
    :func:`grouped_zscore`, same one-bucket-shuffle run-boundary-
    broadcast shape and the same fixed float64 expression discipline
    (bit-exact SQL oracles on exact-integer inputs):

    * ``"minmax"`` — ``(x - min) / (max - min)``; NULL when the group
      is constant (max == min).
    * ``"share"`` — ``x / sum(x)`` (ratio-to-report); NULL when the
      group total is 0.

    NULL values stay NULL and don't contribute to the statistics."""
    if method not in ("minmax", "share"):
        raise ValueError("method must be 'minmax' or 'share'")
    out_col = out_col or method

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, [(key, "ascending")], key)
        a = g.column(col).cast(pa.float64())
        valid_b = np.asarray(pc.is_valid(a))
        x = np.asarray(a.fill_null(0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            if method == "share":
                s = _frame_sum(x * valid_b, fr.first, fr.last + 1)
                v = x / s
                bad = ~valid_b | (s == 0)
            else:
                xmin = np.where(valid_b, x, np.inf)
                xmax = np.where(valid_b, x, -np.inf)
                gmin = np.minimum.reduceat(xmin, fr.starts)[fr.run]
                gmax = np.maximum.reduceat(xmax, fr.starts)[fr.run]
                v = (x - gmin) / (gmax - gmin)
                bad = ~valid_b | ~np.isfinite(gmin) | (gmax == gmin)
        return g.append_column(out_col, pa.array(v, pa.float64(), mask=bad))

    return _by_key(ds, key, fold, num_buckets, batch_size)


def cross_join(
    left: ray.data.Dataset,
    right_table: pa.Table,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Cartesian product against a SMALL broadcast side (SQL CROSS
    JOIN): every left row pairs with every right row. The right side is
    an in-memory Table shipped once via ``ray.put`` (it multiplies the
    output, so a large right side is a design error — this is the
    parameter-grid / small-dimension expansion op). Map-only: per batch
    the product is one left ``take`` over repeated indices + one tiled
    right ``take`` — no shuffle. Name collisions take a ``_r`` suffix."""
    if right_table.num_rows == 0:
        raise ValueError("cross_join right side is empty")
    ref = ray.put(right_table)

    class Cross:
        def __init__(self):
            self.rt = ray.get(ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            nl, nr = t.num_rows, self.rt.num_rows
            li = pa.array(np.repeat(np.arange(nl, dtype=np.int64), nr))
            ri = pa.array(np.tile(np.arange(nr, dtype=np.int64), nl))
            lcols = {c: t.column(c).take(li) for c in t.column_names}
            taken = set(lcols)
            for c in self.rt.column_names:
                name = f"{c}_r" if c in taken else c
                lcols[name] = self.rt.column(c).take(ri)
            return pa.table(lcols)

    return left.map_batches(
        Cross, batch_format="pyarrow", batch_size=batch_size, concurrency=(1, 4)
    )


def grouped_mad(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    med_col: str | None = "med",
    mad_col: str = "mad",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key MEDIAN + MAD (SQL ``median(x)`` / ``mad(x)`` =
    ``median(abs(x - median(x)))``), both interpolated at q=0.5.

    Exactness: at q=0.5 the interpolation weight is 0 or exactly 0.5,
    so on integer-valued inputs every intermediate (median, |x-med|,
    second median) is an exact multiple of 0.25 — bit-equal to DuckDB
    with no rounding step, regardless of summation order (there is
    none). Shape: ONE bounded hash-bucket shuffle on ``key``; in-bucket
    both medians come from vectorized sorts — sort by (key, col) for
    the first, one ``np.lexsort`` of (run, |dev|) for the second; per
    group, interpolated rank gathers only. NULL values are dropped
    up-front (oracle: ``WHERE x IS NOT NULL``); NULL keys one group."""
    def prep(t: pa.Table) -> pa.Table:
        return t.select([key, col]).filter(pc.is_valid(t.column(col)))

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, [(key, "ascending"), (col, "ascending")], key)
        xs = np.asarray(g.column(col).cast(pa.float64()))
        med = _quantile_cont(xs, fr, 0.5)
        dev = np.abs(xs - med[fr.run])
        order = np.lexsort((dev, fr.run))
        mad = _quantile_cont(dev[order], fr, 0.5)
        out = {key: g.column(key).take(pa.array(fr.starts))}
        if med_col is not None:
            out[med_col] = pa.array(med, pa.float64())
        out[mad_col] = pa.array(mad, pa.float64())
        return pa.table(out)

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=prep)


def grouped_entropy(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    out_col: str = "entropy",
    ndigits: int = 6,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key Shannon entropy over the VALUE DISTRIBUTION of ``col``
    (SQL ``entropy(x)``, log base 2): H = -Σ (c/n)·log2(c/n) over the
    distinct-value counts c. Counts are exact integers; the float sum
    order differs from any SQL engine's hash-table order, so BOTH sides
    round to ``ndigits`` (oracle: ``ROUND(entropy(x), 6)``) — the one
    aggregate in this family published with a rounding contract.

    Shape: combiner — per-batch (key, value, count) partials
    (O(distinct per batch) rows leave each task), ONE :func:`_by_key`
    shuffle on ``key``; per bucket one sort by (key, value) merges the
    partial counts of each (key, value) run and H is summed per key run.
    NULL values excluded (DuckDB entropy ignores NULLs); NULL keys one
    group."""

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([key, col]).filter(pc.is_valid(t.column(col)))
        return t.group_by([key, col]).aggregate([(col, "count")]).rename_columns(
            [key, col, "_cnt"]
        )

    def fold(g: pa.Table) -> pa.Table:
        # value runs by run boundaries, not a (key, col) group_by: that
        # splits NULL-string-key groups (pyarrow 16.1 multi-key defect)
        g, fr = _sorted_runs(g, [(key, "ascending"), (col, "ascending")], key)
        vstarts = np.flatnonzero(fr.new | _run_boundaries(g.column(col), g.num_rows))
        c = np.add.reduceat(np.asarray(g.column("_cnt")), vstarts)
        first = np.flatnonzero(fr.new[vstarts])  # first value run of each key run
        p = c / np.add.reduceat(c, first)[fr.run[vstarts]]
        h = -np.add.reduceat(p * np.log2(p), first)
        return pa.table({key: g.column(key).take(pa.array(fr.starts)),
                         out_col: pa.array([round(x, ndigits) for x in h.tolist()],
                                           pa.float64())})

    return _by_key(ds, key, fold, 64, batch_size, prep=partial)


def grouped_arg_extreme(
    ds: ray.data.Dataset,
    key: str,
    val_col: str,
    arg_col: str,
    mode: str = "max",
    out_val: str | None = "val",
    out_arg: str = "arg",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key ARG_MAX / ARG_MIN with a DETERMINISTIC tie-break (the
    smallest ``arg`` among rows sharing the extreme value) — SQL
    ``arg_max(arg, val)`` is tie-nondeterministic, so the published
    oracle form is the window equivalent::

        row_number() OVER (PARTITION BY key
                           ORDER BY val DESC, arg ASC) = 1   -- mode=max

    Shape: combiner — each batch reduces to one candidate row per key
    present (vectorized sort + run-boundary take, no Python rows), then
    ONE :func:`_by_key` shuffle of O(keys × batches) rows re-reduces
    every key of a bucket the same way. NULL vals are excluded; a key
    whose vals are all NULL is dropped (mirror ``WHERE val IS NOT
    NULL``)."""
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    vdir = "descending" if mode == "max" else "ascending"

    def reduce_one(t: pa.Table) -> pa.Table:
        t, fr = _sorted_runs(
            t.filter(pc.is_valid(t.column(val_col))),
            [(key, "ascending"), (val_col, vdir), (arg_col, "ascending")], key,
        )
        return t.take(pa.array(fr.starts))

    def partial(t: pa.Table) -> pa.Table:
        return reduce_one(t.select([key, val_col, arg_col]))

    def finalize(g: pa.Table) -> pa.Table:
        r = reduce_one(g)
        out = {key: r.column(key)}
        if out_val is not None:
            out[out_val] = r.column(val_col)
        out[out_arg] = r.column(arg_col)
        return pa.table(out)

    return _by_key(ds, key, finalize, 64, batch_size, prep=partial)


def grouped_quantile_sketch(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    id_col: str,
    qs: dict[str, float],
    k: int = 1024,
    seed: int = 0x5EED,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """APPROXIMATE per-key interpolated quantiles from a BOTTOM-K-BY-HASH
    sample (KMV-style): each key keeps the ``k`` rows whose id-hash is
    smallest — a uniform without-replacement sample that is
    deterministic, replay-stable, and MERGEABLE (bottom-k of a union =
    bottom-k of the partials' union), so the shuffle carries at most
    ``k`` rows per key per batch instead of the key's full value stream.
    The 100-TB path beside :func:`grouped_quantile_cont` (exact, full
    row shuffle) and :func:`grouped_quantile_hist` (exact, needs a
    low-cardinality value domain): rank error is O(1/sqrt(k)) with high
    probability — the accuracy gate lives in pytest, not a SQL oracle
    (approximate → rows-only registration).

    Keys with ≤ k rows are EXACT (the sample is the population). NULL
    values dropped up-front; one :func:`_by_key` shuffle, and per bucket
    :func:`grouped_quantile_cont`'s fold (DuckDB's arithmetic) on the
    merged sample."""
    def bottom_k(t: pa.Table) -> pa.Table:
        # per-key bottom-k by hash: sort (key, h), keep run-local pos < k
        t, fr = _sorted_runs(t, [(key, "ascending"), ("_h", "ascending")], key)
        return t.filter(pa.array(np.arange(t.num_rows) - fr.first < k))

    def partial(t: pa.Table) -> pa.Table:
        t = t.select([key, col, id_col]).filter(pc.is_valid(t.column(col)))
        h = str_hash_u64(t.column(id_col).cast(pa.string()), seed=seed)
        t = pa.table({key: t.column(key), col: t.column(col),
                      "_h": pa.array(h.view(np.int64))})
        return bottom_k(t)

    fold = _quantile_fold(key, col, qs, _pick_cont, pre=bottom_k)
    return _by_key(ds, key, fold, 64, batch_size, prep=partial)


def merge_intervals(
    ds: ray.data.Dataset,
    key: str,
    start_col: str,
    end_col: str,
    out_start: str = "win_start",
    out_end: str = "win_end",
    count_col: str | None = "n_events",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key INTERVAL COALESCING (the gaps-and-islands merge): union
    overlapping-or-touching [start, end) intervals into maximal windows,
    one output row per merged window with its member count — the
    session-window / availability-window primitive. An interval joins
    the current island iff its start ≤ the running max end seen so far
    (SQL: ``start > max(end) OVER (... 1 PRECEDING)`` opens an island).

    Shape: ONE bounded hash-bucket shuffle on ``key``; in-bucket sort by
    (key, start, end) then fully vectorized — the per-run running-max is
    one global ``np.maximum.accumulate`` over end-values offset by
    run-id·RANGE (runs are visited in order, so the offset keeps each
    run's prefix independent), islands are a cumsum of boundary flags,
    and window extents are gathered at island run edges."""
    def prep(t: pa.Table) -> pa.Table:
        t = t.select([key, start_col, end_col])
        return t.filter(pc.and_(pc.is_valid(t.column(start_col)),
                                pc.is_valid(t.column(end_col))))

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(
            g, [(key, "ascending"), (start_col, "ascending"), (end_col, "ascending")], key
        )
        s = np.asarray(g.column(start_col).cast(pa.int64()))
        e = np.asarray(g.column(end_col).cast(pa.int64()))
        # segment running-max of e: offset each run into its own value
        # range, accumulate globally, de-offset
        lo, hi = (
            (min(int(e.min()), int(s.min())), max(int(e.max()), int(s.max())))
            if len(s) else (0, 0)
        )
        span = (hi - lo) + 1
        cm = np.maximum.accumulate(e - lo + fr.run * span) - fr.run * span + lo
        prev_cm = np.empty_like(cm)
        prev_cm[1:] = cm[:-1]
        isl = _frame(fr.new | (s > prev_cm))
        out = {
            key: g.column(key).take(pa.array(isl.starts)),
            out_start: pa.array(s[isl.starts], pa.int64()),
            out_end: pa.array(cm[isl.starts + isl.lens - 1], pa.int64()),
        }
        if count_col is not None:
            out[count_col] = pa.array(isl.lens, pa.int64())
        return pa.table(out)

    return _by_key(ds, key, fold, num_buckets, batch_size, prep=prep)


def grouped_locf(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    val_col: str,
    out_col: str = "filled",
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Per-key LAST-OBSERVATION-CARRIED-FORWARD imputation: each NULL
    takes the key's most recent non-null value in the given order (SQL
    ``last_value(val IGNORE NULLS) OVER (PARTITION BY key ORDER BY ...
    ROWS UNBOUNDED PRECEDING)``); a key's leading NULLs stay NULL. The
    time-series gap-fill. One bounded bucket shuffle; in-bucket the fill
    is one vectorized pass — the index of each row's latest valid row is
    a running maximum of the valid positions, masked where it lies
    before the row's key run, then a single Arrow take."""
    order = [(key, "ascending")] + [(c, "ascending") for c in order_cols]

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, order, key)
        valid = np.asarray(pc.is_valid(g.column(val_col)))
        # the latest valid row at or before each row; one before the row's
        # key run means the key has no value yet
        seen = np.where(valid, np.arange(g.num_rows), -1)
        latest = np.maximum.accumulate(seen)
        src = pa.array(latest, mask=latest < fr.first)
        return g.append_column(out_col, g.column(val_col).take(src))

    return _by_key(ds, key, fold, num_buckets, batch_size)


def shared_scan_agg(
    ds: ray.data.Dataset,
    dims: dict,
    specs: dict[str, tuple[str, str]],
    dim_col: str = "dim",
    key_col: str = "key",
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """BATCHED group-bys over ONE shared scan (the LMFAO shape — "An
    Engine for Batches of Group-By Aggregates", VLDB 2020): compute the
    same aggregates grouped by K different dimensions while reading the
    input exactly once, instead of K scans. Per batch, every dimension's
    exact local partial is computed from the already-loaded Arrow batch
    and melted to ``(dim, key)`` rows (keys stringified to share one
    schema); ONE combiner shuffle then folds all dimensions together —
    shuffle volume is the sum of the K vocabulary-sized partial streams,
    and the input bytes are touched once.

    ``dims``: out-label -> column name, or -> callable(batch) returning
    an Arrow array (a derived dimension, e.g. a date truncation).
    ``specs``: out -> (value_col, "sum"|"count"|"min"|"max")."""

    def partial(t: pa.Table) -> pa.Table:
        outs = []
        for label, src in dims.items():
            keys = src(t) if callable(src) else t.column(src)
            if not isinstance(keys, (pa.Array, pa.ChunkedArray)):
                keys = pa.array(keys)
            cols = {key_col: keys.cast(pa.string())}
            aggs = []
            for out, (col, kern) in specs.items():
                cols[f"_{out}"] = t.column(col)
                if kern == "count":
                    aggs.append((f"_{out}", "count", pc.CountOptions(mode="all")))
                else:
                    aggs.append((f"_{out}", kern))
            g = pa.table(cols).group_by([key_col]).aggregate(aggs)
            ren = {f"_{out}_{'count' if kern == 'count' else kern}": out
                   for out, (_, kern) in specs.items()}
            g = g.rename_columns([ren.get(n, n) for n in g.column_names])
            outs.append(g.append_column(
                dim_col, pa.array([label] * g.num_rows, pa.string())))
        return pa.concat_tables(outs, promote_options="permissive")

    merged = partial_groupby_agg(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=batch_size),
        [dim_col, key_col],
        {out: (out, "sum" if kern == "count" else kern)
         for out, (_, kern) in specs.items()},
    )
    return merged


def corr_join_sketch(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    xcol: str,
    ycol: str,
    k: int = 4096,
    seed: int = 0xC0DE,
    batch_size: int = 65536,
) -> float:
    """JOIN-CORRELATION estimate from a KMV key-sample — the
    correlation-sketch move ("A Sketch-based Index for Correlated
    Dataset Search", ICDE 2022): instead of materializing left ⋈ right
    to correlate x with y, both sides keep only the rows whose KEY hash
    is among the k smallest (the same keyed hash on both sides selects
    the SAME keys — a coordinated bottom-k sample of the join), and the
    Pearson correlation of the tiny joined sample estimates the full
    join's. Each side's scan reduces to per-batch bottom-k partials
    (vectorized np.partition), so nothing key-cardinality-sized
    shuffles or lands on the driver beyond 2k rows.

    Returns a float (NaN when the sample has <2 rows or zero variance).
    Accuracy is O(1/sqrt(k)) — pytest-gated, not SQL-oracled. Assumes
    ``key`` is unique per side (dimension-style inputs); duplicate keys
    are sampled all-or-none, which keeps the estimator unbiased."""
    def side_sample(ds: ray.data.Dataset, val: str) -> dict:
        def partial(t: pa.Table) -> pa.Table:
            t = t.select([key, val]).filter(pc.is_valid(t.column(val)))
            h = str_hash_u64(t.column(key).cast(pa.string()), seed=seed)
            if len(h) > k:
                idx = np.argpartition(h, k)[:k]
                t = t.take(pa.array(idx))
                h = h[idx]
            return t.append_column("_h", pa.array(h.view(np.int64)))

        parts = ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=batch_size)
        rows: dict = {}
        best: list = []
        for t in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
            for kk, vv, hh in zip(t.column(key).to_pylist(),
                                  t.column(val).to_pylist(),
                                  t.column("_h").to_pylist()):
                best.append((hh, kk, vv))
        best.sort()
        return {kk: vv for _, kk, vv in best[:k]}

    ls = side_sample(left, xcol)
    rs = side_sample(right, ycol)
    common = sorted(set(ls) & set(rs))
    if len(common) < 2:
        return float("nan")
    x = np.array([ls[c] for c in common], dtype=np.float64)
    y = np.array([rs[c] for c in common], dtype=np.float64)
    n = float(len(x))
    cov = (x * y).sum() - x.sum() * (y.sum() / n)
    d2 = ((x * x).sum() - x.sum() * (x.sum() / n)) * \
         ((y * y).sum() - y.sum() * (y.sum() / n))
    return float(cov / np.sqrt(d2)) if d2 > 0 else float("nan")


def pagerank(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    iters: int = 10,
    damping: float = 0.85,
    out_node: str = "node",
    out_rank: str = "rank",
    ndigits: int = 6,
    num_buckets: int = 64,
    mode: str = "broadcast",
) -> ray.data.Dataset:
    """Distributed PAGERANK by power iteration — the iterative
    join-aggregate archetype: every iteration is ONE bounded hash join
    (edge stream ⋈ current ranks on the source) and ONE combiner
    groupby (contributions summed per destination), with the rank table
    staying a Dataset end to end — nothing node-cardinality-sized on
    the driver. Simplified model (no dangling-mass redistribution),
    fixed iteration count, so a SQL oracle mirrors it with ``iters``
    chained CTEs; float sum order differs between engines, so the FINAL
    ranks round to ``ndigits`` (intermediate drift stays ~1e-13 over 10
    iterations).

        r₀(n)    = 1/N
        r_{k+1}(n) = (1-d)/N + d · Σ_{(m,n)∈E} r_k(m) / outdeg(m)

    Scale: per-iteration cost = O(|E|) join + O(distinct dst) partials;
    iterations are sequential (inherent). Node set = src ∪ dst.

    ``mode="broadcast"`` (default) keeps the node-sized rank vector on
    the driver and broadcasts it per iteration — ONE combiner shuffle
    per iteration instead of three (contract: nodes fit in memory; the
    usual case even for web-scale edge counts). ``mode="join"`` is the
    fully-distributed path above for node sets that don't."""
    if mode not in ("broadcast", "join"):
        raise ValueError("mode must be 'broadcast' or 'join'")
    edges = edges.map_batches(
        lambda t: pa.table({src: t[src], dst: t[dst]}),
        batch_format="pyarrow",
    ).materialize()  # re-read every iteration: keep it in the object store

    def melt(t: pa.Table) -> pa.Table:
        return pa.table({out_node: pa.concat_arrays([
            t[src].combine_chunks().cast(pa.string()),
            t[dst].combine_chunks().cast(pa.string()),
        ])})

    nodes = distinct_rows(
        edges.map_batches(melt, batch_format="pyarrow"), [out_node],
        num_buckets=num_buckets,
    ).materialize()
    n_nodes = nodes.count()
    base = (1.0 - damping) / n_nodes

    outdeg = partial_groupby_agg(edges, src, {"_deg": (dst, "count")}).materialize()
    # per-edge share weight = 1/outdeg(src), joined once (static)
    weighted = hash_join(edges, outdeg, key=src, num_buckets=num_buckets).map_batches(
        lambda t: pa.table({
            src: t[src], dst: t[dst],
            "_w": pc.divide(pa.array(np.ones(t.num_rows)), t["_deg"].cast(pa.float64())),
        }),
        batch_format="pyarrow",
    ).materialize()

    if mode == "broadcast":
        node_list = []
        for t in nodes.iter_batches(batch_size=None, batch_format="pyarrow"):
            node_list.extend(t.column(out_node).to_pylist())
        import pandas as pd

        ranks_s = pd.Series(1.0 / n_nodes, index=sorted(node_list))
        for _ in range(iters):
            ref = ray.put(ranks_s)

            def contrib(t: pa.Table) -> pa.Table:
                r = ray.get(ref)
                rv = r.reindex(t.column(src).to_pandas()).to_numpy()
                return pa.table({
                    out_node: t[dst].cast(pa.string()),
                    "_c": pc.multiply(t["_w"], pa.array(rv, pa.float64())),
                })

            sums = partial_groupby_agg(
                weighted.map_batches(contrib, batch_format="pyarrow"),
                out_node, {"_s": ("_c", "sum")},
            )
            acc = {}
            for t in sums.iter_batches(batch_size=None, batch_format="pyarrow"):
                acc.update(zip(t.column(out_node).to_pylist(),
                               t.column("_s").to_pylist()))
            ranks_s = pd.Series(
                [base + damping * acc.get(n, 0.0) for n in ranks_s.index],
                index=ranks_s.index,
            )
        out = pa.table({
            out_node: pa.array(list(ranks_s.index), pa.string()),
            out_rank: pa.array(np.round(ranks_s.to_numpy(), ndigits), pa.float64()),
        })
        return ray.data.from_arrow(out)

    ranks = nodes.map_batches(
        lambda t: pa.table({src: t[out_node],
                            "_r": pa.array(np.full(t.num_rows, 1.0 / n_nodes))}),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iters):
        contrib = hash_join(weighted, ranks, key=src, num_buckets=num_buckets).map_batches(
            lambda t: pa.table({
                out_node: t[dst].cast(pa.string()),
                "_c": pc.multiply(t["_w"], t["_r"]),
            }),
            batch_format="pyarrow",
        )
        sums = partial_groupby_agg(contrib, out_node, {"_s": ("_c", "sum")})
        joined = hash_join(nodes, sums, key=out_node, how="left",
                           num_buckets=num_buckets)
        ranks = joined.map_batches(
            lambda t: pa.table({
                src: t[out_node],
                "_r": pc.add(
                    pa.scalar(base, pa.float64()),
                    pc.multiply(pa.scalar(damping, pa.float64()),
                                t["_s"].cast(pa.float64()).fill_null(0.0)),
                ),
            }),
            batch_format="pyarrow",
        ).materialize()

    return ranks.map_batches(
        lambda t: pa.table({
            out_node: t[src],
            out_rank: pc.round(t["_r"], ndigits=ndigits),
        }),
        batch_format="pyarrow",
    )


def distinct_rows(
    ds: ray.data.Dataset,
    cols: list[str],
    num_buckets: int = 64,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Exact DISTINCT over ``cols`` with the combiner shape: per-batch
    local dedup, ONE bounded hash-bucket shuffle (never a group per
    distinct value), in-bucket dedup; both dedups are :func:`_distinct`
    (NULLs compare equal)."""

    def dedup(t: pa.Table) -> pa.Table:
        return _distinct(t.select(cols), cols)

    return _by_key(ds, cols, dedup, num_buckets, batch_size, prep=dedup)


def zorder_key(
    t: pa.Table, cols: list[str], bits: int = 16, out_col: str = "_z"
) -> pa.Table:
    """Morton (Z-order) interleave key over up to 4 integer columns —
    the multi-dimensional clustering key (Delta Lake's OPTIMIZE ZORDER).
    Inputs must already be quantized to [0, 2**bits)
    (:func:`write_zordered` does the global min-max quantization);
    this is just the fully-vectorized bit interleave (numpy
    shifts/masks)."""
    n = t.num_rows
    vals = [np.asarray(t.column(c).cast(pa.int64())).astype(np.uint64) for c in cols]
    k = len(vals)
    if not 1 <= k <= 4:
        raise ValueError("zorder_key supports 1-4 columns")
    z = np.zeros(n, dtype=np.uint64)
    for b in range(bits):
        for j, v in enumerate(vals):
            z |= ((v >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * k + j)
    return t.append_column(out_col, pa.array(z.view(np.int64)))


def write_zordered(
    ds: ray.data.Dataset,
    cols: list[str],
    out_dir: str,
    bits: int = 16,
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Cluster a dataset on a Z-ORDER key over ``cols`` and write
    partitioned parquet: global min/max per column (one tiny aggregate)
    → per-batch quantization to 2**bits levels → morton interleave →
    ONE range-partitioned sort on the key → write. Row-group statistics
    then prune selective filters on ANY of the participating columns
    (a single-column sort only prunes its own column) — the multi-
    dimensional layout for the lake's read path. Returns the read-back
    Dataset."""
    stats = {}
    for c in cols:
        agg = ds.map_batches(
            lambda t, c=c: pa.table({
                "_mn": pa.array([pc.min(t[c]).as_py()]),
                "_mx": pa.array([pc.max(t[c]).as_py()]),
            }),
            batch_format="pyarrow", batch_size=batch_size,
        )
        rows = agg.take_all()
        mn = min(r["_mn"] for r in rows if r["_mn"] is not None)
        mx = max(r["_mx"] for r in rows if r["_mx"] is not None)
        stats[c] = (float(mn), float(mx))
    levels = (1 << bits) - 1

    def quantize(t: pa.Table) -> pa.Table:
        qcols = {c: t.column(c) for c in t.column_names}
        for i, c in enumerate(cols):
            mn, mx = stats[c]
            span = (mx - mn) or 1.0
            x = np.asarray(t.column(c).cast(pa.float64()))
            q = np.clip(((x - mn) / span * levels), 0, levels).astype(np.int64)
            qcols[f"_q{i}"] = pa.array(q)
        t2 = pa.table(qcols)
        return zorder_key(t2, [f"_q{i}" for i in range(len(cols))], bits=bits)

    z = ds.map_batches(quantize, batch_format="pyarrow", batch_size=batch_size)
    z = z.sort("_z").map_batches(
        lambda t: t.drop_columns([f"_q{i}" for i in range(len(cols))] + ["_z"]),
        batch_format="pyarrow",
    )
    z.write_parquet(out_dir)
    from raycdc.util import read_parquet_clean

    return read_parquet_clean(out_dir)
