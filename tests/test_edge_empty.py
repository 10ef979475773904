"""Empty- and single-input robustness for the round-3 analytics family:
every operator must stream through zero-row blocks (the partition-
boundary case a 100-TB run hits constantly) without raising, and keep
single-row keys well-defined."""

import pyarrow as pa
import ray.data as rd

from raycdc.ops import (
    cube_agg,
    grouped_first_last,
    grouped_lag,
    grouped_mode,
    grouped_quantile_cont,
    grouped_rank,
    grouped_rolling_agg,
    hash_join,
    moment_agg,
    rollup_agg,
    set_op,
    unpivot,
    weighted_sample,
)

EMPTY = pa.table(
    {
        "k": pa.array([], pa.string()),
        "v": pa.array([], pa.int64()),
        "o": pa.array([], pa.int64()),
    }
)
ONE = pa.table(
    {
        "k": pa.array(["a"]),
        "v": pa.array([5], pa.int64()),
        "o": pa.array([1], pa.int64()),
    }
)


def _n(ds):
    return ds.count()


def test_aggregates_on_empty_input():
    e = rd.from_arrow(EMPTY)
    assert _n(rollup_agg(e, ["k"], {"n": ("v", "count")})) == 0
    assert _n(cube_agg(e, ["k"], {"n": ("v", "count")})) == 0
    assert _n(moment_agg(e, "k", {"m": ("v", "mean")})) == 0
    assert _n(grouped_mode(e, "k", "v")) == 0
    assert _n(grouped_quantile_cont(e, "k", "v", {"p50": 0.5})) == 0


def test_windows_on_empty_and_single():
    e, o = rd.from_arrow(EMPTY), rd.from_arrow(ONE)
    assert _n(grouped_rank(e, "k", ["o"])) == 0
    assert _n(grouped_lag(e, "k", ["o"], "v", periods=-1)) == 0
    assert _n(grouped_first_last(e, "k", ["o"], "v")) == 0
    assert _n(grouped_rolling_agg(e, "k", ["o"], {"r": ("v", "mean")}, 3)) == 0
    r1 = grouped_rank(o, "k", ["o"], pr_col="pr", cd_col="cd").to_pandas()
    assert r1["pr"].iloc[0] == 0.0 and r1["cd"].iloc[0] == 1.0
    assert _n(grouped_rolling_agg(o, "k", ["o"], {"r": ("v", "min")}, 3)) == 1


def test_reshape_and_sets_on_empty_sides():
    e, o = rd.from_arrow(EMPTY), rd.from_arrow(ONE)
    assert _n(unpivot(e, ["k"], ["v", "o"])) == 0
    assert _n(weighted_sample(e, "k", "v")) == 0
    assert _n(set_op(o, e, "except", cols=["k"])) == 1
    assert _n(set_op(e, e, "union", cols=["k"])) == 0
    assert _n(hash_join(o, e, "k", how="full")) == 1


def test_round3b_ops_on_empty_and_single():
    from raycdc.extras.dedup import edit_distance_pairs
    from raycdc.ops import (
        grouped_arg_extreme,
        grouped_entropy,
        grouped_mad,
        grouped_quantile_sketch,
        merge_intervals,
    )

    e, o = rd.from_arrow(EMPTY), rd.from_arrow(ONE)
    assert _n(grouped_mad(e, "k", "v")) == 0
    assert _n(grouped_entropy(e, "k", "v")) == 0
    assert _n(grouped_arg_extreme(e, "k", "v", "o")) == 0
    assert _n(grouped_quantile_sketch(e, "k", "v", "o", {"p50": 0.5})) == 0
    assert _n(merge_intervals(e, "k", "v", "o")) == 0

    m1 = grouped_mad(o, "k", "v").to_pandas()
    assert m1["med"].iloc[0] == 5.0 and m1["mad"].iloc[0] == 0.0
    h1 = grouped_entropy(o, "k", "v").to_pandas()
    assert h1["entropy"].iloc[0] == 0.0
    a1 = grouped_arg_extreme(o, "k", "v", "o").to_pandas()
    assert a1["val"].iloc[0] == 5 and a1["arg"].iloc[0] == 1
    s1 = grouped_quantile_sketch(o, "k", "v", "o", {"p50": 0.5}).to_pandas()
    assert s1["p50"].iloc[0] == 5.0
    w1 = merge_intervals(
        rd.from_arrow(pa.table({"k": ["a"], "v": [1], "o": [9]})), "k", "v", "o"
    ).to_pandas()
    assert w1["win_start"].iloc[0] == 1 and w1["win_end"].iloc[0] == 9

    ed = edit_distance_pairs(
        rd.from_arrow(pa.table({"doc_id": pa.array([], pa.string()),
                                "text": pa.array([], pa.string())})),
        max_dist=3,
    )
    assert _n(ed) == 0


def test_shared_scan_and_bm25_on_empty_and_single():
    from raycdc.extras.text import bm25_topk
    from raycdc.ops import shared_scan_agg

    e = rd.from_arrow(EMPTY)
    assert _n(shared_scan_agg(e, {"k": "k"}, {"n": ("v", "count")})) == 0
    one = rd.from_arrow(pa.table({"doc_id": ["d1"], "text": ["hash join fast"]}))
    df = bm25_topk(one, ["hash", "merge"], k=5).to_pandas()
    assert len(df) == 1 and df["doc_id"].iloc[0] == "d1"
    empty_docs = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.string()),
                                         "text": pa.array([], pa.string())}))
    assert _n(bm25_topk(empty_docs, ["hash"], k=5)) == 0


def test_composite_bucket_and_pair_shuffles_on_empty_input():
    from raycdc.extras.dedup import exact_jaccard_pairs
    from raycdc.ops import distinct_rows
    from raycdc.util import bucket_of

    b = bucket_of([EMPTY.column("k"), EMPTY.column("v")], 8)
    assert b.dtype == "int32" and len(b) == 0
    e = rd.from_arrow(EMPTY)
    assert _n(distinct_rows(e, ["k", "v"])) == 0
    assert _n(hash_join(e, e, ["k", "v"])) == 0
    docs = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.string()),
                                   "text": pa.array([], pa.string())}))
    assert _n(exact_jaccard_pairs(docs, threshold=0.2)) == 0


def test_changeset_on_empty_and_unchanged_batches():
    """A 0-row batch keeps the transformed schema plus a binary
    ``_changeset``; a batch the transform left as it was seals an empty
    restore per row. Bytes as computed before the columnar build."""
    import hashlib

    from raycdc.diffmerge import CHANGESET_COL, compute_changeset

    t = pa.table({"doc_id": ["a", None, 'c"'], "n": pa.array([1, None, 3], pa.int64()),
                  "tokens": pa.array([[1], None, []], pa.list_(pa.int32()))})
    for pw in (None, "pw"):
        z = compute_changeset(t.slice(0, 0), t.drop_columns(["n"]).slice(0, 0),
                              password=pw, iterations=10)
        assert z.num_rows == 0
        assert z.schema == pa.schema([("doc_id", pa.string()),
                                      ("tokens", pa.list_(pa.int32())),
                                      (CHANGESET_COL, pa.binary())])
    same = compute_changeset(t, t)
    assert same.schema == t.schema.append(pa.field(CHANGESET_COL, pa.binary()))
    assert same[CHANGESET_COL].to_pylist() == [
        b'{"expect":{"doc_id":"a"},"restore":{}}',
        b'{"expect":{"doc_id":null},"restore":{}}',
        b'{"expect":{"doc_id":"c\\""},"restore":{}}',
    ]
    sealed = compute_changeset(t, t, password="pw", iterations=10)[CHANGESET_COL]
    assert hashlib.sha256(b"".join(sealed.to_pylist())).hexdigest() == (
        "b75ec1ce8af1de92dd977666ee35b5bf1f49d488e9b9205f4bb1a13a5fc5ab35")
