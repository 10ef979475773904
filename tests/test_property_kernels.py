"""Hypothesis property tests for the PURE vectorized kernels (no Ray in
the loop — these are the numpy folds the bucket shuffles rely on, so a
randomized counterexample here would silently corrupt distributed
results)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from raycdc.ops import _frame, _frame_sum, _run_boundaries, _run_pairs


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
        min_size=0, max_size=60,
    )
)
def test_run_boundaries_matches_naive(keys):
    keys = sorted(keys, key=lambda v: (v is not None, v))  # sorted, nulls first
    col = pa.array(keys, type=pa.int64())
    got = _run_boundaries(col, len(keys))
    want = np.ones(len(keys), dtype=bool)
    for i in range(1, len(keys)):
        a, b = keys[i - 1], keys[i]
        want[i] = not (a == b or (a is None and b is None))
    assert (got == want).all()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
                  st.one_of(st.none(), st.integers(min_value=-10_000, max_value=10_000))),
        min_size=0, max_size=60,
    ),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=-4, max_value=4),
)
def test_rolling_sum_kernel_matches_naive(rows, window, shift):
    """The shipped frame kernels (``_frame`` over ``_run_boundaries``, and
    ``_frame_sum``) against a per-row recompute, on sorted multi-run
    keys with a NULL key run and NULL values (NULLs add zero): run id,
    first and last row, ROWS windows, the unbounded frame and signed
    shifts, with the frame bounds ``grouped_rolling_agg`` and
    ``grouped_lag`` use."""
    rows = sorted(rows, key=lambda r: (r[0] is not None, r[0] or 0))  # nulls first
    keys, vals = [k for k, _ in rows], [v for _, v in rows]
    n = len(rows)
    fr = _frame(_run_boundaries(pa.array(keys, type=pa.int64()), n))

    run = np.cumsum([i == 0 or keys[i] != keys[i - 1] for i in range(n)]).astype(int) - 1
    first = [min(j for j in range(n) if run[j] == run[i]) for i in range(n)]
    last = [max(j for j in range(n) if run[j] == run[i]) for i in range(n)]
    assert fr.run.tolist() == run.tolist()
    assert fr.first.tolist() == first and fr.last.tolist() == last
    assert fr.starts.tolist() == sorted(set(first))
    assert fr.lens.tolist() == [last[s] - s + 1 for s in fr.starts]

    def naive_sum(i, lo):
        return sum(vals[j] or 0 for j in range(lo, i + 1) if run[j] == run[i])

    x = np.asarray([v or 0 for v in vals], dtype=np.int64)
    pos = np.arange(n)
    rows_w = _frame_sum(x, np.maximum(fr.first, pos - (window - 1)), pos + 1)
    assert rows_w.tolist() == [naive_sum(i, max(0, i - window + 1)) for i in range(n)]
    # window=None: a bucket-long window is the unbounded frame
    w = max(n, 1)
    unbounded = _frame_sum(x, np.maximum(fr.first, pos - (w - 1)), pos + 1)
    assert unbounded.tolist() == [naive_sum(i, 0) for i in range(n)]
    totals = _frame_sum(x, fr.starts, fr.starts + fr.lens)
    assert totals.tolist() == [naive_sum(last[s], s) for s in fr.starts]
    # signed shift (lag > 0, lead < 0): NULL outside the row's run
    src = pos - shift
    inside = ~((src < fr.first) | (src > fr.last))
    assert inside.tolist() == [0 <= i - shift < n and run[i - shift] == run[i] for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.integers(min_value=-4, max_value=4)),
        min_size=0, max_size=40,
    )
)
def test_run_pairs_matches_combinations_per_run(keys):
    """``_run_pairs`` (every minhash and simhash candidate pair) equals
    ``itertools.combinations`` taken per run, on sorted keys with a NULL
    key run, singleton runs and the empty frame."""
    from itertools import combinations

    keys = sorted(keys, key=lambda v: (v is not None, v))  # nulls first
    fr = _frame(_run_boundaries(pa.array(keys, type=pa.int64()), len(keys)))
    ia, ib = _run_pairs(fr)
    runs: dict = {}
    for i, k in enumerate(keys):
        runs.setdefault(k, []).append(i)
    want = [p for rows in runs.values() for p in combinations(rows, 2)]
    assert sorted(zip(ia.tolist(), ib.tolist())) == sorted(want)
    assert len(ia) == len(want)  # no pair twice


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_bmp_roundtrip_any_shape(w, h, seed):
    from raycdc.extras.multimodal import decode_bmp, encode_bmp

    rng = np.random.default_rng(seed)
    pix = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    assert (decode_bmp(encode_bmp(pix)) == pix).all()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=500),
                  st.sampled_from(["a", "b", "c", "x"])),
        min_size=0, max_size=40,
    ),
    st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
)
def test_funnel_single_key_matches_naive(events, window):
    # greedy-earliest chain semantics on ONE key, vs a direct recompute
    from raycdc.ops import funnel_steps
    import ray.data as rd

    steps = ["a", "b", "c"]
    ts = np.array([t for t, _ in events], dtype=np.float64)
    et = [e for _, e in events]

    def naive():
        reached, prev, t1 = 0, -np.inf, None
        for si, s in enumerate(steps):
            cand = [t for t, e in zip(ts, et)
                    if e == s and t > prev
                    and (window is None or t1 is None or t <= t1 + window)]
            if not cand:
                break
            prev = min(cand)
            if si == 0:
                t1 = prev
            reached = si + 1
        return reached

    t = pa.table(
        {
            "k": pa.array(np.zeros(len(events), dtype=np.int64)),
            "us": pa.array(ts.astype(np.int64)),
            "e": pa.array(et),
        }
    )
    if t.num_rows == 0:
        return
    out = funnel_steps(
        rd.from_arrow(t), "k", "us", "e", steps=steps, window=window, num_buckets=2
    ).to_pandas()
    assert int(out["steps_reached"].iloc[0]) == naive()


def _filter_lww_reference(t: pa.Table, key: str = "doc_id", lsn_col: str = "lsn") -> pa.Table:
    # the filter kernel the shared winner kernel replaced: winners scattered
    # back to input positions and copied by one filter, in input order
    import pyarrow.compute as pc

    n = t.num_rows
    if n <= 1:
        return t
    keycols = t.select([key, lsn_col])
    idx = pc.sort_indices(keycols, sort_keys=[(key, "ascending"), (lsn_col, "ascending")])
    idx_np = np.asarray(idx)
    keys_sorted = t.column(key).combine_chunks().take(idx)
    neq = pc.not_equal(keys_sorted.slice(1), keys_sorted.slice(0, n - 1))
    last_of_run = np.ones(n, dtype=bool)
    last_of_run[: n - 1] = np.asarray(neq.fill_null(True))
    keep = np.zeros(n, dtype=bool)
    keep[idx_np[last_of_run]] = True
    return t.filter(pa.array(keep))


_CHANGES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9),  # key: few keys -> many versions
              st.integers(min_value=0, max_value=4),  # lsn: narrow -> (key, lsn) replays
              st.sampled_from(["insert", "update", "delete"])),
    min_size=0, max_size=60,
)


def _changes_table(changes, with_bucket: bool) -> pa.Table:
    from raycdc.util import bucket_of

    keys = pa.array([f"k{k}" for k, _, _ in changes], pa.string())
    t = pa.table({
        "doc_id": keys,
        "lsn": pa.array([lsn for _, lsn, _ in changes], pa.int64()),
        "op": pa.array([op for _, _, op in changes], pa.string()),
        "row": pa.array(np.arange(len(changes), dtype=np.int64)),  # which row won
        "tokens": pa.array([[i] * (i % 3) for i in range(len(changes))], pa.list_(pa.int32())),
    })
    if with_bucket:
        t = t.append_column("_bucket", pa.array(bucket_of(keys, 4)))
    return t


@settings(max_examples=80, deadline=None)
@given(_CHANGES, st.booleans())
def test_lww_kernel_matches_filter_reference(changes, with_bucket):
    from raycdc.apply import (_in_input_order, _live, drop_tombstones, last_writer_per_key,
                              lww_order, lww_winners)

    t = _changes_table(changes, with_bucket)
    want = _filter_lww_reference(t)
    got = last_writer_per_key(t)
    # same rows — `row` pins the tie winner of duplicate (key, lsn) replays
    assert got.sort_by("doc_id").equals(want.sort_by("doc_id"))
    # order: (_bucket, key) when the input carries _bucket, else key
    order = [("_bucket", "ascending")] if with_bucket else []
    assert got.equals(got.sort_by(order + [("doc_id", "ascending")]))
    # the run writer's form: the caller sorts once and hands the order over
    assert last_writer_per_key(t, order=lww_order(t)).equals(got)
    # tombstones dropped from the winners before the one take
    live = last_writer_per_key(t, drop_tombs=True)
    assert live.sort_by("doc_id").equals(drop_tombstones(want).sort_by("doc_id"))
    # the unordered folds materialize the same winners in input order
    win = lww_winners(t)
    assert _in_input_order(t, win).equals(want)
    assert _in_input_order(t, _live(t, win, True)).equals(drop_tombstones(want))


def test_lww_kernel_replay_tie_keeps_last_input_row():
    from raycdc.apply import last_writer_per_key

    t = pa.table({
        "doc_id": ["a", "b", "a", "a", "b"],
        "lsn": pa.array([2, 1, 2, 1, 1], pa.int64()),
        "row": [0, 1, 2, 3, 4],
    })
    # a: rows 0 and 2 tie at lsn 2; b: rows 1 and 4 tie at lsn 1
    assert last_writer_per_key(t)["row"].to_pylist() == [2, 4]
    assert _filter_lww_reference(t)["row"].to_pylist() == [2, 4]
