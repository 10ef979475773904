"""Distributed LWW apply vs the single-process oracle fold.

Reference analogs: uid_map MERGE convergence / first-writer-wins
(`DeidentificationController.java:102-124`), LWW merge
(`DecryptReidentifyDICOM.java:192-193`), state-growth assertions
(`DeidentifyDICOMTest.java:197-214`).
"""

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from raycdc.apply import last_writer_per_key, lww_apply
from raycdc.metrics import Metrics
from raycdc.synth import (
    BASE_SCHEMA,
    EventGenConfig,
    base_table,
    events_table,
    fold_events,
    is_malformed_mask,
    with_replays_and_disorder,
)


def canon(t: pa.Table) -> pa.Table:
    cols = sorted(t.column_names)
    return t.select(cols).cast(pa.schema([(c, BASE_SCHEMA.field(c).type) for c in cols])).sort_by(
        "doc_id"
    ).combine_chunks()


def assert_tables_equal(a: pa.Table, b: pa.Table):
    a, b = canon(a), canon(b)
    assert a.num_rows == b.num_rows, f"{a.num_rows} != {b.num_rows}"
    for c in a.column_names:
        if not a[c].combine_chunks().equals(b[c].combine_chunks()):
            av, bv = a[c].to_pylist(), b[c].to_pylist()
            diffs = [(i, x, y) for i, (x, y) in enumerate(zip(av, bv)) if x != y][:5]
            raise AssertionError(f"column {c} mismatch, first diffs: {diffs}")


def _valid_events(ev: pa.Table) -> pa.Table:
    return ev.filter(pa.array(~is_malformed_mask(ev)))


def make_stream(n_events=3000, n_base=200, seed=11, **kw):
    cfg = EventGenConfig(
        n_events=n_events, n_base=n_base, seed=seed, min_len=4, max_len=16,
        dup_replay_rate=0.05, **kw
    )
    base = base_table(n_base, seed=seed, min_len=4, max_len=16)
    ev = with_replays_and_disorder(events_table(cfg), cfg)
    return base, ev


def test_last_writer_per_key_local():
    t = pa.table(
        {
            "doc_id": ["a", "b", "a", "a", "b"],
            "lsn": pa.array([3, 1, 1, 2, 5], type=pa.int64()),
            "v": [30, 10, 10, 20, 50],
        }
    )
    out = last_writer_per_key(t).sort_by("doc_id")
    assert out["v"].to_pylist() == [30, 50]


def collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not batches:
        return pa.table({})
    return pa.concat_tables(batches, promote_options="permissive")


def test_lww_apply_distributed_matches_fold():
    base, ev = make_stream()
    golden = fold_events(base, ev)
    ds = lww_apply(
        rd.from_arrow(_valid_events(ev)).repartition(8),
        rd.from_arrow(base).repartition(4),
        num_buckets=16,
        batch_size=256,
    )
    assert_tables_equal(collect(ds), golden)


def test_apply_idempotent_replay():
    """Applying the stream twice (every event duplicated) converges to the
    same table — the MERGE-if-absent analog."""
    base, ev = make_stream(n_events=1500, seed=21)
    golden = fold_events(base, ev)
    doubled = pa.concat_tables([_valid_events(ev), _valid_events(ev)])
    ds = lww_apply(rd.from_arrow(doubled).repartition(6), rd.from_arrow(base), num_buckets=8, batch_size=128)
    assert_tables_equal(collect(ds), golden)


def test_apply_hot_key_skew():
    base, ev = make_stream(n_events=4000, seed=31, hot_key_share=0.6, hot_key_count=2)
    golden = fold_events(base, ev)
    ds = lww_apply(
        rd.from_arrow(_valid_events(ev)).repartition(8),
        rd.from_arrow(base),
        num_buckets=8,
        batch_size=256,
    )
    assert_tables_equal(collect(ds), golden)


def test_lww_apply_single_hot_key_bounded():
    """Every event on ONE key: the per-batch reduce sends that key into
    the shuffle at most once per input batch, so its one bucket folds at
    most as many rows as there were batches — why hot keys need no salt."""
    n_batches, batch_size = 8, 256
    cfg = EventGenConfig(
        n_events=n_batches * batch_size, n_base=1, seed=51, pct_insert=0.0,
        pct_update=0.8, pct_delete=0.2, pct_malformed=0.0, hot_key_share=1.0,
        hot_key_count=1, min_len=4, max_len=16,
    )
    ev = with_replays_and_disorder(events_table(cfg), cfg)
    assert pc.count_distinct(ev["doc_id"]).as_py() == 1
    golden = fold_events(base_table(0, seed=51), ev)
    blocks = [ev.slice(i * batch_size, batch_size) for i in range(n_batches)]

    m = Metrics("test_hot_key_metrics")
    m.reset()
    ds = lww_apply(rd.from_arrow(blocks), None, num_buckets=8, batch_size=batch_size,
                   metrics_name="test_hot_key_metrics")
    assert_tables_equal(collect(ds), golden)
    s = m.stats_stable()
    assert s["apply.partial_rows_in"] == ev.num_rows
    assert s["apply.fold_rows_in"] <= n_batches


def test_apply_delete_only_stream():
    base = base_table(10, seed=2, min_len=4, max_len=8)
    ids = base["doc_id"].to_pylist()
    ev = pa.table(
        {
            "lsn": pa.array(list(range(1, 11)), type=pa.int64()),
            "op": pa.array(["delete"] * 10),
            "doc_id": pa.array(ids),
            "tokens": pa.array([None] * 10, type=pa.list_(pa.int32())),
            "n_tok": pa.array([None] * 10, type=pa.int32()),
            "source": pa.array([None] * 10, type=pa.string()),
        }
    )
    ds = lww_apply(rd.from_arrow(ev), rd.from_arrow(base), num_buckets=4)
    assert collect(ds).num_rows == 0


def test_apply_events_only_no_base():
    _, ev = make_stream(n_events=800, seed=41)
    golden = fold_events(base_table(0, seed=41), ev)
    ds = lww_apply(rd.from_arrow(_valid_events(ev)), None, num_buckets=4, batch_size=128)
    assert_tables_equal(collect(ds), golden)
