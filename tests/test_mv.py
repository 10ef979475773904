"""Incremental materialized-view maintenance (raycdc/mv.py): after every
epoch the incrementally-refreshed view must equal a full recompute from
the converged lake state — across inserts, updates that MOVE a row
between groups, deletes, and duplicate replays of stale lsns."""

import os

import numpy as np
import pytest
import pyarrow as pa
import ray.data as rd

from raycdc.lake import LakeTable
from raycdc.mv import MaterializedAggregate


def _ev(rows):
    return pa.table({
        "lsn": pa.array([r[0] for r in rows], pa.int64()),
        "op": pa.array([r[1] for r in rows]),
        "doc_id": pa.array([r[2] for r in rows]),
        "grp": pa.array([r[3] for r in rows]),
        "cents": pa.array([r[4] for r in rows], pa.int64()),
    })


def _full(lake):
    t = pa.concat_tables(
        list(lake.read().iter_batches(batch_size=None, batch_format="pyarrow")),
        promote_options="permissive",
    )
    if t.num_rows == 0:
        return {}
    g = t.group_by("grp").aggregate([("cents", "sum"), ("doc_id", "count")])
    return {
        g["grp"][i].as_py(): (g["cents_sum"][i].as_py(), g["doc_id_count"][i].as_py())
        for i in range(g.num_rows)
    }


def _view(mv_table):
    return {
        mv_table["grp"][i].as_py(): (
            mv_table["sum_cents"][i].as_py(), mv_table["n_docs"][i].as_py())
        for i in range(mv_table.num_rows)
    }


def test_mv_incremental_equals_full_recompute(tmp_path):
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4, key="doc_id")
    lake.init()
    mv = MaterializedAggregate(
        lake, "grp", {"sum_cents": ("cents", "sum"), "n_docs": (None, "count")},
        str(tmp_path / "mv"),
    )

    epochs = [
        # e1: plain inserts across two groups
        [(1, "insert", "d1", "a", 100), (2, "insert", "d2", "a", 250),
         (3, "insert", "d3", "b", 40)],
        # e2: update d2 (value change), update d3 MOVING it b->a,
        #     delete d1, insert d4 in new group c
        [(4, "update", "d2", "a", 300), (5, "update", "d3", "a", 45),
         (6, "delete", "d1", "a", 0), (7, "insert", "d4", "c", 7)],
        # e3: duplicate replay of a STALE lsn for d2 (must lose the LWW
        #     fold and leave the view unchanged for d2), delete d4
        #     (group c disappears entirely), re-insert d1
        [(4, "update", "d2", "a", 999_999), (8, "delete", "d4", "c", 0),
         (9, "insert", "d1", "b", 11)],
    ]
    for i, rows in enumerate(epochs):
        lake.apply(rd.from_arrow(_ev(rows)), [f"seg-{i}"])
        got = _view(mv.refresh())
        want = _full(lake)
        assert got == want, (i, got, want)
    # group c must be gone, not zero-stamped
    assert "c" not in got
    # idempotent re-refresh at the same epoch
    assert _view(mv.refresh()) == want
    assert mv.epoch() == int(lake.manifest()["epoch"])


def test_mv_falls_back_to_full_recompute_after_vacuum(tmp_path):
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    mv = MaterializedAggregate(
        lake, "grp", {"sum_cents": ("cents", "sum")}, str(tmp_path / "mv"))
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 5)])), ["s0"])
    mv.refresh()
    lake.apply(rd.from_arrow(_ev([(2, "insert", "d2", "b", 6)])), ["s1"])
    lake.apply(rd.from_arrow(_ev([(3, "insert", "d3", "b", 7)])), ["s2"])
    lake.vacuum(keep_epochs=1)  # drops the snapshots the delta path needs
    t = mv.refresh()
    got = {t["grp"][i].as_py(): t["sum_cents"][i].as_py()
           for i in range(t.num_rows)}
    assert got == {g: v[0] for g, v in _full(lake).items()}
    assert mv.epoch() == int(lake.manifest()["epoch"])


def test_lineage_traces_segments_and_files(tmp_path):
    from raycdc.lake import lineage

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 5),
                                  (2, "insert", "d2", "b", 6)])), ["segA"])
    lake.apply(rd.from_arrow(_ev([(3, "update", "d1", "a", 9)])), ["segB"])
    rows = lineage(lake)
    by_epoch = {}
    for r in rows:
        by_epoch.setdefault(r["epoch"], []).append(r)
    # epoch 1 fed by segA, epoch 2 by segB; every epoch-2 row carries
    # the new watermark and at least one added state file
    assert any("segA" in r["segments"] for r in by_epoch[1])
    e2 = [r for r in by_epoch[2] if r["files_added"]]
    assert e2 and all(r["segments"] == ["segB"] for r in e2)
    assert all(r["watermark"] >= 3 for r in e2 if r["watermark"] is not None)
    # pid filter returns only that partition's rows
    touched = next(r["pid"] for r in rows if r["pid"] is not None)
    only = lineage(lake, pid=touched)
    assert only and all(r["pid"] == touched for r in only)
    # after a compaction each partition's one run gives exact live rows
    # and keeps the partition's watermark
    assert [r["live_rows"] for r in by_epoch[2]] == [None] * len(by_epoch[2])
    lake.compact()
    e3 = [r for r in lineage(lake) if r["epoch"] == 3]
    assert sum(r["live_rows"] for r in e3) == 2
    assert max(r["watermark"] for r in e3) == 3
    assert all(len(r["files_added"]) == 1 for r in e3)


def test_mv_refresh_skips_compaction_epochs(tmp_path, monkeypatch):
    """A compaction epoch leaves the live state unchanged: refreshing
    across one reads nothing for it, and the view still equals a full
    recompute."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    lake.init()
    mv = MaterializedAggregate(
        lake, "grp", {"sum_cents": ("cents", "sum"), "n_docs": (None, "count")},
        str(tmp_path / "mv"))
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 5),
                                  (2, "insert", "d2", "b", 6)])), ["s0"])
    mv.refresh()
    lake.apply(rd.from_arrow(_ev([(3, "delete", "d1", "a", 0),
                                  (4, "insert", "d3", "b", 7)])), ["s1"])
    assert lake.compact(drop_tombs=True) == 1
    reads = []
    real = lake.read
    monkeypatch.setattr(lake, "read", lambda **kw: reads.append(kw.get("epoch")) or real(**kw))
    got = _view(mv.refresh())
    assert reads == [2, 1]  # epoch 2 and its predecessor; nothing for epoch 3
    assert got == _full(lake) == {"b": (13, 2)}
    assert mv.epoch() == lake.manifest()["epoch"] == 3


def _mv(lake, tmp_path, name="mv"):
    return MaterializedAggregate(
        lake, "grp", {"sum_cents": ("cents", "sum"), "n_docs": (None, "count")},
        str(tmp_path / name))


def test_mv_refuses_a_float_sum(tmp_path, capsys):
    """Incremental subtraction is exact only on integers: a float sum
    column is refused, never truncated (0.5 + 0.4 once summed to 0)."""
    from raycdc.__main__ import main

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 1), (2, "insert", "d2", "a", 2)])
                             .append_column("score", pa.array([0.5, 0.4]))), ["s0"])
    mv = MaterializedAggregate(lake, "grp", {"total": ("score", "sum")}, str(tmp_path / "mv"))
    with pytest.raises(ValueError, match="total.*double"):
        mv.refresh()
    assert mv.epoch() is None
    capsys.readouterr()
    assert main(["mv", lake.path, str(tmp_path / "mv2"), "--group", "grp",
                 "--sum", "total=score"]) == 2
    assert capsys.readouterr().err.startswith("error: total")


@pytest.mark.parametrize("sum_col, group", [("nope", "grp"), ("cents", "nogrp")])
def test_mv_refuses_a_column_the_lake_lacks(tmp_path, capsys, sum_col, group):
    """A sum or group column the lake does not have is refused before
    any scan (it once died in the combiner as a Ray task error), and the
    CLI prints ``error: …`` and exits 2."""
    from raycdc.__main__ import main

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 1)])), ["s0"])
    missing = sum_col if group == "grp" else group
    mv = MaterializedAggregate(lake, group, {"total": (sum_col, "sum")}, str(tmp_path / "mv"))
    with pytest.raises(ValueError, match=f"no column '{missing}'"):
        mv.refresh()
    assert mv.epoch() is None
    capsys.readouterr()
    assert main(["mv", lake.path, str(tmp_path / "mv2"), "--group", group,
                 "--sum", f"total={sum_col}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: the lake has no column '{missing}'")


@pytest.mark.parametrize("uint64_partials", [False, True])
def test_mv_sums_an_unsigned_column_through_updates(tmp_path, monkeypatch, uint64_partials):
    """An unsigned sum column is an integer column: updating or deleting
    a row subtracts its old value exactly, also when the contributions
    come back as uint64 (Arrow's own group-by sum of an unsigned column),
    where a negation before the int64 cast would wrap."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    mv = _mv(lake, tmp_path)
    if uint64_partials:
        real = mv._contrib
        monkeypatch.setattr(mv, "_contrib", lambda ds, keys=None: [
            t.set_column(t.schema.get_field_index("sum_cents"), "sum_cents",
                         t["sum_cents"].cast(pa.uint64())) for t in real(ds, keys)])
    for i, rows in enumerate([
        [(1, "insert", "d1", "a", 10), (2, "insert", "d2", "a", 20)],
        [(3, "update", "d1", "b", 4), (4, "delete", "d2", "a", 0)],
    ]):
        t = _ev(rows)
        lake.apply(rd.from_arrow(t.set_column(4, "cents", t["cents"].cast(pa.uint32()))),
                   [f"seg-{i}"])
        got = _view(mv.refresh())
        assert got == _full(lake), (i, got)
    assert got == {"b": (4, 1)}


def test_mv_null_group_is_one_group(tmp_path):
    """A NULL group value is one group, as in SQL, on the first refresh
    and through the incremental path."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4, key="doc_id")
    lake.init()
    mv = _mv(lake, tmp_path)
    for i, rows in enumerate([
        [(1, "insert", "d1", None, 10), (2, "insert", "d2", "a", 20),
         (3, "insert", "d3", None, 5)],
        [(4, "update", "d2", None, 7), (5, "delete", "d1", None, 0),
         (6, "insert", "d4", "b", 1)],
    ]):
        lake.apply(rd.from_arrow(_ev(rows)), [f"seg-{i}"])
        got = _view(mv.refresh())
        assert got == _full(lake), (i, got)
    assert got == {None: (12, 2), "b": (1, 1)}


def test_mv_full_recompute_reads_the_epoch_it_stamps(tmp_path, monkeypatch):
    """A writer that commits right after refresh reads the lake's epoch
    must not leak its rows into the view stamped at that epoch: the next
    refresh would count them again."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 10)])), ["s0"])
    other = LakeTable(lake.path)
    real, raced = lake.manifest, []

    def manifest(epoch=None):
        m = real(epoch)
        if epoch is None and not raced:
            raced.append(other.apply(rd.from_arrow(_ev([(2, "insert", "d2", "a", 1)])), ["s1"]))
        return m

    mv = _mv(lake, tmp_path)
    monkeypatch.setattr(lake, "manifest", manifest)
    assert _view(mv.refresh()) == {"a": (10, 1)} and mv.epoch() == 1
    monkeypatch.undo()
    assert _view(mv.refresh()) == _full(lake) == {"a": (11, 2)}


def test_mv_refresh_publishes_one_file(tmp_path):
    """One refresh across four ingest epochs publishes exactly one view
    file, at the lake's epoch, and removes the view it replaced."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    mv = _mv(lake, tmp_path)
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 5)])), ["s0"])
    mv.refresh()
    before = set(os.listdir(mv.path))
    assert "mv-00000001.parquet" in before
    for i in range(4):
        lake.apply(rd.from_arrow(_ev([(2 + i, "insert", f"e{i}", "ab"[i % 2], i)])), [f"s{i + 1}"])
    assert _view(mv.refresh()) == _full(lake)
    assert set(os.listdir(mv.path)) - before == {"mv-00000005.parquet"}
    assert "mv-00000001.parquet" not in os.listdir(mv.path)
    assert mv.epoch() == 5


def test_mv_read_lists_again_when_the_listed_view_is_reclaimed(tmp_path, monkeypatch):
    """A reader that listed a view file a newer refresh then removed
    lists again and reads the newer view."""
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    mv = _mv(lake, tmp_path)
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 5)])), ["s0"])
    mv.refresh()
    lake.apply(rd.from_arrow(_ev([(2, "insert", "d2", "b", 7)])), ["s1"])
    want = mv.refresh()
    assert os.listdir(mv.path) == ["mv-00000002.parquet"]
    stale = [1]  # the listing of a reader that raced the second refresh
    real = MaterializedAggregate.epoch
    monkeypatch.setattr(MaterializedAggregate, "epoch",
                        lambda self: stale.pop() if stale else real(self))
    assert mv.read().equals(want)
    assert not stale


def test_mv_failed_publish_leaves_the_previous_view(tmp_path, monkeypatch):
    import raycdc.mv

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    mv = _mv(lake, tmp_path)
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 5)])), ["s0"])
    prev = mv.refresh()
    lake.apply(rd.from_arrow(_ev([(2, "update", "d1", "b", 6),
                                  (3, "insert", "d2", "a", 7)])), ["s1"])

    def crash(path, table, row_group_size=None):
        raise OSError("disk full")

    monkeypatch.setattr(raycdc.mv, "_atomic_write_parquet", crash)
    with pytest.raises(OSError):
        mv.refresh()
    assert mv.epoch() == 1 and mv.read().equals(prev)
    monkeypatch.undo()
    assert _view(mv.refresh()) == _full(lake) == {"a": (7, 1), "b": (6, 1)}
    assert mv.epoch() == 2


def test_mv_of_an_empty_lake_is_empty_at_epoch_0(tmp_path):
    lake = LakeTable(str(tmp_path / "lake"), num_partitions=2, key="doc_id")
    lake.init()
    mv = _mv(lake, tmp_path)
    t = mv.refresh()
    assert mv.epoch() == 0 and t.num_rows == 0
    assert t.column_names == ["grp", "sum_cents", "n_docs"]
    assert mv.read().equals(t)
    lake.apply(rd.from_arrow(_ev([(1, "insert", "d1", "a", 5)])), ["s0"])
    assert _view(mv.refresh()) == {"a": (5, 1)}
