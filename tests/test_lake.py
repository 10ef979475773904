"""Exactly-once lake: epoch/manifest commit, idempotent re-apply, crash
recovery, tombstone semantics, resume equivalence, tailer drain.

Reference analogs: session commit atomicity (`DeidentifyDICOM.java:192`),
durable uid_map (`DeidentificationController.java:93-99`), retry-by-
requeue (`PutDICOM.java:83-86`), replay/resume equivalence (north rule).
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data as rd

import raycdc.lake as lake_mod
from raycdc.apply import base_as_inserts
from raycdc.lake import LakeTable
from raycdc.schema_evo import schema_to_str
from raycdc.synth import (
    EventGenConfig,
    base_table,
    events_table,
    fold_events,
    is_malformed_mask,
    with_replays_and_disorder,
    write_changelog,
)
from raycdc.tailer import pending_segments, tail_once, tail_until_caught_up


def canon(t: pa.Table) -> pa.Table:
    return t.select(sorted(t.column_names)).sort_by("doc_id").combine_chunks()


def assert_eq(a: pa.Table, b: pa.Table):
    a, b = canon(a), canon(b)
    assert a.num_rows == b.num_rows
    for c in a.column_names:
        assert a[c].cast(b[c].type).combine_chunks().equals(b[c].combine_chunks()), c


def collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return pa.concat_tables(batches, promote_options="permissive") if batches else pa.table({})


@pytest.fixture
def lake(tmp_path):
    """The core lake: shuffle-free L0 runs, merge-on-read."""
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    return lk


def seeded_lake(lk: LakeTable, base: pa.Table):
    lk.apply(base_as_inserts(rd.from_arrow(base)), ["__base__"])
    return lk


def make_log(tmp_path, n_events=2000, n_base=150, seed=19, n_segments=5, **kw):
    cfg = EventGenConfig(
        n_events=n_events, n_base=n_base, seed=seed, min_len=4, max_len=12,
        dup_replay_rate=0.05, **kw
    )
    log_dir = str(tmp_path / "log")
    write_changelog(log_dir, cfg, n_segments=n_segments)
    base = base_table(n_base, seed=seed, min_len=4, max_len=12)
    all_events = pa.concat_tables([pq.read_table(os.path.join(log_dir, f)) for f in sorted(os.listdir(log_dir))])
    return base, log_dir, all_events


def test_init_idempotent(tmp_path):
    lk = LakeTable(str(tmp_path / "l"), num_partitions=4)
    m1 = lk.init()
    m2 = lk.init()
    assert m1 == m2 and m1["epoch"] == 0


def test_racing_inits_write_one_snapshot(tmp_path, monkeypatch):
    """Inits of one new lake race past ``exists()``: epoch 0's snapshot
    is created put-if-absent, so one of them writes it and every one
    returns the manifest it holds."""
    import threading

    n, path = 4, str(tmp_path / "l")
    real_write = lake_mod._atomic_write_json
    barrier = threading.Barrier(n, timeout=30)

    def gated_write(*args, **kw):
        barrier.wait()  # every init has found no lake
        return real_write(*args, **kw)

    monkeypatch.setattr(lake_mod, "_atomic_write_json", gated_write)
    got = []
    threads = [threading.Thread(target=lambda p=p: got.append(LakeTable(path, num_partitions=p).init()))
               for p in range(1, n + 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads) and len(got) == n
    assert all(m == got[0] for m in got) and got[0]["epoch"] == 0
    assert os.listdir(os.path.join(path, "manifests")) == ["manifest-e000000.json"]
    assert LakeTable(path).manifest() == got[0]


def test_apply_and_read_matches_oracle(lake, tmp_path):
    base, log_dir, all_events = make_log(tmp_path)
    seeded_lake(lake, base)
    res = tail_until_caught_up(lake, log_dir, batch_size=256)
    assert len(res) == 1  # all segments in one epoch by default
    golden = fold_events(base, all_events)
    assert_eq(collect(lake.read()), golden)
    m = lake.manifest()
    assert m["epoch"] == 2
    assert len(m["segments_applied"]) == 6  # __base__ + 5 segments


def test_epoch_per_segment_resume_equivalence(lake, tmp_path):
    """Full replay (one epoch) ≡ segment-at-a-time replay (many epochs) —
    the checkpoint-resume equivalence gate."""
    base, log_dir, all_events = make_log(tmp_path, seed=23)
    seeded_lake(lake, base)
    res = tail_until_caught_up(lake, log_dir, max_segments_per_epoch=1, batch_size=256)
    assert len(res) == 5
    golden = fold_events(base, all_events)
    assert_eq(collect(lake.read()), golden)
    # watermarks recorded per run, and kept per partition by compaction
    m = lake.manifest()
    assert all(e["watermark"] >= -1 for e in m["l0"])
    lake.compact()
    parts = lake.manifest()["l0"]
    assert parts and all(e["watermark"] >= -1 and e["bmin"] == e["bmax"] for e in parts)
    assert max(e["watermark"] for e in parts) == max(e["watermark"] for e in m["l0"])


def test_reapply_same_segments_is_noop(lake, tmp_path):
    base, log_dir, _ = make_log(tmp_path, seed=29)
    seeded_lake(lake, base)
    tail_until_caught_up(lake, log_dir, batch_size=256)
    m1 = lake.manifest()
    # tailer finds nothing pending; direct re-apply of same names is a no-op
    assert pending_segments(lake, log_dir) == []
    r = lake.apply(rd.from_arrow(base_table(0, seed=1)), sorted(os.listdir(log_dir)))
    assert r.get("noop") is True
    assert lake.manifest() == m1


def test_partial_overlap_rejected(lake, tmp_path):
    base, log_dir, _ = make_log(tmp_path, seed=31, n_segments=3)
    seeded_lake(lake, base)
    segs = sorted(os.listdir(log_dir))
    ev = rd.read_parquet([os.path.join(log_dir, segs[0])])
    lake.apply(ev, [segs[0]])
    with pytest.raises(ValueError, match="partially committed"):
        lake.apply(ev, [segs[0], segs[1]])


@pytest.mark.parametrize("crash_at", ["snapshot"])
def test_crash_between_epoch_write_and_manifest_swap(lake, tmp_path, monkeypatch, crash_at):
    """Kill the commit after the epoch's state files are written, at its
    one write, the snapshot create: the lake stays at the old epoch,
    vacuum keeps that epoch, and tailing on reconverges with no segment
    applied twice."""
    base, log_dir, all_events = make_log(tmp_path, seed=37, n_segments=2)
    seeded_lake(lake, base)
    real_write = lake_mod._atomic_write_json

    def crashing_write(path, obj, exclusive=False):
        raise OSError(f"simulated crash at the {crash_at} write")

    monkeypatch.setattr(lake_mod, "_atomic_write_json", crashing_write)
    with pytest.raises(OSError):
        tail_once(lake, log_dir, max_segments_per_epoch=1, batch_size=256)
    monkeypatch.setattr(lake_mod, "_atomic_write_json", real_write)
    assert lake.manifest()["epoch"] == 1
    # orphan epoch files on disk are ignored; the epoch read is kept
    lake.vacuum(keep_epochs=0)
    assert lake.epochs() == [1]
    assert_eq(collect(lake.read()), fold_events(base, all_events.slice(0, 0)))
    tail_until_caught_up(lake, log_dir, batch_size=256)
    applied = lake.manifest()["segments_applied"]
    assert len(applied) == len(set(applied)) == 3
    assert_eq(collect(lake.read()), fold_events(base, all_events))


def test_tombstone_prevents_resurrection(lake):
    """delete applied in epoch k; replaying the pre-delete insert later
    must NOT resurrect the row (at-least-once tolerance via tombstones)."""
    ins = pa.table(
        {
            "lsn": pa.array([1], type=pa.int64()),
            "op": ["insert"],
            "doc_id": ["k1"],
            "tokens": pa.array([[1, 2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2], type=pa.int32()),
            "source": ["web"],
        }
    )
    dele = pa.table(
        {
            "lsn": pa.array([2], type=pa.int64()),
            "op": ["delete"],
            "doc_id": ["k1"],
            "tokens": pa.array([None], type=pa.list_(pa.int32())),
            "n_tok": pa.array([None], type=pa.int32()),
            "source": pa.array([None], type=pa.string()),
        }
    )
    lake.apply(rd.from_arrow(ins), ["s1"])
    lake.apply(rd.from_arrow(dele), ["s2"])
    assert collect(lake.read()).num_rows == 0
    # replay the old insert as a "new" segment (late duplicate delivery)
    lake.apply(rd.from_arrow(ins), ["s3"])
    assert collect(lake.read()).num_rows == 0  # tombstone wins (lsn 2 > 1)
    # compaction drops the tombstone; count is exact
    assert lake.compact(drop_tombs=True) == 1
    assert collect(lake.read()).num_rows == 0


def test_late_first_event_for_untouched_key_is_applied(lake):
    """Regression guard for the per-partition-watermark pitfall: key B's
    first event has a lower lsn than an already-applied event for key A
    in the same partition — it must still apply."""
    a = pa.table(
        {
            "lsn": pa.array([100], type=pa.int64()),
            "op": ["insert"],
            "doc_id": ["a"],
            "tokens": pa.array([[1]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1], type=pa.int32()),
            "source": ["web"],
        }
    )
    b = pa.table(
        {
            "lsn": pa.array([5], type=pa.int64()),
            "op": ["insert"],
            "doc_id": ["b"],
            "tokens": pa.array([[7]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1], type=pa.int32()),
            "source": ["web"],
        }
    )
    lake.apply(rd.from_arrow(a), ["sA"])
    lake.apply(rd.from_arrow(b), ["sB"])
    assert collect(lake.read()).num_rows == 2


def test_dead_letter_sink(lake, tmp_path):
    base, log_dir, all_events = make_log(tmp_path, seed=41, pct_malformed=0.1)
    seeded_lake(lake, base)
    dl_dir = str(tmp_path / "dead")
    tail_until_caught_up(lake, log_dir, dead_letter_dir=dl_dir, batch_size=256)
    import numpy as np

    n_bad = int(is_malformed_mask(all_events).sum())
    dead = pq.read_table(dl_dir) if n_bad else None
    assert dead is not None and dead.num_rows == n_bad
    # dead letters keep full payload and the engine result matches oracle
    assert set(dead.column_names) >= {"lsn", "op", "doc_id", "tokens", "n_tok", "source"}
    assert_eq(collect(lake.read()), fold_events(base, all_events))


def test_all_dead_letter_segment_still_commits(lake, tmp_path):
    """A segment whose every event is malformed must still be marked
    applied (its rows live in the dead-letter stream) — otherwise the
    tailer would retry it forever."""
    bad = pa.table(
        {
            "lsn": pa.array([1, 2], type=pa.int64()),
            "op": ["update", "update"],
            "doc_id": ["a", "b"],
            "tokens": pa.array([[1], [2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([99, 99], type=pa.int32()),  # all inconsistent
            "source": ["w", "w"],
        }
    )
    log_dir = str(tmp_path / "badlog")
    os.makedirs(log_dir)
    pq.write_table(bad, os.path.join(log_dir, "seg-00000.parquet"))
    res = tail_until_caught_up(lake, log_dir, dead_letter_dir=str(tmp_path / "dead"))
    assert len(res) == 1
    m = lake.manifest()
    assert m["segments_applied"] == ["seg-00000.parquet"]
    assert sum(e.get("live_rows", 0) for e in m["l0"]) == 0
    assert lake.live_rows() == 0
    assert pq.read_table(str(tmp_path / "dead")).num_rows == 2
    # nothing pending afterwards
    assert tail_until_caught_up(lake, log_dir) == []
    # it takes tail_once's keywords only: a watch loop's knobs are refused
    with pytest.raises(TypeError, match="max_epochs"):
        tail_until_caught_up(lake, log_dir, max_epochs=1)


def test_delta_epoch_bytes_proportional_to_events(tmp_path):
    """The 100-TB property: an epoch's bytes written are proportional to
    the events applied, NOT to the size of the converged state."""
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lk.init()
    base = base_table(5000, seed=11, min_len=32, max_len=64)
    seeded_lake(lk, base)
    state_root = os.path.join(lk.path, "state")
    seed_bytes = sum(
        os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(state_root) for f in fs
    )
    # a tiny epoch: update 10 of the 5000 keys
    upd = pa.table(
        {
            "lsn": pa.array(range(10_000, 10_010), type=pa.int64()),
            "op": ["update"] * 10,
            "doc_id": [f"doc-{i:08d}" for i in range(10)],
            "tokens": pa.array([[1, 2, 3]] * 10, type=pa.list_(pa.int32())),
            "n_tok": pa.array([3] * 10, type=pa.int32()),
            "source": ["web"] * 10,
        }
    )
    lk.apply(rd.from_arrow(upd), ["tiny-seg"])
    epoch_dir = os.path.join(state_root, "e000002")
    epoch_bytes = sum(
        os.path.getsize(os.path.join(epoch_dir, f)) for f in os.listdir(epoch_dir)
    )
    assert epoch_bytes < seed_bytes * 0.05, (epoch_bytes, seed_bytes)
    # the tiny epoch wrote exactly one L0 run holding its 10 rows
    new_runs = [e for e in lk.manifest()["l0"] if e["file"].startswith("state/e000002/")]
    assert [e["rows"] for e in new_runs] == [10]
    # merge-on-read returns the updated values
    got = canon(collect(lk.read()))
    assert got.num_rows == 5000
    row = got.filter(pa.array([d == "doc-00000003" for d in got["doc_id"].to_pylist()]))
    assert row["tokens"].to_pylist() == [[1, 2, 3]]


def _one_event(doc_id="k", lsn=1):
    return pa.table(
        {
            "lsn": pa.array([lsn], type=pa.int64()),
            "op": ["insert"],
            "doc_id": [doc_id],
            "tokens": pa.array([[1]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1], type=pa.int32()),
            "source": ["web"],
        }
    )


def test_l0_run_pruning_metadata(tmp_path):
    """L0 manifest entries record which buckets each run contains, and a
    partition read opens ONLY runs that can contain its bucket."""
    from raycdc.util import bucket_of

    P = 8
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=P)
    lk.init()
    # craft keys whose buckets are known, split into two disjoint-bucket blocks
    keys = [f"doc-{i:04d}" for i in range(200)]
    b = bucket_of(pa.array(keys), P)
    lo = [k for k, bb in zip(keys, b) if bb < 4][:20]
    hi = [k for k, bb in zip(keys, b) if bb >= 4][:20]
    assert lo and hi

    def events_for(ids, lsn0):
        n = len(ids)
        return pa.table(
            {
                "lsn": pa.array(range(lsn0, lsn0 + n), type=pa.int64()),
                "op": ["insert"] * n,
                "doc_id": ids,
                "tokens": pa.array([[1]] * n, type=pa.list_(pa.int32())),
                "n_tok": pa.array([1] * n, type=pa.int32()),
                "source": ["web"] * n,
            }
        )

    lk.apply(rd.from_arrow(events_for(lo, 1)), ["s-lo"])
    lk.apply(rd.from_arrow(events_for(hi, 100)), ["s-hi"])
    m = lk.manifest()
    assert len(m["l0"]) == 2
    for ent in m["l0"]:
        assert ent["bmin"] <= ent["bmax"] and ent["buckets"] is not None
    lo_buckets = set(bucket_of(pa.array(lo), P).tolist())
    hi_buckets = set(bucket_of(pa.array(hi), P).tolist())
    runs = {pid: [f for f, _ in lake_mod._range(m, pid, pid + 1)["runs"]]
            for pid in lake_mod._pids(m)}

    lo_file = next(e["file"] for e in m["l0"] if set(e["buckets"]) == lo_buckets)
    hi_file = next(e["file"] for e in m["l0"] if set(e["buckets"]) == hi_buckets)
    for pid in lo_buckets:
        files = runs[pid]
        assert lo_file in files and hi_file not in files
    for pid in hi_buckets:
        files = runs[pid]
        assert hi_file in files and lo_file not in files
    # untouched partitions have no state at all
    assert set(runs) == lo_buckets | hi_buckets
    assert collect(lk.read()).num_rows == len(lo) + len(hi)


def test_bucket_of_values_are_pinned():
    """``bucket_of`` IS the lake's bucket layout: these literal buckets
    must never change. The two-column key pins the composite combine
    (``splitmix64(h ^ str_hash_u64(col_i, seed=i))``) that hash_join,
    asof_join and set_op bucket by."""
    from raycdc.util import bucket_of

    strs = pa.array(["doc-0001", "", "Zürich", "日本語テキスト", "naïve café", None])
    ints = pa.array([0, 1, -7, 2**40, None], pa.int64())
    a = pa.array(["u1", "u2", "u1", None, "ü"])
    b = pa.array([1, 1, 2, 3, None], pa.int64())
    pinned = {
        64: ([9, 23, 17, 54, 7, 21], [59, 31, 8, 22, 21], [34, 20, 17, 46, 50]),
        1_000_003: (
            [54934, 879302, 778604, 437074, 127123, 321365],
            [363928, 270822, 941052, 492424, 321365],
            [971469, 508421, 273216, 44026, 784782],
        ),
    }
    for nb, (want_s, want_i, want_ab) in pinned.items():
        for keys, want in ((strs, want_s), (ints, want_i), ([a, b], want_ab)):
            got = bucket_of(keys, nb)
            assert got.dtype == "int32"
            assert got.tolist() == want, (nb, keys)
        assert bucket_of([strs], nb).tolist() == want_s


def _range_fold_lake(tmp_path):
    """A 128-partition lake whose pending state mixes every merge-on-read
    case: bases carrying tombstones, a run spanning more than 64 buckets
    (manifest ``buckets: null``, only ``bmin``/``bmax``), a run confined
    to buckets < 8, and partitions >= 100 that hold a base only. Returns
    the lake and the oracle fold of everything applied."""
    from raycdc.util import bucket_of

    P = 128
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=P, l0_compact_files=100)
    lk.init()
    cfg = EventGenConfig(n_events=3000, n_base=400, seed=29, min_len=4, max_len=12)
    base = base_table(400, seed=29, min_len=4, max_len=12)
    ev = events_table(cfg)
    ev = ev.filter(pa.array(~is_malformed_mask(ev)))
    first, rest = ev.slice(0, 1500), ev.slice(1500)
    seeded_lake(lk, base)
    lk.apply(rd.from_arrow(first), ["s1"])
    lk.compact()  # bases for every touched partition, tombstones kept
    b = bucket_of(rest.column("doc_id"), P)
    narrow = rest.filter(pa.array(b < 8))
    wide = rest.filter(pa.array((b >= 8) & (b < 100)))
    lk.apply(rd.from_arrow(narrow), ["s2"])
    lk.apply(rd.from_arrow(wide), ["s3"])
    runs = lake_mod._pending(lk.manifest()["l0"])
    assert [e["buckets"] is None for e in runs] == [False, True]
    assert runs[1]["bmax"] < 100
    return lk, fold_events(base, pa.concat_tables([first, narrow, wide]))


@pytest.mark.parametrize("range_rows", [1, lake_mod.RANGE_ROWS])
def test_ranges_cut_pids_and_prune_runs(tmp_path, monkeypatch, range_rows):
    """``_ranges`` cuts the partitions with state into contiguous,
    disjoint ranges, as many as min(pids, max(CPUs, ceil(rows /
    RANGE_ROWS))); a run is in a range iff its bucket metadata meets it,
    and no run with rows in a range is left out of it."""
    import math

    import ray

    monkeypatch.setattr(lake_mod, "RANGE_ROWS", range_rows)
    lk, _ = _range_fold_lake(tmp_path)
    m = lk.manifest()
    pids = lake_mod._pids(m)
    ranges = lake_mod._ranges(m)
    rows = sum(e["rows"] for e in m["l0"])
    cpus = int(ray.cluster_resources()["CPU"])
    assert len(ranges) == min(len(pids), max(cpus, math.ceil(rows / range_rows)))
    assert ranges[0]["lo"] == pids[0] and ranges[-1]["hi"] == pids[-1] + 1
    for r, nxt in zip(ranges, ranges[1:]):
        assert r["hi"] == nxt["lo"]
    covered = [[p for p in pids if r["lo"] <= p < r["hi"]] for r in ranges]
    assert all(covered) and sum(covered, []) == pids
    run_buckets = {
        e["file"]: set(pq.read_table(os.path.join(lk.path, e["file"]), columns=["_bucket"])
                       ["_bucket"].to_pylist())
        for e in m["l0"]
    }
    for r in ranges:
        lo, hi = r["lo"], r["hi"]
        got = dict(r["runs"])
        for e in m["l0"]:
            meets = (any(lo <= x < hi for x in e["buckets"]) if e["buckets"] is not None
                     else e["bmin"] < hi and e["bmax"] >= lo)
            assert (e["file"] in got) == meets
            # a run is read whole iff all its buckets lie in the range
            if meets:
                assert got[e["file"]] == (lo <= e["bmin"] and e["bmax"] < hi)
            if any(lo <= x < hi for x in run_buckets[e["file"]]):
                assert e["file"] in got
        # the fold is skipped only when no two of the range's runs hold one bucket
        held = [x for f in got for x in run_buckets[f] if lo <= x < hi]
        assert r["fold"] or len(held) == len(set(held))
    # each compacted run holds one bucket, the one its entry names
    compacted = {e["file"] for e in m["l0"] if "live_rows" in e}
    assert compacted and all(run_buckets[e["file"]] == set(e["buckets"]) and len(e["buckets"]) == 1
                             for e in m["l0"] if e["file"] in compacted)
    if range_rows == 1:  # one partition per range: some ranges hold compacted runs only
        assert any({f for f, _ in r["runs"]} <= compacted and not r["fold"] for r in ranges)


@pytest.mark.parametrize("range_rows", [1, lake_mod.RANGE_ROWS])
def test_range_fold_read_and_compact_match_oracle(tmp_path, monkeypatch, range_rows):
    """Merge-on-read and compaction fold bucket ranges — one partition
    each, or the default cut — to the oracle's table, before and after
    compaction, and after a tombstone-dropping compaction."""
    monkeypatch.setattr(lake_mod, "RANGE_ROWS", range_rows)
    lk, want = _range_fold_lake(tmp_path)
    assert_eq(collect(lk.read()), want)
    lk.compact()
    assert lake_mod._pending(lk.manifest()["l0"]) == []
    assert_eq(collect(lk.read()), want)
    assert lk.compact(drop_tombs=True) > 0
    assert_eq(collect(lk.read()), want)
    assert lk.live_rows() == want.num_rows


def test_compaction_re_sorts_an_unfolded_range_out_of_bucket_order(tmp_path):
    """A range where no two runs hold one bucket is not folded, so it
    keeps its runs' order. Epoch 1 holds only odd buckets and epoch 2
    only even ones, so every two-bucket range lists its higher bucket
    first; compaction re-sorts such a range before it cuts one run per
    bucket. One tombstone rides in the data."""
    from raycdc.apply import is_tombstone
    from raycdc.util import bucket_of

    P = 8
    kw = dict(n_base=60, seed=31, min_len=4, max_len=12, pct_malformed=0.0)
    ins = events_table(EventGenConfig(n_events=400, pct_insert=1.0, pct_update=0.0,
                                      pct_delete=0.0, **kw))
    dele = events_table(EventGenConfig(n_events=1, pct_insert=0.0, pct_update=0.0,
                                       pct_delete=1.0, lsn_offset=400, **kw))
    dele = dele.set_column(2, "doc_id", ins["doc_id"].slice(0, 1))
    ev = pa.concat_tables([ins, dele])
    odd = pa.array(bucket_of(ev.column("doc_id"), P) % 2 == 1)
    want = fold_events(base_table(0, seed=31), ev)
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=P)
    lk.init()
    lk.apply(rd.from_arrow(ev.filter(odd)), ["s1"])
    lk.apply(rd.from_arrow(ev.filter(pc.invert(odd))), ["s2"])
    m = lk.manifest()
    held = {e["file"]: e["buckets"] for e in m["l0"]}
    assert len(held) == 2 and lake_mod._pids(m) == list(range(P))

    def read_order(r):  # the range's buckets, run by run, as the fold reads them
        return [b for f, _ in r["runs"] for b in held[f] if r["lo"] <= b < r["hi"]]

    assert any(not r["fold"] and read_order(r) != sorted(read_order(r))
               for r in lake_mod._ranges(m))

    def assert_one_bucket_runs():
        runs = lk.manifest()["l0"]
        assert len(runs) == P
        for e in runs:
            t = pq.read_table(os.path.join(lk.path, e["file"]), columns=["_bucket", "op"])
            assert len(e["buckets"]) == 1 and set(t["_bucket"].to_pylist()) == set(e["buckets"])
            assert e["live_rows"] == t.num_rows - int(is_tombstone(t["op"]).sum())
        assert_eq(collect(lk.read()), want)

    assert lk.compact() == 0
    assert_one_bucket_runs()
    assert lk.compact(drop_tombs=True) == 1
    assert_one_bucket_runs()


def test_l0_duplicate_block_content_counted_once(tmp_path):
    """Two input blocks with identical content produce ONE run file and
    ONE manifest entry (not a double-fold)."""
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lk.init()
    ev = _one_event()
    dup = rd.from_arrow(ev).union(rd.from_arrow(ev))  # 2 identical blocks
    r = lk.apply(dup, ["s1"])
    m = lk.manifest()
    assert len(m["l0"]) == 1
    assert r["events_after_reduce"] == 1
    got = collect(lk.read())
    assert got.num_rows == 1


def test_l0_run_name_is_pinned_across_retries(tmp_path, monkeypatch):
    """Run names are part of the durable format: an epoch retried by a
    newer engine (an upgrade taken mid-epoch) must rewrite the SAME
    content-named file, never add a second one. The digest is pinned:
    md5 of the winners' lsn and key hashes, in (bucket, key) order."""
    cfg = EventGenConfig(n_events=400, n_base=60, seed=11, min_len=4, max_len=12,
                         dup_replay_rate=0.05)
    ev = with_replays_and_disorder(events_table(cfg), cfg)
    ev = ev.filter(pa.array(~is_malformed_mask(ev)))
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()

    def crashing_write(path, obj, exclusive=False):
        raise OSError("simulated crash before manifest swap")

    monkeypatch.setattr(lake_mod, "_atomic_write_json", crashing_write)
    with pytest.raises(OSError):
        lk.apply(rd.from_arrow(ev), ["s0"])
    monkeypatch.undo()
    assert lk.manifest()["epoch"] == 0
    lk.apply(rd.from_arrow(ev), ["s0"])
    name = "l0-e96f6127ff9e873f.parquet"
    assert [e["file"] for e in lk.manifest()["l0"]] == [f"state/e000001/{name}"]
    assert os.listdir(os.path.join(lk.path, "state", "e000001")) == [name]


def test_l0_run_of_stamped_events_is_byte_identical(tmp_path):
    """The run writer folds a ``make_validator``-stamped block through its
    ``_route`` selection: the same events, unfiltered and with extra dead
    rows, write the pinned run of the pre-filtered apply byte for byte."""
    from raycdc.routing import make_validator

    cfg = EventGenConfig(n_events=400, n_base=60, seed=11, min_len=4, max_len=12,
                         dup_replay_rate=0.05)
    raw = with_replays_and_disorder(events_table(cfg), cfg)
    bogus = raw.slice(0, 7).set_column(1, "op", pa.array(["upsert"] * 7))
    keyless = raw.slice(40, 5).set_column(2, "doc_id", pa.nulls(5, pa.string()))
    mixed = pa.concat_tables([bogus, raw.slice(0, 200), keyless, raw.slice(200)])
    n_bad = int(is_malformed_mask(raw).sum()) + 12
    runs = {}
    for label, ev in (("filtered", raw.filter(pa.array(~is_malformed_mask(raw)))),
                      ("stamped", make_validator("doc_id", str(tmp_path / "dead"))(mixed))):
        lk = LakeTable(str(tmp_path / label), num_partitions=8)
        lk.init()
        lk.apply(rd.from_arrow(ev), ["s0"])
        [run] = [e["file"] for e in lk.manifest()["l0"]]
        with open(os.path.join(lk.path, run), "rb") as f:
            runs[label] = (run, f.read())
    assert runs["stamped"][0] == "state/e000001/l0-e96f6127ff9e873f.parquet"
    assert runs["stamped"] == runs["filtered"]
    assert pq.read_table(str(tmp_path / "dead")).num_rows == n_bad


def test_all_dead_segment_writes_no_run(lake, tmp_path):
    """An epoch whose only segment is all malformed commits with zero L0
    runs, dead-letters every row, and a later segment still converges."""
    base, log_dir, good = make_log(tmp_path, seed=29, n_segments=1)
    upserts = pc.not_equal(good["op"], "delete").to_numpy(zero_copy_only=False)
    ok = good.filter(pa.array(~is_malformed_mask(good) & upserts))
    bad = ok.set_column(ok.column_names.index("n_tok"), "n_tok",
                        pc.add(ok["n_tok"], 1).cast(pa.int32()))  # every length is wrong
    seg = os.path.join(log_dir, "seg-00000.parquet")
    os.rename(seg, os.path.join(log_dir, "seg-00001.parquet"))
    pq.write_table(bad, seg)
    assert is_malformed_mask(bad).all()
    seeded_lake(lake, base)
    dead = str(tmp_path / "dead")
    r = tail_once(lake, log_dir, max_segments_per_epoch=1, dead_letter_dir=dead, batch_size=None)
    m = lake.manifest()
    assert r["l0_runs"] == 0 and m["segments_applied"][-1] == "seg-00000.parquet"
    # the base's run is the only one
    assert [e["file"].startswith("state/e000001/") for e in m["l0"]] == [True]
    assert pq.read_table(dead).num_rows == bad.num_rows
    tail_until_caught_up(lake, log_dir, dead_letter_dir=dead, batch_size=None)
    assert_eq(collect(lake.read()), fold_events(base, pa.concat_tables([bad, good])))


def test_dead_rows_do_not_widen_the_run(tmp_path):
    """The run writer packs the token payload at the width its ok rows
    need: a dead-lettered row's wide element widens nothing, and the run
    is byte for byte the run of the pre-filtered block."""
    from raycdc.routing import make_validator
    from raycdc.synth import EVENT_SCHEMA

    ok = {"lsn": 1, "op": "insert", "doc_id": "d1", "tokens": [1, 2, 3], "n_tok": 3, "source": "w"}
    bad = {**ok, "lsn": 2, "doc_id": "d2", "tokens": [70000], "n_tok": 2}  # n_tok is wrong
    runs = {}
    for label, ev in (("filtered", pa.Table.from_pylist([ok], schema=EVENT_SCHEMA)),
                      ("stamped", make_validator("doc_id")(
                          pa.Table.from_pylist([ok, bad], schema=EVENT_SCHEMA)))):
        lk = LakeTable(str(tmp_path / label), num_partitions=4)
        lk.init()
        lk.apply(rd.from_arrow(ev), ["s0"])
        [run] = [os.path.join(lk.path, e["file"]) for e in lk.manifest()["l0"]]
        assert pq.read_schema(run).field("tokens").metadata[b"raycdc.stored_type"] == b"uint8"
        with open(run, "rb") as f:
            runs[label] = (os.path.basename(run), f.read())
    assert runs["stamped"] == runs["filtered"]


def _base_seeded(path, base: pa.Table) -> LakeTable:
    lk = LakeTable(str(path), num_partitions=8)
    lk.init()
    return seeded_lake(lk, base)


def _one_group(monkeypatch):
    """Every epoch's segments in one group (and every read one range)."""
    monkeypatch.setattr(lake_mod, "fold_tasks", lambda units, rows: 1)


def test_grouped_epoch_matches_the_oracle(tmp_path, monkeypatch):
    """One group of several segments folds to ``fold_events`` and writes
    one run: replays and (key, lsn) ties across segments — the later
    segment's row wins a tie, as in the oracle —, a delete and a
    re-insert in later segments, a malformed row with its key's highest
    lsn, a segment that adds a column (null in every other row) and one
    without the key column, whose rows are dead-lettered while the
    other segments apply."""
    from raycdc.synth import EVENT_SCHEMA
    from raycdc.tailer import publish_segment

    _one_group(monkeypatch)
    base, log_dir, _ = make_log(tmp_path, seed=83, n_segments=3)
    top = max(pc.max(pq.read_table(os.path.join(log_dir, f))["lsn"]).as_py()
              for f in os.listdir(log_dir))
    x, y = base["doc_id"][0].as_py(), base["doc_id"][1].as_py()

    def ev(lsn, op, key, tokens=(1,), **extra):
        n = None if op == "delete" else len(tokens)
        return {"lsn": top + lsn, "op": op, "doc_id": key, "source": "s",
                "tokens": None if op == "delete" else list(tokens), "n_tok": n, **extra}

    def seg(rows, schema=EVENT_SCHEMA):
        return pa.Table.from_pylist(rows, schema=schema)

    added = EVENT_SCHEMA.append(pa.field("lang", pa.string()))
    extra = [
        seg([ev(1, "insert", x, (1, 2)), ev(2, "update", y, (3,)), ev(3, "insert", "doc-new", (4,))]),
        seg([ev(1, "insert", x, (1, 2)),  # a replay of the segment before
             ev(2, "update", y, (5, 6)),  # a (key, lsn) tie: this later row wins
             ev(4, "delete", "doc-new")]),
        seg([ev(5, "insert", "doc-new", (7, 8, 9)),  # re-inserted after the delete
             {**ev(9, "update", x, (70000,)), "n_tok": 2}]),  # malformed, x's highest lsn
        seg([ev(6, "insert", "doc-lang", (10,), lang="en")], schema=added),
        seg([ev(7, "insert", x, (11,))]).rename_columns(
            ["lsn", "op", "user_id", "tokens", "n_tok", "source"]),  # no doc_id column
    ]
    for k, t in enumerate(extra):
        publish_segment(log_dir, f"seg-{3 + k:05d}.parquet", t)
    segs = [pq.read_table(os.path.join(log_dir, f)) for f in sorted(os.listdir(log_dir))]
    lk = _base_seeded(tmp_path / "lake", base)
    dead = str(tmp_path / "dead")
    r = tail_once(lk, log_dir, dead_letter_dir=dead)
    assert len(r["segments"]) == 8 and r["l0_runs"] == 1

    got = collect(lk.read())
    want = fold_events(base, pa.concat_tables(segs[:-1], promote_options="permissive"))
    assert_eq(got.select(want.column_names), want)
    rows = {d: (tok, lang) for d, tok, lang in zip(got["doc_id"].to_pylist(),
                                                   got["tokens"].to_pylist(),
                                                   got["lang"].to_pylist())}
    assert rows[x] == ([1, 2], None) and rows[y] == ([5, 6], None)
    assert rows["doc-new"] == ([7, 8, 9], None) and rows["doc-lang"] == ([10], "en")
    assert sum(lang is not None for _, lang in rows.values()) == 1
    dl = pq.read_table(dead)
    n_bad = sum(int(is_malformed_mask(t).sum()) for t in segs[:-1])
    assert dl.num_rows == n_bad + 1
    assert dl.filter(pc.is_valid(dl["user_id"]))["tokens"].to_pylist() == [[11]]


def test_an_epoch_writes_one_run_per_ray_cpu(tmp_path):
    """With ``batch_size=None`` an epoch of S segments of about equal size
    at N Ray CPUs writes min(S, N) runs, and converges."""
    import ray

    cpus = int(ray.cluster_resources()["CPU"])
    for s in (2, cpus + 2):
        base, log_dir, all_events = make_log(tmp_path / f"s{s}", seed=89, n_segments=s)
        lk = _base_seeded(tmp_path / f"s{s}" / "lake", base)
        r = tail_once(lk, log_dir)
        assert (len(r["segments"]), r["l0_runs"]) == (s, min(s, cpus))
        assert_eq(collect(lk.read()), fold_events(base, all_events))


def test_segment_groups_cut_by_rows_and_range_rows(monkeypatch):
    """Groups are contiguous, one per share of the epoch's rows; a group
    that would pass ``RANGE_ROWS`` rows splits, and a larger segment is
    a group of its own."""
    from raycdc.tailer import segment_groups

    monkeypatch.setattr(lake_mod, "fold_tasks", lambda units, rows: min(units, 4))
    assert segment_groups([100] * 8) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert segment_groups([110, 90, 100, 100]) == [[0], [1], [2], [3]]
    assert segment_groups([100, 100]) == [[0], [1]]
    monkeypatch.setattr(lake_mod, "RANGE_ROWS", 150)
    assert segment_groups([100] * 8) == [[i] for i in range(8)]
    assert segment_groups([40, 40, 40, 40, 40, 40, 40, 40]) == [[0, 1], [2, 3], [4, 5], [6, 7]]
    monkeypatch.setattr(lake_mod, "fold_tasks", lambda units, rows: 1)
    assert segment_groups([40] * 5 + [500, 40]) == [[0, 1, 2], [3, 4], [5], [6]]


def test_a_group_over_range_rows_splits(tmp_path, monkeypatch):
    """Past ``RANGE_ROWS`` rows an epoch's group splits: more runs than
    one per CPU, and the lake still converges."""
    _one_group(monkeypatch)
    base, log_dir, all_events = make_log(tmp_path, seed=97, n_segments=4)
    lk = _base_seeded(tmp_path / "lake", base)
    sizes = [pq.read_metadata(os.path.join(log_dir, f)).num_rows for f in sorted(os.listdir(log_dir))]
    monkeypatch.setattr(lake_mod, "RANGE_ROWS", sizes[0] + sizes[1])
    r = tail_once(lk, log_dir)
    assert r["l0_runs"] == 2
    assert_eq(collect(lk.read()), fold_events(base, all_events))


def test_rerun_of_an_uncommitted_epoch_writes_the_same_runs(tmp_path, monkeypatch):
    """An epoch that crashed at its commit and is tailed again at the same
    CPU count cuts the same groups and rewrites the same run files."""
    base, log_dir, all_events = make_log(tmp_path, seed=101, n_segments=6)
    lk = _base_seeded(tmp_path / "lake", base)

    def crashing_write(path, obj, exclusive=False):
        raise OSError("simulated crash at the commit")

    monkeypatch.setattr(lake_mod, "_atomic_write_json", crashing_write)
    with pytest.raises(OSError):
        tail_once(lk, log_dir)
    monkeypatch.undo()
    epoch_dir = os.path.join(lk.path, "state", "e000002")
    first = sorted(os.listdir(epoch_dir))
    assert lk.manifest()["epoch"] == 1 and len(first) > 1
    tail_once(lk, log_dir)
    assert sorted(os.listdir(epoch_dir)) == first
    assert sorted(os.path.basename(e["file"]) for e in lk.manifest()["l0"][1:]) == first
    assert_eq(collect(lk.read()), fold_events(base, all_events))


def test_run_and_base_files_are_zstd_without_dictionary(tmp_path):
    """Every L0 run and compacted base is zstd-compressed with no
    dictionary pages, and each run's row groups keep the ``_bucket``
    min/max statistics that partition reads prune by."""
    base, log_dir, all_events = make_log(tmp_path, seed=53, n_segments=2)
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    seeded_lake(lk, base)
    tail_until_caught_up(lk, log_dir, batch_size=256)
    runs = [e["file"] for e in lk.manifest()["l0"]]
    lk.compact()
    bases = [e["file"] for e in lk.manifest()["l0"]]
    assert runs and bases and not set(runs) & set(bases)
    for rel in runs + bases:
        md = pq.ParquetFile(os.path.join(lk.path, rel)).metadata
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for c in range(rg.num_columns):
                col = rg.column(c)
                assert col.compression == "ZSTD", (rel, col.path_in_schema)
                assert not col.has_dictionary_page, (rel, col.path_in_schema)
                if col.path_in_schema == "_bucket":
                    assert col.statistics.has_min_max, rel
                # the token payload is stored as binary and carries no
                # min/max statistics; every other column keeps them
                stored = col.path_in_schema == "tokens"
                assert (col.statistics is not None and col.statistics.has_min_max) != stored, \
                    (rel, col.path_in_schema)
        field = pq.read_schema(os.path.join(lk.path, rel)).field("tokens")
        assert field.type == pa.binary(), rel
        assert field.metadata[b"raycdc.byte_order"] == b"little", rel
        assert b"raycdc.logical_field" in field.metadata, rel
        # every token lies in the 50,000-token vocabulary: packed as uint16
        # (uint8 if a run's tokens all fit in one byte)
        tokens = lake_mod._decode_stored(pq.read_table(os.path.join(lk.path, rel)))["tokens"]
        lo, hi = pc.min_max(pc.list_flatten(tokens)).values()
        assert 0 <= lo.as_py() and hi.as_py() < 65536, rel
        assert field.metadata[b"raycdc.stored_type"] == (b"uint8" if hi.as_py() < 256 else b"uint16"), rel
    assert_eq(collect(lk.read()), fold_events(base, all_events))


def _tree(root: str) -> dict[str, bytes]:
    """Every file under ``root``, by relative path, with its bytes."""
    tree = {}
    for d, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                tree[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return tree


def test_same_input_writes_identical_lake_files(tmp_path, monkeypatch):
    """Two fresh lakes that apply the same input write byte-identical
    manifest snapshots and state files — several runs per epoch
    included — so ``bytes_written`` is a function of the input. Each
    commit writes one file, its epoch's snapshot, and no lake has a
    ``_manifest.json``."""
    base, log_dir, _ = make_log(tmp_path, seed=59, n_segments=4)
    real_commit = LakeTable._commit_manifest
    commits = []

    def one_file_commit(self, m, record, **changes):
        before = _tree(self.path)
        m2 = real_commit(self, m, record, **changes)
        after = _tree(self.path)
        moved = {p for p in before.keys() | after.keys() if before.get(p) != after.get(p)}
        assert moved == {f"manifests/manifest-e{m2['epoch']:06d}.json"}
        commits.append(m2["epoch"])
        return m2

    monkeypatch.setattr(LakeTable, "_commit_manifest", one_file_commit)
    trees = []
    for name in ("a", "b"):
        lk = LakeTable(str(tmp_path / name), num_partitions=8)
        lk.init()
        seeded_lake(lk, base)
        tail_until_caught_up(lk, log_dir, max_segments_per_epoch=3, batch_size=None)
        assert len(lk.manifest()["l0"]) > 2
        lk.compact()
        trees.append(_tree(lk.path))
    assert commits == [1, 2, 3, 4] * 2
    assert not [p for p in trees[0] if os.path.basename(p) == "_manifest.json"]
    assert trees[0] == trees[1]


def test_deid_transform_tail_converges(tmp_path):
    """The transform tail (the ``tail_deid`` shape): keys and sources come
    out mapped through ``pseudo_id`` / ``name_based_uid``, the
    ``_changeset`` envelope stays ``binary`` as it is, and dead letters
    keep the untransformed ``list<int32>`` payload."""
    from raycdc.identity import name_based_uid, pseudo_id
    from raycdc.pipelines import deid_transform

    base, log_dir, all_events = make_log(tmp_path, seed=61, n_segments=3, pct_malformed=0.05)
    transform = deid_transform(iterations=2, kdf="batch")
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    lk.apply(transform(base_as_inserts(rd.from_arrow(base))), ["__base__"])
    dead = str(tmp_path / "dead")
    tail_until_caught_up(lk, log_dir, transform=transform, dead_letter_dir=dead, batch_size=None)
    want = fold_events(base, all_events)
    want = want.set_column(want.schema.get_field_index("doc_id"), "doc_id", pseudo_id(want["doc_id"]))
    want = want.set_column(want.schema.get_field_index("source"), "source",
                           name_based_uid(want["source"]))
    got = collect(lk.read())
    assert got.schema.field("_changeset").type == pa.binary()
    assert got.schema.field("tokens").type == pa.list_(pa.int32())
    assert_eq(got.select(want.column_names), want)
    for e in lk.manifest()["l0"]:
        field = pq.read_schema(os.path.join(lk.path, e["file"])).field("_changeset")
        assert field.type == pa.binary() and not field.metadata
    dl = pq.read_table(dead)
    bad = all_events.filter(pa.array(is_malformed_mask(all_events)))
    assert dl.num_rows == bad.num_rows > 0
    assert dl.schema.field("tokens").type == pa.list_(pa.int32())
    assert sorted(dl["doc_id"].to_pylist()) == sorted(bad["doc_id"].to_pylist())


def _spied(transform, out_dir: str):
    """``transform`` behind a stage that writes each batch it hands on to
    ``out_dir/<call>`` — one directory per ``tail_once`` — so the rows the
    transform received in Ray workers can be read back."""
    calls = []

    def spied(ds):
        d = os.path.join(out_dir, str(len(calls)))
        calls.append(d)

        def record(t: pa.Table) -> pa.Table:
            import uuid

            os.makedirs(d, exist_ok=True)
            pq.write_table(t, os.path.join(d, f"{uuid.uuid4().hex}.parquet"))
            return t

        return transform(ds.map_batches(record, batch_format="pyarrow"))

    return spied, calls


@pytest.mark.parametrize("mapping", ["deid", "coarse"])
def test_transform_sees_only_each_segments_ok_winners(tmp_path, mapping):
    """A tail transform receives, per segment, exactly one row per raw key:
    its highest-lsn ok row. The input has replays, out-of-order lsns, a
    delete of a replayed key and malformed rows, one with the highest lsn
    of its key. The lake still converges to the fold of every event with
    the keys mapped — through ``pseudo_id``/``name_based_uid``, or through
    a many-to-one key ``map`` rule, where it is the fold on the mapped key."""
    from raycdc.identity import name_based_uid, pseudo_id
    from raycdc.pipelines import deid_transform
    from raycdc.rules import Rule, RuleSet
    from raycdc.synth import EVENT_SCHEMA
    from raycdc.tailer import publish_segment

    base, log_dir, all_events = make_log(tmp_path, seed=71, n_segments=3, pct_malformed=0.05)
    ok = all_events.filter(pa.array(~is_malformed_mask(all_events)))
    x = ok.filter(pc.equal(ok["op"], "update"))["doc_id"][0].as_py()
    top = pc.max(all_events["lsn"]).as_py()
    up = {"op": "update", "doc_id": x, "tokens": [1, 2, 3], "n_tok": 3, "source": "web"}
    extra = pa.Table.from_pylist([
        {"lsn": top + 2, "op": "delete", "doc_id": x, "tokens": None, "n_tok": None, "source": None},
        {"lsn": top + 1, **up},
        {"lsn": top + 3, **up, "n_tok": 4},  # malformed, and x's highest lsn
        {"lsn": top + 1, **up},  # replay
        {"lsn": top + 5, "op": "insert", "doc_id": "doc-late", "tokens": [7], "n_tok": 1,
         "source": "code"},
        {"lsn": top + 4, "op": "insert", "doc_id": "doc-late", "tokens": [8, 9], "n_tok": 2,
         "source": "books"},
    ], schema=EVENT_SCHEMA)
    publish_segment(log_dir, "seg-00003.parquet", extra)
    segs = [pq.read_table(os.path.join(log_dir, f)) for f in sorted(os.listdir(log_dir))]
    all_events = pa.concat_tables(segs)

    if mapping == "deid":
        transform = deid_transform(iterations=2, kdf="batch")
        maps = {"doc_id": pseudo_id, "source": name_based_uid}
    else:
        def coarse_key(doc_id):  # deliberately many-to-one: ten raw keys per key
            return pc.utf8_slice_codeunits(doc_id, 0, -1)

        rs = RuleSet(rules=[Rule(column="doc_id", action="map",
                                 fn=lambda t: coarse_key(t["doc_id"]))])

        def transform(ds):
            return ds.map_batches(rs, batch_format="pyarrow")

        maps = {"doc_id": coarse_key}
    spy, calls = _spied(transform, str(tmp_path / "spy"))
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    lk.apply(transform(base_as_inserts(rd.from_arrow(base))), ["__base__"])
    tail_until_caught_up(lk, log_dir, max_segments_per_epoch=1, transform=spy, batch_size=None)

    assert len(calls) == len(segs) == 4
    for seg, d in zip(segs, calls):
        seen = pq.read_table(d)
        seg_ok = seg.filter(pa.array(~is_malformed_mask(seg)))
        top_lsn = seg_ok.group_by("doc_id").aggregate([("lsn", "max")])
        assert seen.num_rows == top_lsn.num_rows == len(set(seen["doc_id"].to_pylist()))
        assert sorted(zip(seen["doc_id"].to_pylist(), seen["lsn"].to_pylist())) == \
            sorted(zip(top_lsn["doc_id"].to_pylist(), top_lsn["lsn_max"].to_pylist()))
        ok_rows = {repr(r) for r in seg_ok.to_pylist()}
        assert all(repr(r) in ok_rows for r in seen.select(seg.column_names).to_pylist())
    assert pq.read_table(calls[-1]).sort_by("doc_id")["op"].to_pylist() == ["delete", "insert"]

    def mapped(t):
        for c, fn in maps.items():
            t = t.set_column(t.schema.get_field_index(c), c, fn(t[c]))
        return t

    want = fold_events(mapped(base), mapped(all_events))
    assert_eq(collect(lk.read()).select(want.column_names), want)


def test_list_form_lake_reads_tails_and_compacts(tmp_path):
    """A list column whose child holds a null stays in the list form
    (``lake._encode_stored``). One segment carries a ``None`` token in an
    event of a fresh key, so the engine writes that epoch's run in the
    list form beside the other epochs' stored-form runs, and compaction
    keeps the key's one-bucket run in the list form. Read, compaction and
    compaction dropping tombstones fold both forms to the oracle."""
    from raycdc.util import bucket_of

    base, log_dir, _ = make_log(tmp_path, seed=67, n_segments=4)
    segs = sorted(os.listdir(log_dir))
    path, key = os.path.join(log_dir, segs[1]), "doc-with-a-null-token"
    seg = pq.read_table(path)
    row = seg.slice(0, 1)  # an insert of a fresh key, so it wins
    for name, v in (("op", ["insert"]), ("doc_id", [key]), ("tokens", [[7, None, 9]]), ("n_tok", [3])):
        i = row.schema.get_field_index(name)
        row = row.set_column(i, name, pa.array(v, row.schema.field(i).type))
    pq.write_table(pa.concat_tables([seg, row]), path)
    all_events = pa.concat_tables([pq.read_table(os.path.join(log_dir, f)) for f in segs])

    def forms():  # each run's tokens form: "binary" (stored) or "list"
        types = {e["file"]: pq.read_schema(os.path.join(lk.path, e["file"])).field("tokens").type
                 for e in lk.manifest()["l0"]}
        return {f: "list" if pa.types.is_list(t) else str(t) for f, t in types.items()}

    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    seeded_lake(lk, base)
    tail_until_caught_up(lk, log_dir, max_segments_per_epoch=1, batch_size=None)
    got = forms()  # epoch 3 applied segs[1]
    assert {f for f, t in got.items() if t == "list"} == {f for f in got if f.startswith("state/e000003/")}
    assert set(got.values()) == {"binary", "list"}
    want = fold_events(base, all_events)
    read = collect(lk.read())
    assert read.schema.field("tokens").type == pa.list_(pa.int32())
    assert None in read.filter(pc.equal(read["doc_id"], key))["tokens"][0].as_py()
    assert_eq(read, want)
    for drop_tombs in (False, True):
        lk.compact(drop_tombs=drop_tombs)
        got = forms()
        held = {e["file"] for e in lk.manifest()["l0"]
                if e["buckets"] == bucket_of(pa.array([key]), 8).tolist()}
        assert {got[f] for f in held} == {"list"} and "binary" in got.values()
        assert_eq(collect(lk.read()), want)


def _write_four_byte_stored(path: str) -> None:
    """Rewrite the state file at ``path`` at the full width: each row's
    int32 tokens as 4 little-endian bytes, no ``raycdc.stored_type`` key,
    as ``lake._encode_stored`` writes elements that need their full
    width."""
    t = lake_mod._decode_stored(pq.read_table(path))
    i = t.schema.get_field_index("tokens")
    f = t.schema.field(i)
    meta = {b"raycdc.logical_field": schema_to_str(pa.schema([f])), b"raycdc.byte_order": b"little"}
    rows = [None if r is None else np.asarray(r, "<i4").tobytes() for r in t["tokens"].to_pylist()]
    t = t.set_column(i, pa.field("tokens", pa.binary(), f.nullable, meta), pa.array(rows, pa.binary()))
    pq.write_table(t, path, **lake_mod._write_options(t))


def _map_segment_tokens(path: str, fn) -> None:
    """Rewrite the changelog segment at ``path`` with ``fn`` applied to
    every token; lengths and nulls stay, so no event turns malformed."""
    t = pq.read_table(path)
    tok = t["tokens"].combine_chunks()
    vals = pa.array(fn(np.asarray(tok.values)).astype(np.int32))
    tok = pa.ListArray.from_arrays(tok.offsets, vals, mask=pc.is_null(tok))
    pq.write_table(t.set_column(t.schema.get_field_index("tokens"), "tokens", tok), path)


def test_four_byte_stored_lake_folds_runs_of_every_width(tmp_path):
    """Runs of every width fold together: the lake's first runs are
    rewritten at the full 4-byte width (no stored-type key, the form
    ``_encode_stored`` writes when elements need their full width), and
    runs packed as uint8, uint16 and at the full int32 width tail into
    it, so every range folds all of them; read, compaction and compaction
    dropping tombstones match the oracle."""
    base, log_dir, _ = make_log(tmp_path, seed=71, n_segments=5)
    segs = sorted(os.listdir(log_dir))
    _map_segment_tokens(os.path.join(log_dir, segs[2]), lambda v: v % 256)
    _map_segment_tokens(os.path.join(log_dir, segs[4]), lambda v: v + 16_000)
    all_events = pa.concat_tables([pq.read_table(os.path.join(log_dir, f)) for f in segs])
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    seeded_lake(lk, base)
    tail_once(lk, log_dir, max_segments_per_epoch=1, batch_size=None)
    lk.compact()
    tail_once(lk, log_dir, max_segments_per_epoch=1, batch_size=None)
    files = [e["file"] for e in lk.manifest()["l0"]]
    for rel in files:
        path = os.path.join(lk.path, rel)
        _write_four_byte_stored(path)
        assert b"raycdc.stored_type" not in pq.read_schema(path).field("tokens").metadata
    early = pa.concat_tables([pq.read_table(os.path.join(log_dir, f)) for f in segs[:2]])
    got = collect(lk.read())
    assert got.schema.field("tokens").type == pa.list_(pa.int32())
    assert_eq(got, fold_events(base, early))

    tail_until_caught_up(lk, log_dir, max_segments_per_epoch=1, batch_size=None)
    fresh = [e["file"] for e in lk.manifest()["l0"] if e["file"] not in files]
    packed = [pq.read_schema(os.path.join(lk.path, rel)).field("tokens").metadata.get(b"raycdc.stored_type")
              for rel in fresh]
    assert packed == [b"uint8", b"uint16", None]
    for r in lake_mod._ranges(lk.manifest()):  # each range folds every kind of file
        held = {f for f, _ in r["runs"]}
        assert set(fresh) <= held and held & set(files) and r["fold"]
    want = fold_events(base, all_events)
    assert_eq(collect(lk.read()), want)
    lk.compact()
    assert_eq(collect(lk.read()), want)
    lk.compact(drop_tombs=True)
    assert_eq(collect(lk.read()), want)


def test_vacuum_removes_unreferenced_epochs(lake, tmp_path):
    base, log_dir, _ = make_log(tmp_path, seed=43, n_segments=3)
    seeded_lake(lake, base)
    tail_until_caught_up(lake, log_dir, max_segments_per_epoch=1, batch_size=256)
    # pending L0 runs keep every file referenced; compaction supersedes them
    lake.compact()
    state_root = os.path.join(lake.path, "state")
    before = sum(len(fs) for _, _, fs in os.walk(state_root))
    removed = lake.vacuum(keep_epochs=1)
    after = sum(len(fs) for _, _, fs in os.walk(state_root))
    assert removed and after == before - len(removed)
    # the referenced (current) files all survive and the table still reads
    assert collect(lake.read()).num_rows > 0


def test_vacuum_keeps_an_uncommitted_epochs_files(lake):
    """An in-flight apply or compaction has written files under the next
    epoch's state dir that no manifest references yet; vacuum runs beside
    it, with no lock, and must leave them."""
    lake.apply(rd.from_arrow(_one_event("a", 1)), ["s1"])
    lake.apply(rd.from_arrow(_one_event("b", 2)), ["s2"])
    epoch = int(lake.manifest()["epoch"])
    inflight = os.path.join(lake.path, "state", f"e{epoch + 1:06d}", "l0-inflight.parquet")
    os.makedirs(os.path.dirname(inflight))
    pq.write_table(_one_event("c", 3), inflight)
    lake.vacuum(keep_epochs=0)
    assert os.path.exists(inflight)
    assert lake.epochs() == [epoch]  # the current epoch's snapshot is its commit
    assert sorted(collect(lake.read())["doc_id"].to_pylist()) == ["a", "b"]


def test_concurrent_commits_from_one_epoch_commit_once(lake, monkeypatch):
    """Writers that read the same epoch race to commit the next: the
    snapshot create is the compare-and-swap, so exactly one commits and
    every other gets ``ConcurrentWriterError`` (none silently undone)."""
    import threading

    from raycdc.lake import ConcurrentWriterError

    n = 4
    m = lake.manifest()
    real_write = lake_mod._atomic_write_json
    barrier = threading.Barrier(n, timeout=30)
    local = threading.local()

    def gated_write(*args, **kw):
        if not getattr(local, "passed", False):  # every writer reaches its first write
            local.passed = True
            barrier.wait()
        return real_write(*args, **kw)

    monkeypatch.setattr(lake_mod, "_atomic_write_json", gated_write)
    won, lost = [], []

    def commit(i):
        try:
            won.append(lake._commit_manifest(m, {"segments": [f"s{i}"]},
                                             segments_applied=[f"s{i}"]))
        except ConcurrentWriterError:
            lost.append(i)

    threads = [threading.Thread(target=commit, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(won) == 1 and len(lost) == n - 1
    assert lake.manifest() == won[0]
    assert sorted(os.listdir(os.path.join(lake.path, "manifests"))) == [
        "manifest-e000000.json", "manifest-e000001.json"]


def test_writer_outlived_by_vacuum_cannot_commit(lake):
    """Vacuum reclaims old snapshots, so the snapshot a stale writer would
    create may be free again: a writer that read epoch 1 while three newer
    epochs committed and were vacuumed must still lose, not swap the lake
    back to its own epoch 2."""
    from raycdc.lake import ConcurrentWriterError

    lake.apply(rd.from_arrow(_one_event("a", 1)), ["s1"])
    stale = lake.manifest()
    for i in range(2, 5):
        lake.apply(rd.from_arrow(_one_event(f"k{i}", i)), [f"s{i}"])
    lake.vacuum(keep_epochs=1)
    assert lake.epochs() == [4]
    with pytest.raises(ConcurrentWriterError):
        lake._commit_manifest(stale, {"segments": ["late"]},
                              segments_applied=[*stale["segments_applied"], "late"])
    assert lake.manifest()["epoch"] == 4 and lake.epochs() == [4]
    assert collect(lake.read()).num_rows == 4


def test_manifest_lists_again_when_the_newest_snapshot_is_reclaimed(lake, monkeypatch):
    """A reader lists the snapshots, and before it opens the newest, two
    newer commits and a vacuum reclaim it (vacuum keeps only the current
    snapshot). ``manifest()`` lists again and returns the newest epoch,
    raising nothing."""
    lake.apply(rd.from_arrow(_one_event("a", 1)), ["s1"])
    other = LakeTable(lake.path)
    listings = []

    def racing_epochs():
        listing = LakeTable.epochs(lake)
        if not listings:  # the race, once: after the listing, before the open
            for i in (2, 3):
                other.apply(rd.from_arrow(_one_event(f"k{i}", i)), [f"s{i}"])
            other.vacuum(keep_epochs=1)
            assert other.epochs() == [3]
        listings.append(listing)
        return listing

    monkeypatch.setattr(lake, "epochs", racing_epochs)
    assert lake.manifest()["epoch"] == 3
    assert listings == [[0, 1], [3]]


def test_writer_recreating_a_reclaimed_snapshot_raises_and_leaves_none(lake, monkeypatch):
    """A stale writer passes its re-read check, and only then do two newer
    commits and a vacuum free the snapshot name it creates. The create
    succeeds, so the writer must see the newer snapshot, remove its own
    and raise ``ConcurrentWriterError``."""
    from raycdc.lake import ConcurrentWriterError

    lake.apply(rd.from_arrow(_one_event("a", 1)), ["s1"])
    stale = lake.manifest()
    real_write = lake_mod._atomic_write_json

    def racing_write(path, obj, exclusive=False):
        if exclusive:  # the stale writer's create: the others commit first
            monkeypatch.setattr(lake_mod, "_atomic_write_json", real_write)
            for i in (2, 3):
                lake.apply(rd.from_arrow(_one_event(f"k{i}", i)), [f"s{i}"])
            lake.vacuum(keep_epochs=1)
            assert lake.epochs() == [3]
        real_write(path, obj, exclusive)

    monkeypatch.setattr(lake_mod, "_atomic_write_json", racing_write)
    with pytest.raises(ConcurrentWriterError):
        lake._commit_manifest(stale, {"segments": ["late"]},
                              segments_applied=[*stale["segments_applied"], "late"])
    assert os.listdir(os.path.join(lake.path, "manifests")) == ["manifest-e000003.json"]
    assert lake.manifest()["epoch"] == 3
    assert "late" not in lake.manifest()["segments_applied"]
    assert collect(lake.read()).num_rows == 3


def test_tail_forever_picks_up_segments_mid_run(tmp_path):
    """The continuous watch loop (ListenDICOM push analog): segments
    appended WHILE the tailer runs become incremental epochs without a
    restart; the loop exits once idle for idle_timeout_s."""
    from raycdc.tailer import tail_forever

    lk = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lk.init()
    cfg = EventGenConfig(n_events=300, n_base=40, seed=11, min_len=4, max_len=8)
    log_dir = str(tmp_path / "log")
    write_changelog(log_dir, cfg, n_segments=2)
    base = base_table(40, seed=11, min_len=4, max_len=8)
    seeded_lake(lk, base)

    watcher = tail_forever(
        lk, log_dir, poll_s=0.05, idle_timeout_s=0.3,
        max_segments_per_epoch=1, batch_size=256,
    )
    epochs = []
    late_written = False
    for r in watcher:
        epochs.append(r)
        if not late_written:
            # a segment arrives mid-run, after the watcher already started
            late = EventGenConfig(n_events=100, n_base=40, seed=11, min_len=4,
                                  max_len=8, lsn_offset=300)
            _write = write_changelog(str(tmp_path / "late"), late, n_segments=1)
            os.rename(_write[0], os.path.join(log_dir, "seg-00099.parquet"))
            late_written = True
    assert len(epochs) == 3  # 2 initial + 1 late segment
    assert len(lk.manifest()["segments_applied"]) == 4  # __base__ + 3
    all_events = pa.concat_tables(
        [pq.read_table(os.path.join(log_dir, f)) for f in sorted(os.listdir(log_dir))]
    )
    assert_eq(collect(lk.read()), fold_events(base, all_events))


def test_l0_auto_compaction_bounds_fan_in(tmp_path):
    """L0 mode: pending run files trigger an auto-compaction that folds
    them into per-partition bases (manifest l0 clears), and the folded
    state still matches the oracle."""
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=4, l0_compact_files=3)
    lk.init()
    base, log_dir, all_events = make_log(tmp_path, seed=47, n_segments=5)
    seeded_lake(lk, base)
    res = tail_until_caught_up(lk, log_dir, max_segments_per_epoch=1, batch_size=256)
    assert len(res) == 5
    assert any(r.get("auto_compacted") for r in res)
    m = lk.manifest()
    assert len(lake_mod._pending(m["l0"])) <= 3  # bounded fan-in
    compacted = [e for e in m["l0"] if "live_rows" in e]
    assert compacted and all(e["file"].split("/")[-1].startswith("part-") for e in compacted)
    assert_eq(collect(lk.read()), fold_events(base, all_events))
    # explicit compaction clears every pending run
    lk.compact()
    assert lake_mod._pending(lk.manifest()["l0"]) == []
    assert_eq(collect(lk.read()), fold_events(base, all_events))


def test_auto_compaction_that_loses_the_commit_keeps_the_apply(tmp_path, monkeypatch):
    """Another writer commits just before an auto-compaction's snapshot
    create: the compaction loses, the apply that triggered it has already
    committed and returns its epoch, and its runs stay orphans for vacuum."""
    base, log_dir, all_events = make_log(tmp_path, seed=53, n_segments=3)
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=4, l0_compact_files=1)
    lk.init()
    seeded_lake(lk, base)
    other = LakeTable(lk.path, l0_compact_files=100)
    real_write = lake_mod._atomic_write_json

    def competing_write(path, obj, exclusive=False):
        if exclusive and obj["history"][-1].get("compaction"):
            monkeypatch.setattr(lake_mod, "_atomic_write_json", real_write)
            tail_once(other, log_dir, max_segments_per_epoch=1, batch_size=256)
        real_write(path, obj, exclusive)

    monkeypatch.setattr(lake_mod, "_atomic_write_json", competing_write)
    r = tail_once(lk, log_dir, max_segments_per_epoch=1, batch_size=256)
    assert r["epoch"] == 2 and "auto_compacted" not in r
    m = lk.manifest()
    assert m["epoch"] == 3 and "compaction" not in m["history"][-1]
    referenced = {e["file"] for e in m["l0"]}
    orphans = {f"state/e000003/{f}" for f in os.listdir(os.path.join(lk.path, "state", "e000003"))
               if f.startswith("part-")}
    assert orphans and not orphans & referenced
    tail_until_caught_up(lk, log_dir, max_segments_per_epoch=1, batch_size=256)
    assert orphans <= set(lk.vacuum(keep_epochs=1))
    assert_eq(collect(lk.read()), fold_events(base, all_events))


def test_compaction_that_loses_never_replaces_the_winners_runs(tmp_path):
    """Two compactions from one epoch write into the same epoch dir; the
    one that drops tombstones loses the commit after its writes. Run
    names are content-derived, so the winner's runs still hold the rows
    its entries list, tombstone included, and a replayed insert stays
    deleted."""
    from raycdc.lake import ConcurrentWriterError

    lk = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    lk.init()
    lk.apply(rd.from_arrow(_one_event("a", 1)), ["s1"])
    lk.apply(rd.from_arrow(_one_event("a", 2).set_column(1, "op", pa.array(["delete"]))), ["s2"])
    lk.apply(rd.from_arrow(_one_event("b", 3)), ["s3"])
    m = lk.manifest()
    lk._compact_locked(m, drop_tombs=False)
    with pytest.raises(ConcurrentWriterError):
        lk._compact_locked(m, drop_tombs=True)
    for e in lk.manifest()["l0"]:
        assert pq.read_metadata(os.path.join(lk.path, e["file"])).num_rows == e["rows"]
    lk.apply(rd.from_arrow(_one_event("a", 1)), ["s1-replayed"])
    assert collect(lk.read())["doc_id"].to_pylist() == ["b"]


def test_time_travel_read_epochs(lake, tmp_path):
    """read(epoch=E) reproduces the exact table state at each committed
    epoch; vacuum(keep_epochs) reclaims old snapshots AND keeps the state
    files retained snapshots still reference."""
    from raycdc.synth import is_malformed_mask

    base, log_dir, all_events = make_log(tmp_path, seed=47, n_segments=3)
    seeded_lake(lake, base)
    tail_until_caught_up(lake, log_dir, max_segments_per_epoch=1, batch_size=256)
    epochs = lake.epochs()
    assert lake.manifest()["epoch"] in epochs and len(epochs) >= 4  # init + base + 3 tails
    # replay the golden fold cut at each epoch's applied segments
    segs = sorted(f for f in os.listdir(log_dir))
    for n_applied in range(len(segs) + 1):
        epoch = 1 + n_applied  # epoch 1 = base seed
        expected = fold_events(
            base,
            pa.concat_tables(
                [pq.read_table(os.path.join(log_dir, f)) for f in segs[:n_applied]]
            ) if n_applied else all_events.slice(0, 0),
        )
        got = collect(lake.read(epoch=epoch))
        assert_eq(got, expected)
    # unknown epoch → LookupError with guidance
    with pytest.raises(LookupError):
        lake.manifest(epoch=9999)
    # retention: keep 2 snapshots; older epochs become unreadable, newest
    # retained old epoch still replays exactly
    lake.vacuum(keep_epochs=2)
    kept = lake.epochs()
    assert len(kept) == 2 and kept[-1] == lake.manifest()["epoch"]
    with pytest.raises(LookupError):
        lake.manifest(epoch=epochs[0])
    again = collect(lake.read(epoch=kept[0]))
    n_applied = kept[0] - 1
    expected = fold_events(
        base,
        pa.concat_tables(
            [pq.read_table(os.path.join(log_dir, f)) for f in segs[:n_applied]]
        ) if n_applied else all_events.slice(0, 0),
    )
    assert_eq(again, expected)


def test_midepoch_task_failure_then_rerun_commits_once(tmp_path):
    """Mid-epoch WRITE failure (VERDICT r3 §7): a worker task dies after
    sibling tasks have already written state files for the epoch, before
    the driver's take_all() returns. The manifest must not advance; the
    clean re-run must commit exactly once; the content-derived run names
    make the rewrite overwrite (not duplicate) any orphans, so the epoch
    directory ends with exactly the manifest-referenced files."""
    import glob as _glob
    import time as _time

    base, log_dir, all_events = make_log(tmp_path, seed=41, n_segments=2)
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    seeded_lake(lk, base)
    epoch0 = lk.manifest()["epoch"]

    segs = sorted(os.listdir(log_dir))
    ev = rd.read_parquet([os.path.join(log_dir, s) for s in segs])
    valid = ev.map_batches(
        lambda t: t.filter(pa.array(~is_malformed_mask(t))), batch_format="pyarrow"
    )

    poison_key = valid.take(1)[0]["doc_id"]

    def poison(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if pc.any(pc.equal(t["doc_id"], poison_key)).as_py():
            _time.sleep(1.0)  # let sibling tasks write their files first
            raise OSError("simulated mid-epoch worker failure")
        return t

    # small batches => many tasks => siblings complete before the poison
    with pytest.raises(Exception):
        lk.apply(valid.map_batches(poison, batch_format="pyarrow", batch_size=64), segs)
    assert lk.manifest()["epoch"] == epoch0  # commit point never reached
    orphans = _glob.glob(os.path.join(lk.path, "state", "*", "*.parquet"))
    assert orphans, "precondition: some state files were written mid-epoch"

    # clean re-run commits exactly once and converges
    r = lk.apply(valid, segs)
    assert r.get("noop") is not True
    assert lk.manifest()["epoch"] == epoch0 + 1
    assert_eq(collect(lk.read()), fold_events(base, all_events))
    # idempotence: the same segments again are a no-op
    assert lk.apply(valid, segs).get("noop") is True

    # content-named rewrite: every file in the epoch dirs is referenced
    # by the manifest (orphans were overwritten, never duplicated)
    referenced = {e["file"] for e in lk.manifest()["l0"]}
    on_disk = {
        os.path.relpath(p, lk.path)
        for p in _glob.glob(os.path.join(lk.path, "state", "*", "*.parquet"))
    }
    assert on_disk == referenced, (
        f"orphan/duplicate run files: {sorted(on_disk - referenced)}"
    )


def test_tail_forever_concurrent_writer(tmp_path):
    """Concurrent-writer ingest (VERDICT r4 §8 — the ListenDICOM
    create-commit-rollback analog, `ListenDICOM.java:165-171`): a writer
    thread appends segments via the documented WAL-writer contract
    (write to a temp name, then ATOMIC rename into the log dir, names in
    append order) while tail_forever is replaying. Every segment must be
    applied exactly once across epochs — none lost, none double-applied —
    and the converged state must equal the serial fold of all events."""
    import shutil
    import threading
    import time as _time

    from raycdc.tailer import tail_forever

    base, staged_dir, all_events = make_log(tmp_path, seed=47, n_segments=6)
    # stage the full changelog elsewhere; the LIVE log dir starts with
    # only the first two segments (guarantees the tailer starts mid-stream)
    log_dir = str(tmp_path / "live_log")
    os.makedirs(log_dir)
    staged = sorted(os.listdir(staged_dir))
    assert len(staged) == 6

    def publish(name: str):
        tmp = os.path.join(log_dir, "." + name + ".tmp")
        shutil.copyfile(os.path.join(staged_dir, name), tmp)
        os.rename(tmp, os.path.join(log_dir, name))  # atomic commit

    for name in staged[:2]:
        publish(name)

    stop_err = []

    def writer():
        # exercises the library's publish_segment contract helper (the
        # copy+rename above is the same contract hand-rolled)
        from raycdc.tailer import publish_segment

        try:
            for name in staged[2:]:
                _time.sleep(0.25)
                publish_segment(log_dir, name,
                                pq.read_table(os.path.join(staged_dir, name)))
        except Exception as e:  # surfaces in the main thread's assert
            stop_err.append(e)

    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    seeded_lake(lk, base)

    th = threading.Thread(target=writer)
    th.start()
    try:
        epochs = list(
            tail_forever(lk, log_dir, poll_s=0.05, idle_timeout_s=3.0, batch_size=256)
        )
    finally:
        th.join()
    assert not stop_err, stop_err

    # exactly-once across epochs: the union of per-epoch segment lists is
    # disjoint and covers every published segment
    seen: list[str] = []
    for r in epochs:
        seen.extend(r["segments"])
    assert len(seen) == len(set(seen)), f"double-applied: {seen}"
    assert sorted(seen) == staged
    assert sorted(lk.manifest()["segments_applied"])[-6:] == staged
    # mid-run pickup actually happened (not one big final epoch)
    assert len(epochs) >= 2, [r["segments"] for r in epochs]
    # a dot-prefixed temp name must never be visible to the tailer
    assert not [f for f in os.listdir(log_dir) if f.startswith(".")]
    assert_eq(collect(lk.read()), fold_events(base, all_events))


@pytest.mark.parametrize("layout", ["v3", "v3_bases", "v3_deltas", "fingerprint"])
def test_a_lake_of_another_format_is_refused(tmp_path, layout):
    """A lake whose manifest is of another format version — version 3 in
    today's layout, or with the per-partition ``partitions`` bases of
    older lakes, with or without the removed shuffle commit mode's
    ``deltas`` — or of another bucket fingerprint is refused: opening,
    reading (time travel included), compacting, vacuuming and applying
    raise a ``ValueError`` that names the rebuild, and nothing is
    committed. Reading such a lake with today's reader would drop or
    mis-route rows without a word."""
    import json

    with pytest.raises(ValueError, match="commit_mode"):
        LakeTable(str(tmp_path / "x"), commit_mode="shuffle")
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=2)
    lk.init()
    lk.apply(rd.from_arrow(_one_event()), ["s1"])
    lk.compact()
    good = lk.manifest()
    assert good["version"] == lake_mod.FORMAT == 4
    ent, = good["l0"]
    v3 = dict({k: v for k, v in good.items() if k != "fingerprint"}, version=3)
    base = {"base": ent["file"], "rows": 1, "live_rows": 1, "watermark": 1}
    bad = {
        "v3": v3,
        "v3_bases": dict(v3, l0=[], partitions={str(ent["bmin"]): base}),
        "v3_deltas": dict(v3, l0=[], partitions={str(ent["bmin"]): dict(base, deltas=[ent["file"]])}),
        "fingerprint": dict(good, fingerprint="0" * 16),
    }[layout]
    epochs = lk.epochs()
    for e in epochs:  # every snapshot, as the lake's writer left it
        lake_mod._atomic_write_json(lk._snapshot_path(e), dict(bad, epoch=e))
    frozen = _tree(lk.path)
    for op in (lambda: LakeTable(lk.path), lk.read, lambda: lk.read(epoch=1), lk.compact, lk.vacuum,
               lambda: lk.apply(rd.from_arrow(_one_event("k2", 2)), ["s2"])):
        with pytest.raises(ValueError, match="rebuild it by replaying its changelog"):
            op()
    assert lk.epochs() == epochs and _tree(lk.path) == frozen  # nothing committed or removed
    with open(lk.manifest_path) as f:
        assert json.load(f)["epoch"] == good["epoch"]


def test_a_lake_laid_out_by_another_bucket_hash_is_refused(tmp_path, monkeypatch):
    """Under a bucket hash that moved (as a polars release could move
    ``str_hash_u64``), an update to a key lands in another bucket than
    the key's row, and the key is live twice. The lake's bucket
    fingerprint refuses it on open instead."""
    import raycdc.util as util

    real = util.str_hash_u64

    def other_hash(values, seed=0):
        return real(values, seed=seed + 1)

    def under_other_hash(fn):
        def run(*args, **kw):  # swaps the hash in the Ray worker that writes the run
            saved, util.str_hash_u64 = util.str_hash_u64, other_hash
            try:
                return fn(*args, **kw)
            finally:
                util.str_hash_u64 = saved
        return run

    lk = LakeTable(str(tmp_path / "lake"), num_partitions=8)
    lk.init()
    lk.apply(rd.from_arrow(_one_event("a", 1)), ["s1"])
    stored = lk.manifest()["fingerprint"]
    assert util.bucket_of(pa.array(["a"]), 8).tolist() == [4]

    monkeypatch.setattr(util, "str_hash_u64", other_hash)
    monkeypatch.setattr(lake_mod, "bucket_fingerprint", util.bucket_fingerprint.__wrapped__)
    monkeypatch.setattr(lake_mod, "ok_lww_order", under_other_hash(lake_mod.ok_lww_order))
    assert util.bucket_of(pa.array(["a"]), 8).tolist() == [6]
    for op in (lambda: LakeTable(lk.path), lambda: lk.apply(rd.from_arrow(_one_event("a", 2)), ["s2"])):
        with pytest.raises(ValueError, match=f"is format 4, bucket hash {stored};"):
            op()
    assert lk.epochs() == [0, 1]

    # what the check prevents: without it, the update is written to
    # bucket 6 while the row stays in bucket 4, and "a" is live twice
    monkeypatch.setattr(lake_mod, "bucket_fingerprint", lambda: stored)
    lk.apply(rd.from_arrow(_one_event("a", 2)), ["s2"])
    assert collect(lk.read())["doc_id"].to_pylist() == ["a", "a"]


def test_reopened_lake_keeps_its_key(tmp_path):
    """A handle opened without ``key`` folds on the manifest's key; a key
    the manifest contradicts is refused."""
    ev = _one_event().rename_columns(["lsn", "op", "user_id", "tokens", "n_tok", "source"])
    path = str(tmp_path / "lake")
    LakeTable(path, num_partitions=4, key="user_id").init()
    lk = LakeTable(path)
    assert lk.key == "user_id"
    lk.apply(rd.from_arrow(ev), ["s1"])
    newer = ev.set_column(0, "lsn", pa.array([2], pa.int64()))
    lk.apply(rd.from_arrow(newer), ["s2"])
    got = collect(lk.read())
    assert got["user_id"].to_pylist() == ["k"] and got.num_rows == 1
    with pytest.raises(ValueError, match="keyed by 'user_id'"):
        LakeTable(path, key="doc_id")
    assert LakeTable(str(tmp_path / "fresh")).key == "doc_id"


def test_null_key_events_are_dead_lettered_on_the_lakes_key(tmp_path):
    """The validator checks the lake's own key: on a lake keyed by
    ``user_id``, each null-``user_id`` event is dead-lettered instead of
    becoming a live row of its own, and every other key folds as usual."""
    seg = pa.table({
        "lsn": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "op": ["insert"] * 5,
        "user_id": ["u1", None, "u2", None, "u1"],
        "tokens": pa.array([[1], [2], [3], [4], [5]], pa.list_(pa.int32())),
        "n_tok": pa.array([1] * 5, pa.int32()),
        "source": ["web"] * 5,
    })
    log_dir = str(tmp_path / "log")
    os.makedirs(log_dir)
    pq.write_table(seg, os.path.join(log_dir, "seg-00000.parquet"))
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=4, key="user_id")
    lk.init()
    dl = str(tmp_path / "dead")
    assert len(tail_until_caught_up(lk, log_dir, dead_letter_dir=dl)) == 1
    dead = pq.read_table(dl)
    assert sorted(dead["lsn"].to_pylist()) == [2, 4]
    assert dead["user_id"].null_count == 2
    got = collect(lk.read()).sort_by("user_id")
    assert got["user_id"].to_pylist() == ["u1", "u2"]
    assert got["tokens"].to_pylist() == [[5], [3]]


def test_segment_without_the_key_or_lsn_column_is_dead_lettered_whole(tmp_path):
    """A segment that lacks the lake's key column, ``lsn`` or ``op``
    cannot be folded: it is dead-lettered whole and committed once, and
    the lake's state does not move — the tailer is not wedged on it."""
    def seg(lsns, **key):
        n = len(lsns)
        return pa.table({
            **key,
            "lsn": pa.array(lsns, pa.int64()),
            "op": ["insert"] * n,
            "tokens": pa.array([[v] for v in lsns], pa.list_(pa.int32())),
            "n_tok": pa.array([1] * n, pa.int32()),
        })

    log_dir = str(tmp_path / "log")
    os.makedirs(log_dir)
    pq.write_table(seg([1, 2], user_id=["u1", "u2"]), os.path.join(log_dir, "seg-00000.parquet"))
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=4, key="user_id")
    lk.init()
    dl = str(tmp_path / "dead")
    assert tail_once(lk, log_dir, dead_letter_dir=dl) is not None
    before = collect(lk.read()).sort_by("user_id")

    pq.write_table(seg([3, 4], doc_id=[7, 8]), os.path.join(log_dir, "seg-00001.parquet"))
    pq.write_table(seg([5], user_id=["u1"]).drop_columns(["lsn"]),
                   os.path.join(log_dir, "seg-00002.parquet"))
    pq.write_table(seg([6], user_id=["u2"]).drop_columns(["op"]),
                   os.path.join(log_dir, "seg-00003.parquet"))
    # one segment per epoch, so no batch mixes two segments
    for epoch, name, tokens in ((2, "seg-00001.parquet", [3, 4]), (3, "seg-00002.parquet", [5]),
                                (4, "seg-00003.parquet", [6])):
        r = tail_once(lk, log_dir, max_segments_per_epoch=1, dead_letter_dir=dl)
        assert (r["segments"], r["l0_runs"]) == ([name], 0)
        dead = pq.read_table(os.path.join(dl, f"epoch={epoch:06d}"))
        assert sorted(t for (t,) in dead["tokens"].to_pylist()) == tokens
    assert tail_once(lk, log_dir, dead_letter_dir=dl) is None
    applied = lk.manifest()["segments_applied"]
    assert [applied.count(f"seg-0000{i}.parquet") for i in range(4)] == [1, 1, 1, 1]
    assert collect(lk.read()).sort_by("user_id").equals(before)


def test_publish_segment_fsyncs_the_segment_before_it_is_visible(tmp_path, monkeypatch):
    """A segment is on stable storage before the rename makes it visible,
    so a crash cannot leave a torn segment for the tailer; a failed write
    leaves no temp file."""
    from raycdc.tailer import publish_segment

    events = []
    real_fsync, real_replace, real_rename = os.fsync, os.replace, os.rename

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        return real_fsync(fd)

    def visible(real):
        def fn(src, dst, *a, **k):
            events.append(("visible", os.path.basename(dst)))
            return real(src, dst, *a, **k)
        return fn

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", visible(real_replace))
    monkeypatch.setattr(os, "rename", visible(real_rename))
    log_dir = str(tmp_path / "log")
    final = publish_segment(log_dir, "seg-00000.parquet", pa.table({"lsn": [1, 2]}))
    at = events.index(("visible", "seg-00000.parquet"))
    assert ("fsync", os.stat(final).st_ino) in events[:at]
    assert pq.read_table(final)["lsn"].to_pylist() == [1, 2]

    def torn_write(table, where, **kwargs):
        with open(where, "wb") as f:
            f.write(b"PAR1")
        raise OSError("no space left on device")

    monkeypatch.setattr(pq, "write_table", torn_write)
    with pytest.raises(OSError):
        publish_segment(log_dir, "seg-00001.parquet", pa.table({"lsn": [3]}))
    assert os.listdir(log_dir) == ["seg-00000.parquet"]


def test_lake_writes_state_files_through_one_writer():
    """Every state file, ingest run or compacted run, is written by
    ``LakeTable._write_run``: it holds the one parquet write of the lake."""
    import inspect

    src = inspect.getsource(lake_mod)
    calls = src.count("_atomic_write_parquet(") - src.count("def _atomic_write_parquet(")
    assert calls == 1
    assert "_atomic_write_parquet(" in inspect.getsource(LakeTable._write_run)
