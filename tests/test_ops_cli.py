"""ops.py building blocks + the CLI lifecycle (in-process main())."""

import json

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from raycdc.ops import (
    broadcast_lookup,
    broadcast_membership,
    grouped_min_broadcast,
    partial_groupby_agg,
)


def test_partial_groupby_agg_matches_naive():
    n = 5000
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 50, n)
    vals = rng.integers(0, 1000, n)
    t = pa.table({"k": keys, "v": vals})
    out = {
        r["k"]: r
        for r in partial_groupby_agg(
            rd.from_arrow(t).repartition(8),
            "k",
            {"mn": ("v", "min"), "mx": ("v", "max"), "sm": ("v", "sum"), "ct": ("v", "count")},
            batch_size=256,
        ).take_all()
    }
    import pandas as pd

    g = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"]
    for k, mn in g.min().items():
        assert out[k]["mn"] == mn
        assert out[k]["mx"] == g.max()[k]
        assert out[k]["sm"] == g.sum()[k]
        assert out[k]["ct"] == g.count()[k]


def test_broadcast_membership_and_lookup():
    t = pa.table({"k": [1, 2, 3, 4], "x": ["a", "b", "c", "d"]})
    ds = broadcast_membership(rd.from_arrow(t), "k", {2, 4})
    got = {r["k"]: r["matched"] for r in ds.take_all()}
    assert got == {1: False, 2: True, 3: False, 4: True}
    ds2 = broadcast_lookup(rd.from_arrow(t), "k", {1: "one", 3: "three"}, "name", default="?")
    got2 = {r["k"]: r["name"] for r in ds2.take_all()}
    assert got2 == {1: "one", 2: "?", 3: "three", 4: "?"}


def test_grouped_min_broadcast():
    t = pa.table({"k": [1, 1, 2, 2], "v": [5, 3, 9, 7]})
    assert grouped_min_broadcast(rd.from_arrow(t), "k", "v") == {1: 3, 2: 7}


# --------------------------------------------------------------------- CLI
def test_cli_lifecycle(tmp_path, capsys):
    from raycdc.__main__ import main

    work, lake, dead = str(tmp_path / "w"), str(tmp_path / "lake"), str(tmp_path / "dead")
    assert main(["synth", work, "--base", "500", "--events", "2000", "--segments", "2",
                 "--min-len", "4", "--max-len", "8"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    base_dir, log_dir = out["base_dir"], out["log_dir"]

    assert main(["init", lake, "--partitions", "4"]) == 0
    assert main(["seed", lake, base_dir]) == 0
    # seeding twice is a no-op
    assert main(["seed", lake, base_dir]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]).get("noop") is True

    assert main(["tail", lake, log_dir, "--dead-letter", dead]) == 0
    # after a tail, L0 runs are pending: live_rows is not exact from
    # metadata alone, but state_rows counts the runs' rows
    assert main(["status", lake]) == 0
    status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status["epoch"] == 2 and status["state_rows"] > 0
    assert main(["status", lake, "--exact"]) == 0
    status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status["live_rows"] > 0

    snap = str(tmp_path / "snap")
    assert main(["read", lake, "--out", snap]) == 0
    import pyarrow.parquet as pq

    assert pq.read_table(snap).num_rows == status["live_rows"]

    # time travel: list epochs, export the pre-tail (base-only) state
    assert main(["epochs", lake]) == 0
    eps = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert eps["current"] == 2 and 1 in eps["epochs"]
    tt = str(tmp_path / "snap_e1")
    assert main(["read", lake, "--out", tt, "--epoch", "1"]) == 0
    assert pq.read_table(tt).num_rows == 500  # the seeded base, pre-events

    # incremental materialized view over the converged state: per-source
    # token totals; must equal the full-recompute aggregate of the snapshot
    mv_dir = str(tmp_path / "mv")
    assert main(["mv", lake, mv_dir, "--group", "source",
                 "--sum", "sum_tok=n_tok", "--count", "n_docs"]) == 0
    mv_out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert mv_out["epoch"] == 2 and mv_out["groups"] > 0
    snap_t = pq.read_table(snap)
    want = snap_t.group_by("source").aggregate(
        [("n_tok", "sum"), ("doc_id", "count")])
    got = pq.read_table(str(tmp_path / "mv" / "mv-00000002.parquet"))
    w = {want["source"][i].as_py(): (want["n_tok_sum"][i].as_py(),
                                     want["doc_id_count"][i].as_py())
         for i in range(want.num_rows)}
    g = {got["source"][i].as_py(): (got["sum_tok"][i].as_py(),
                                    got["n_docs"][i].as_py())
         for i in range(got.num_rows)}
    assert g == w
    # idempotent at the same epoch
    assert main(["mv", lake, mv_dir, "--group", "source",
                 "--sum", "sum_tok=n_tok", "--count", "n_docs"]) == 0

    assert main(["vacuum", lake]) == 0


def test_cli_errors(tmp_path, capsys):
    from raycdc.__main__ import main

    assert main(["status", str(tmp_path / "missing")]) == 2
    # bad rules file fails fast at config validation
    lake = str(tmp_path / "lake2")
    assert main(["init", lake]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"rules": [{"column": "x", "action": "bogus"}]}')
    assert main(["tail", lake, str(tmp_path), "--rules", str(bad)]) == 2
    # a manifest the engine refuses (another format version) is an
    # error line, not a traceback, for init too
    import raycdc.lake as lake_mod

    lk = lake_mod.LakeTable(lake)
    lake_mod._atomic_write_json(lk.manifest_path, dict(lk.manifest(), version=3))
    for cmd in ("status", "init"):
        capsys.readouterr()
        assert main([cmd, lake]) == 2
        assert capsys.readouterr().err.startswith(f"error: lake {lake} is format 3, bucket hash")


class _RayUpCalled(Exception):
    pass


def test_cli_mv_keeps_top_level_num_cpus(tmp_path, monkeypatch):
    """``--num-cpus`` before the subcommand reaches ``_ray_up`` for ``mv``
    (a subparser default of the same name would overwrite it)."""
    import raycdc.__main__ as cli

    seen = []

    def fake_ray_up(num_cpus):
        seen.append(num_cpus)
        raise _RayUpCalled

    monkeypatch.setattr(cli, "_ray_up", fake_ray_up)
    lake = str(tmp_path / "lake")
    assert cli.main(["init", lake]) == 0
    with pytest.raises(_RayUpCalled):
        cli.main(["--num-cpus", "4", "mv", lake, str(tmp_path / "mv"), "--group", "source",
                  "--count", "n"])
    assert seen == [4]


def test_cli_tail_watch_prints_each_epoch(tmp_path, monkeypatch, capsys):
    """``tail --watch N`` is the library watch loop: ``tail_forever`` with
    ``poll_s=N``, one JSON line per committed epoch."""
    import raycdc.__main__ as cli
    import raycdc.tailer

    calls = []

    def fake_tail_forever(lake, log_dir, poll_s=1.0, **kw):
        calls.append((log_dir, poll_s, kw))
        yield {"epoch": 2}
        yield {"epoch": 3}

    monkeypatch.setattr(cli, "_ray_up", lambda num_cpus: None)
    monkeypatch.setattr(raycdc.tailer, "tail_forever", fake_tail_forever)
    lake = str(tmp_path / "lake")
    assert cli.main(["init", lake]) == 0
    capsys.readouterr()
    assert cli.main(["tail", lake, "LOG", "--watch", "0.5", "--segments-per-epoch", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [json.loads(x) for x in lines] == [{"epoch": 2}, {"epoch": 3}]
    assert calls == [("LOG", 0.5, {"max_segments_per_epoch": 3, "transform": None,
                                    "dead_letter_dir": None})]


def test_flatten_struct():
    from raycdc.ops import flatten_struct

    meta = pa.array(
        [{"a": "x", "b": 1}, None, {"a": "y" * 300, "b": 3}],
        type=pa.struct([("a", pa.string()), ("b", pa.int64())]),
    )
    t = pa.table({"id": [1, 2, 3], "meta": meta})
    out = {r["id"]: r for r in flatten_struct(
        rd.from_arrow(t), "meta", prefix="m_").take_all()}
    assert out[1]["m_a"] == "x" and out[1]["m_b"] == 1
    assert out[2]["m_a"] is None and out[2]["m_b"] is None  # null struct row
    assert "meta" not in out[1]
    # stringify mode with the reference's 200-char cap
    out2 = {r["id"]: r for r in flatten_struct(
        rd.from_arrow(t), "meta", prefix="m_", stringify=True, max_len=200).take_all()}
    assert out2[3]["m_b"] == "3" and len(out2[3]["m_a"]) == 200


def test_cli_compact(tmp_path, capsys):
    from raycdc.__main__ import main

    work, lake = str(tmp_path / "w"), str(tmp_path / "lakeC")
    assert main(["synth", work, "--base", "200", "--events", "800", "--segments", "2",
                 "--min-len", "4", "--max-len", "8"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert main(["init", lake, "--partitions", "4"]) == 0
    assert main(["seed", lake, out["base_dir"]]) == 0
    assert main(["tail", lake, out["log_dir"]]) == 0
    capsys.readouterr()
    assert main(["compact", lake, "--drop-tombstones"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["tombstones_dropped"] >= 0
    # after compaction live_rows is exact straight from the manifest
    assert main(["status", lake]) == 0
    status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status["live_rows"] is not None and status["pending_l0_runs"] == 0


def test_grouped_shift_from_min_matches_broadcast():
    import pandas as pd

    from raycdc.ops import grouped_shift_from_min

    rng = np.random.default_rng(5)
    t = pa.table({
        "event_id": pa.array(range(400), pa.int64()),
        "user_id": pa.array(rng.integers(0, 40, 400), pa.int64()),
        "ts_us": pa.array(rng.integers(0, 10**9, 400), pa.int64()),
    })
    out = grouped_shift_from_min(
        rd.from_arrow(t).repartition(4), "user_id", "ts_us", "shift_us",
        num_buckets=8, keep_cols=["event_id", "user_id", "shift_us"],
    )
    got = {r["event_id"]: r["shift_us"] for r in out.take_all()}
    df = t.to_pandas()
    expect = df["ts_us"] - df.groupby("user_id")["ts_us"].transform("min")
    assert got == dict(zip(df["event_id"], expect))


def test_hash_join_inner_and_left():
    from raycdc.ops import hash_join

    left = pa.table({
        "k": pa.array([1, 2, 3, 4, 2], pa.int64()),
        "payload": pa.array([[1], [2, 2], [3], [4], [22]], pa.list_(pa.int32())),
        "name": ["a", "b", "c", "d", "b2"],
    })
    right = pa.table({
        "k": pa.array([2, 3, 3, 9], pa.int64()),
        "name": ["R2", "R3", "R3x", "R9"],  # collides with left 'name' → name_r
        "score": pa.array([0.2, 0.3, 0.33, 0.9], pa.float64()),
    })
    inner = collect_rows(hash_join(rd.from_arrow(left).repartition(3),
                                   rd.from_arrow(right), "k", how="inner", num_buckets=4))
    # k=2 matches twice on left side × once right; k=3 once × twice
    assert sorted((r["k"], r["name"], r["name_r"]) for r in inner) == [
        (2, "b", "R2"), (2, "b2", "R2"), (3, "c", "R3"), (3, "c", "R3x")]
    assert all(r["payload"] is not None for r in inner)

    lj = collect_rows(hash_join(rd.from_arrow(left), rd.from_arrow(right), "k",
                                how="left", num_buckets=4))
    assert len(lj) == 6  # 4 matches + unmatched k=1, k=4
    unmatched = [r for r in lj if r["k"] in (1, 4)]
    assert all(r["name_r"] is None and r["score"] is None for r in unmatched)
    assert all(r["payload"] is not None for r in lj)  # left payload survives


def test_hash_join_key_not_first_column():
    """Regression: join_bucket assembled columns positionally as
    (key, *left_only) against a schema in left-column order — a join key
    that isn't the left's FIRST column swapped column values."""
    from raycdc.ops import hash_join

    left = pa.table({"other": ["x", "y", "z"], "k": pa.array([1, 2, 3], pa.int64())})
    right = pa.table({"k": pa.array([2, 3], pa.int64()), "rv": ["R2", "R3"]})
    out = collect_rows(hash_join(rd.from_arrow(left), rd.from_arrow(right),
                                 "k", how="inner", num_buckets=4))
    assert sorted((r["other"], r["k"], r["rv"]) for r in out) == [
        ("y", 2, "R2"), ("z", 3, "R3")]


def test_hash_join_null_keys_never_match():
    """SQL `JOIN ON =` semantics: NULL keys match nothing (pandas would
    pair NaN with NaN)."""
    from raycdc.ops import hash_join

    left = pa.table({"k": pa.array([1, None, 2, None], pa.int64()),
                     "lv": ["a", "b", "c", "d"]})
    right = pa.table({"k": pa.array([1, None, 9], pa.int64()),
                      "rv": ["R1", "Rnull", "R9"]})
    inner = collect_rows(hash_join(rd.from_arrow(left), rd.from_arrow(right),
                                   "k", how="inner", num_buckets=4))
    assert [(r["k"], r["lv"], r["rv"]) for r in inner] == [(1, "a", "R1")]
    lj = collect_rows(hash_join(rd.from_arrow(left), rd.from_arrow(right),
                                "k", how="left", num_buckets=4))
    assert sorted((r["lv"], r["rv"] or "-") for r in lj) == [
        ("a", "R1"), ("b", "-"), ("c", "-"), ("d", "-")]


def test_join_refuses_a_renamed_column_that_is_taken():
    """A right column that clashes with a left one is renamed
    ``<name>_r``; when that name is taken as well, both two-sided joins
    refuse the inputs on the driver, naming the column, instead of
    failing inside the bucket fold on a duplicate field."""
    from raycdc.ops import asof_join, hash_join

    k = pa.array([1, 2], pa.int64())
    left = rd.from_arrow(pa.table({"k": k, "t": k, "x": ["a", "b"]}))
    right = rd.from_arrow(pa.table({"k": k, "t": k, "x": ["A", "B"], "x_r": ["p", "q"]}))
    with pytest.raises(ValueError, match=r"\['x_r'\]"):
        hash_join(left, right, "k", num_buckets=4)
    with pytest.raises(ValueError, match=r"\['x_r'\]"):
        asof_join(left, right, on_left="t", on_right="t", by_left="k", by_right="k",
                  num_buckets=4)
    # the taken name may be the left's own column too
    left_r = rd.from_arrow(pa.table({"k": k, "x": ["a", "b"], "x_r": ["p", "q"]}))
    with pytest.raises(ValueError, match=r"\['x_r'\]"):
        hash_join(left_r, rd.from_arrow(pa.table({"k": k, "x": ["A", "B"]})), "k")


def collect_rows(ds):
    return ds.take_all()


def test_top_k_global_and_grouped():
    from raycdc.ops import top_k

    rng = np.random.default_rng(9)
    t = pa.table({
        "id": pa.array(range(500), pa.int64()),
        "grp": pa.array(rng.integers(0, 7, 500), pa.int64()),
        "score": pa.array(rng.integers(0, 100, 500), pa.int64()),
    })
    got = top_k(rd.from_arrow(t).repartition(5), "score", 5,
                tiebreak="id").take_all()
    import pandas as pd

    df = t.to_pandas().sort_values(["score", "id"], ascending=[False, True])
    assert [(r["id"], r["score"]) for r in got] == \
        list(zip(df["id"].head(5), df["score"].head(5)))

    per = top_k(rd.from_arrow(t).repartition(5), "score", 3, tiebreak="id",
                per="grp", num_buckets=4).take_all()
    want = (df.sort_values(["grp", "score", "id"], ascending=[True, False, True])
              .groupby("grp").head(3))
    got_set = {(r["grp"], r["id"]) for r in per}
    assert got_set == set(zip(want["grp"], want["id"]))
    assert len(per) == len(want)


def test_top_k_grouped_null_keys_one_group():
    """All NULL group keys form ONE partition (SQL PARTITION BY), not a
    group per row."""
    from raycdc.ops import top_k

    t = pa.table({
        "id": pa.array(range(8), pa.int64()),
        "grp": pa.array([None, None, None, None, "a", "a", "b", None], pa.string()),
        "score": pa.array([5, 9, 7, 1, 3, 8, 2, 6], pa.int64()),
    })
    per = top_k(rd.from_arrow(t).repartition(3), "score", 2, tiebreak="id",
                per="grp", num_buckets=4).take_all()
    by_grp = {}
    for r in per:
        by_grp.setdefault(r["grp"], set()).add(r["id"])
    assert by_grp[None] == {1, 2}  # top-2 of the single NULL group (scores 9, 7)
    assert by_grp["a"] == {4, 5} and by_grp["b"] == {6}


def test_asof_join_semantics():
    """Backward as-of join: greatest right time <= left time per key,
    deterministic max-tiebreak among ties, SQL null semantics, stable
    under repartitioning."""
    import numpy as np
    import ray.data as rd

    from raycdc.ops import asof_join

    left = pa.table({
        "eid": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "uid": pa.array([1, 1, 2, 2, None, 3], pa.int64()),
        "ts": pa.array([10, 25, 5, 30, 9, None], pa.int64()),
    })
    right = pa.table({
        "cust": pa.array([1, 1, 1, 2, 2, None], pa.int64()),
        "okey": pa.array([100, 101, 102, 200, 201, 300], pa.int64()),
        "odate": pa.array([5, 20, 20, 6, 40, 1], pa.int64()),
    })

    def run(l, r, **kw):
        out = asof_join(l, r, on_left="ts", on_right="odate",
                        by_left="uid", by_right="cust", tiebreak="okey", **kw)
        t = pa.concat_tables(list(out.iter_batches(batch_size=None, batch_format="pyarrow")))
        return {r_["eid"]: (r_["okey"], r_["odate"]) for r_ in t.to_pylist()}

    got = run(rd.from_arrow(left), rd.from_arrow(right))
    assert got[1] == (100, 5)       # only odate 5 <= 10
    assert got[2] == (102, 20)      # tie at odate 20 -> max okey wins
    assert got[3] == (None, None)   # no order at-or-before
    assert got[4] == (200, 6)       # odate 40 > 30 excluded
    assert got[5] == (None, None)   # null by-key never matches
    assert got[6] == (None, None)   # null left time matches nothing
    # repartitioned inputs give the identical mapping
    got2 = run(rd.from_arrow(left).repartition(4), rd.from_arrow(right).repartition(3))
    assert got == got2
    # inner drops unmatched rows
    out_inner = asof_join(rd.from_arrow(left), rd.from_arrow(right),
                          on_left="ts", on_right="odate", by_left="uid",
                          by_right="cust", tiebreak="okey", how="inner")
    t = pa.concat_tables(list(out_inner.iter_batches(batch_size=None, batch_format="pyarrow")))
    assert sorted(t["eid"].to_pylist()) == [1, 2, 4]


def test_tumbling_window_agg():
    import ray.data as rd

    from raycdc.ops import hopping_window_agg

    us = 1_000_000
    t = pa.table({
        "ts": pa.array([0, 30 * us, 60 * us, 61 * us, 125 * us], pa.int64()).cast(
            pa.timestamp("us")
        ),
        "k": pa.array(["a", "b", "a", "a", "b"]),
        "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
    })
    out = hopping_window_agg(
        rd.from_arrow(t), "ts", 60, 60, keys=["k"],
        specs={"n": ("v", "count"), "s": ("v", "sum")},
    )
    rows = {
        (r["window_start"].timestamp(), r["k"]): (r["n"], r["s"])
        for r in pa.concat_tables(
            list(out.iter_batches(batch_size=None, batch_format="pyarrow"))
        ).to_pylist()
    }
    assert rows == {
        (0.0, "a"): (1, 1), (0.0, "b"): (1, 2),
        (60.0, "a"): (2, 7), (120.0, "b"): (1, 5),
    }


def test_stratified_sample():
    import ray.data as rd

    from raycdc.ops import stratified_sample

    n = 3000
    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(n)] + [None]),
        "lang": pa.array((["en", "fr", "de"] * (n // 3 + 1))[: n + 1]),
    })
    for kernel in ("sip", "md5"):
        a = pa.concat_tables(list(
            stratified_sample(rd.from_arrow(t), "doc_id", "lang",
                              {"en": 0, "fr": 8}, default_sixteenths=2,
                              hash_kernel=kernel)
            .iter_batches(batch_size=None, batch_format="pyarrow")))
        langs = a["lang"].to_pylist()
        assert "en" not in langs  # rate 0 drops everything
        n_fr = langs.count("fr")
        n_de = langs.count("de")
        assert 0.35 < n_fr / 1000 < 0.65, kernel   # ~8/16
        assert 0.05 < n_de / 1000 < 0.22, kernel   # ~2/16 default
        assert None not in a["doc_id"].to_pylist()
        # partitioning independence
        b = pa.concat_tables(list(
            stratified_sample(rd.from_arrow(t).repartition(6), "doc_id", "lang",
                              {"en": 0, "fr": 8}, default_sixteenths=2,
                              hash_kernel=kernel)
            .iter_batches(batch_size=None, batch_format="pyarrow")))
        assert sorted(a["doc_id"].to_pylist()) == sorted(b["doc_id"].to_pylist())
        # a null group takes the default rate (SQL: ELSE of a CASE on the
        # group); a null key is never kept
        ng = pa.table({"doc_id": pa.array(["d1", "d2", None]),
                       "lang": pa.nulls(3, pa.string())})
        for default, want in ((0, []), (16, ["d1", "d2"])):
            got = stratified_sample(rd.from_arrow(ng), "doc_id", "lang", {"en": 16},
                                    default_sixteenths=default, hash_kernel=kernel)
            assert sorted(r["doc_id"] for r in got.take_all()) == want, (kernel, default)


def test_range_join():
    import ray.data as rd

    from raycdc.ops import range_join

    left = pa.table({
        "eid": pa.array([1, 2, 3, 4], pa.int64()),
        "k": pa.array([1, 1, 2, 1], pa.int64()),
        "t": pa.array([5, 15, 5, None], pa.int64()),
    })
    right = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "w": pa.array([10, 11, 12], pa.int64()),
        "lo": pa.array([0, 10, 6], pa.int64()),
        "hi": pa.array([10, 20, 9], pa.int64()),
    })
    out = pa.concat_tables(list(
        range_join(rd.from_arrow(left), rd.from_arrow(right), key="k",
                   on="t", lo="lo", hi="hi")
        .iter_batches(batch_size=None, batch_format="pyarrow")))
    got = sorted((r["eid"], r["w"]) for r in out.to_pylist())
    # eid 1 (t=5) in [0,10] only; eid 2 (t=15) in [10,20] only; eid 3 (t=5,k=2)
    # outside [6,9]; eid 4 has null t -> matches nothing (BETWEEN is false)
    assert got == [(1, 10), (2, 11)]
