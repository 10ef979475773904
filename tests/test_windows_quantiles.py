"""sessionize / hopping_window_agg / grouped_quantile / grouped_nunique
— each checked against DuckDB running the same SQL the driver oracle
uses (scaled-down fixtures, adversarial edges: gap==delta, ts ties,
null keys/values, pre-epoch timestamps)."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from raycdc.ops import (
    grouped_nunique,
    grouped_quantile,
    hopping_window_agg,
    sessionize,
)


def _events(n=4000, seed=7, with_nulls=False):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(0, 900_000_000, n))  # 0..15min gaps, us
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "user_id": pa.array(rng.integers(0, 40, n).astype(np.int64)),
            "ts": pa.array(ts.astype(np.int64)).cast(pa.timestamp("us")),
            "etype": pa.array(rng.choice(["a", "b", "c"], n)),
            "cents": pa.array(rng.integers(-500, 50_000, n).astype(np.int64)),
        }
    )
    if with_nulls:
        mask_k = rng.random(n) < 0.05
        mask_v = rng.random(n) < 0.05
        t = t.set_column(
            1, "user_id", pc.if_else(pa.array(mask_k), pa.nulls(n, pa.int64()), t["user_id"])
        )
        t = t.set_column(
            4, "cents", pc.if_else(pa.array(mask_v), pa.nulls(n, pa.int64()), t["cents"])
        )
    return t


def _duck(t: pa.Table, sql: str):
    con = duckdb.connect()
    con.register("events", t)
    return con.execute(sql).fetch_arrow_table()


def _sorted_pd(tbl: pa.Table):
    df = tbl.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_sessionize_matches_sql_window_oracle():
    t = _events()
    gap_us = 600_000_000  # 10 min
    out = sessionize(
        rd.from_arrow(t).repartition(6),
        key="user_id",
        ts_col="ts",
        gap_s=600,
        order_col="event_id",
        num_buckets=8,
        batch_size=512,
    ).to_pandas()
    want = _duck(
        t,
        f"""
        WITH d AS (
          SELECT user_id, ts, event_id,
                 epoch_us(ts) - lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY ts, event_id) AS delta
          FROM events WHERE user_id IS NOT NULL AND ts IS NOT NULL),
        s AS (
          SELECT user_id, ts,
                 CAST(sum(CASE WHEN delta IS NULL OR delta > {gap_us} THEN 1 ELSE 0 END)
                   OVER (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_no
          FROM d)
        SELECT user_id, session_no, min(ts) AS session_start,
               max(ts) AS session_end, count(*) AS n_events
        FROM s GROUP BY user_id, session_no
        """,
    ).to_pandas()
    got = out.sort_values(["user_id", "session_no"]).reset_index(drop=True)
    want = want.sort_values(["user_id", "session_no"]).reset_index(drop=True)
    assert got.shape == want.shape
    for c in want.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_sessionize_gap_boundary_and_ties():
    # delta == gap stays in-session; delta == gap+1us breaks; ts ties
    # ordered by order_col
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 1, 1, 2], type=pa.int64()),
            "ts": pa.array([0, 10, 10, 20, 31, 5], type=pa.int64()).cast(pa.timestamp("us")),
            "i": pa.array([0, 2, 1, 3, 4, 5], type=pa.int64()),
        }
    )
    out = (
        sessionize(rd.from_arrow(t), "k", "ts", gap_s=10e-6, order_col="i", num_buckets=2)
        .to_pandas()
        .sort_values(["k", "session_no"])
        .reset_index(drop=True)
    )
    # k=1: rows at 0,10,10,20 all within gap-10us chain; 31 is 11us after 20 → new session
    assert out.shape[0] == 3
    r = out.iloc[0]
    assert (r["k"], r["session_no"], r["n_events"]) == (1, 1, 4)
    assert out.iloc[1]["session_no"] == 2 and out.iloc[1]["n_events"] == 1
    assert out.iloc[2]["k"] == 2 and out.iloc[2]["session_no"] == 1


def test_sessionize_drops_null_key_or_ts():
    t = pa.table(
        {
            "k": pa.array([1, None, 1], type=pa.int64()),
            "ts": pa.array([0, 5, None], type=pa.int64()).cast(pa.timestamp("us")),
            "i": pa.array([0, 1, 2], type=pa.int64()),
        }
    )
    out = sessionize(rd.from_arrow(t), "k", "ts", gap_s=1, order_col="i").to_pandas()
    assert out.shape[0] == 1 and out.iloc[0]["n_events"] == 1


def test_hopping_window_matches_generate_series_oracle():
    t = _events(n=3000, seed=11)
    size_us, hop_us = 3_600_000_000, 900_000_000
    out = hopping_window_agg(
        rd.from_arrow(t).repartition(5),
        "ts",
        size_s=3600,
        hop_s=900,
        keys=["etype"],
        specs={"n": ("event_id", "count"), "sum_cents": ("cents", "sum")},
        batch_size=512,
    ).to_pandas()
    want = _duck(
        t,
        f"""
        WITH e AS (SELECT epoch_us(ts) AS us, etype, cents
                   FROM events WHERE ts IS NOT NULL),
             x AS (SELECT us - ((us % {hop_us}) + {hop_us}) % {hop_us} AS w0, etype, cents FROM e),
             w AS (SELECT unnest(generate_series(w0 - {size_us} + {hop_us}, w0, {hop_us})) AS ws,
                          etype, cents FROM x)
        SELECT make_timestamp(ws) AS window_start, etype,
               count(*) AS n, sum(cents) AS sum_cents
        FROM w GROUP BY 1, 2
        """,
    ).to_pandas()
    got = _sorted_pd(pa.Table.from_pandas(out))
    want = _sorted_pd(pa.Table.from_pandas(want))
    assert got.shape == want.shape
    for c in want.columns:
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_hopping_equals_tumbling_when_size_is_hop():
    t = _events(n=1200, seed=3)
    hop = hopping_window_agg(
        rd.from_arrow(t), "ts", size_s=3600, hop_s=3600,
        keys=["etype"], specs={"n": ("event_id", "count")},
    ).to_pandas()
    # plus a NULL-timestamp row: dropped, every other window unchanged
    null_ts = t.slice(0, 1).set_column(2, "ts", pa.nulls(1, pa.timestamp("us")))
    tum = hopping_window_agg(
        rd.from_arrow(pa.concat_tables([t, null_ts])), "ts", 3600, 3600,
        keys=["etype"], specs={"n": ("event_id", "count")},
    ).to_pandas()
    a = hop.sort_values(["window_start", "etype"]).reset_index(drop=True)
    b = tum.sort_values(["window_start", "etype"]).reset_index(drop=True)
    assert a.equals(b)


def test_hopping_pre_epoch_alignment():
    # floored alignment: ts = -1us belongs to windows starting at -hop..0
    t = pa.table(
        {"ts": pa.array([-1, 0], type=pa.int64()).cast(pa.timestamp("us")),
         "x": pa.array([1, 1], type=pa.int64())}
    )
    out = hopping_window_agg(
        rd.from_arrow(t), "ts", size_s=2e-6, hop_s=1e-6, specs={"n": ("x", "count")}
    ).to_pandas()
    starts = sorted(int(v.value) // 1000 for v in out["window_start"])  # .value is ns
    # -1us → w0=-1: windows {-2,-1}; 0 → w0=0: windows {-1,0}
    assert starts == [-2, -1, 0]
    n_by = {int(r["window_start"].value) // 1000: int(r["n"]) for _, r in out.iterrows()}
    assert n_by == {-2: 1, -1: 2, 0: 1}


def test_grouped_quantile_matches_duckdb_quantile_disc():
    t = _events(n=5000, seed=23, with_nulls=True)
    qs = {"p25": 0.25, "p50": 0.5, "p90": 0.9, "p99": 0.99, "p100": 1.0}
    out = grouped_quantile(
        rd.from_arrow(t).repartition(7), "user_id", "cents", qs,
        num_buckets=8, batch_size=333,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT user_id,
               quantile_disc(cents, 0.25) AS p25, quantile_disc(cents, 0.5) AS p50,
               quantile_disc(cents, 0.9) AS p90, quantile_disc(cents, 0.99) AS p99,
               quantile_disc(cents, 1.0) AS p100
        FROM events WHERE cents IS NOT NULL GROUP BY user_id
        """,
    ).to_pandas()
    got = _sorted_pd(pa.Table.from_pandas(out))
    want = _sorted_pd(pa.Table.from_pandas(want))
    assert got.shape == want.shape
    for c in want.columns:
        ga, wa = got[c].to_numpy(), want[c].to_numpy()
        # null-key group: compare with NaN-aware equality
        both_nan = np.asarray(got[c].isna()) & np.asarray(want[c].isna())
        assert ((ga == wa) | both_nan).all(), c


def test_grouped_nunique_matches_count_distinct():
    t = _events(n=6000, seed=31, with_nulls=True)
    out = grouped_nunique(
        rd.from_arrow(t).repartition(6), "etype", "user_id",
        num_buckets=8, batch_size=500,
    ).to_pandas()
    want = _duck(
        t,
        "SELECT etype, count(DISTINCT user_id) AS n_unique FROM events GROUP BY etype",
    ).to_pandas()
    got = out.sort_values("etype").reset_index(drop=True)
    want = want.sort_values("etype").reset_index(drop=True)
    assert (got["etype"].to_numpy() == want["etype"].to_numpy()).all()
    assert (got["n_unique"].to_numpy() == want["n_unique"].to_numpy()).all()


def test_grouped_nunique_approx_within_hll_bounds():
    # two cardinality regimes: small (linear-counting range) and large
    rng = np.random.default_rng(5)
    n = 60_000
    t = pa.table(
        {
            "g": pa.array(np.where(np.arange(n) % 2 == 0, "big", "small")),
            # 'big' rows draw from ~25k ids, 'small' rows from 40
            "v": pa.array(
                np.where(
                    np.arange(n) % 2 == 0,
                    rng.integers(0, 25_000, n),
                    rng.integers(0, 40, n),
                ).astype(np.int64)
            ),
        }
    )
    from raycdc.ops import grouped_nunique_approx

    ds = rd.from_arrow(t).repartition(6)
    got = {
        r["g"]: r["n_unique_approx"]
        for r in grouped_nunique_approx(ds, "g", "v", batch_size=4096).take_all()
    }
    exact = {
        r["g"]: r["n_unique"]
        for r in grouped_nunique(ds, "g", "v", batch_size=4096).take_all()
    }
    for g in ("big", "small"):
        rel = abs(got[g] - exact[g]) / exact[g]
        assert rel < 0.08, (g, got[g], exact[g], rel)  # 3.5σ at m=2048

    # determinism / partitioning-independence: different block layout,
    # identical sketch result
    got2 = {
        r["g"]: r["n_unique_approx"]
        for r in grouped_nunique_approx(
            rd.from_arrow(t).repartition(2), "g", "v", batch_size=50_000
        ).take_all()
    }
    # merge of per-batch maxima is layout-independent by construction
    assert got2 == got


def test_pivot_agg_matches_case_sums():
    t = _events(n=3000, seed=13, with_nulls=True)
    from raycdc.ops import pivot_agg

    out = pivot_agg(
        rd.from_arrow(t).repartition(5), "user_id", "etype",
        values=["a", "b"], other="other", batch_size=400,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT user_id,
               CAST(sum(CASE WHEN etype = 'a' THEN 1 ELSE 0 END) AS BIGINT) AS n_a,
               CAST(sum(CASE WHEN etype = 'b' THEN 1 ELSE 0 END) AS BIGINT) AS n_b,
               CAST(sum(CASE WHEN etype IN ('a','b') THEN 0 ELSE 1 END) AS BIGINT) AS n_other
        FROM events GROUP BY user_id
        """,
    ).to_pandas()
    got = _sorted_pd(pa.Table.from_pandas(out[["user_id", "n_a", "n_b", "n_other"]]))
    want = _sorted_pd(pa.Table.from_pandas(want))
    assert got.shape == want.shape
    for c in want.columns:
        ga, wa = got[c].to_numpy(), want[c].to_numpy()
        both_nan = np.asarray(got[c].isna()) & np.asarray(want[c].isna())
        assert ((ga == wa) | both_nan).all(), c


def test_pivot_agg_sum_and_drop_other():
    t = pa.table(
        {
            "k": pa.array([1, 1, 2, 2], type=pa.int64()),
            "p": pa.array(["x", "y", "x", None]),
            "v": pa.array([10, 20, 30, 40], type=pa.int64()),
        }
    )
    from raycdc.ops import pivot_agg

    out = (
        pivot_agg(rd.from_arrow(t), "k", "p", values=["x"], agg="sum",
                  value_col="v", prefix="sum_", other=None)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert list(out.columns) == ["k", "sum_x"]
    assert out["sum_x"].tolist() == [10, 30]


def test_grouped_quantile_hist_matches_row_shuffle_op():
    # low-cardinality key, repeating integer values — the hist op's case;
    # results must be bit-identical to the row-shuffle op AND DuckDB
    t = _events(n=5000, seed=41, with_nulls=True)
    from raycdc.ops import grouped_quantile_hist

    qs = {"p25": 0.25, "p50": 0.5, "p90": 0.9, "p100": 1.0}
    small = t.set_column(
        4, "cents", pc.divide(t["cents"], 1000)
    )  # quantize to ~50 distinct values so the histogram actually combines
    hist = grouped_quantile_hist(
        rd.from_arrow(small).repartition(6), "etype", "cents", qs, batch_size=400
    ).to_pandas()
    rowq = grouped_quantile(
        rd.from_arrow(small).repartition(6), "etype", "cents", qs, batch_size=400
    ).to_pandas()
    want = _duck(
        small,
        """
        SELECT etype,
               quantile_disc(cents, 0.25) AS p25, quantile_disc(cents, 0.5) AS p50,
               quantile_disc(cents, 0.9) AS p90, quantile_disc(cents, 1.0) AS p100
        FROM events WHERE cents IS NOT NULL GROUP BY etype
        """,
    ).to_pandas()
    for df in (hist, rowq, want):
        df.sort_values("etype", inplace=True)
        df.reset_index(drop=True, inplace=True)
    assert hist.shape == want.shape == rowq.shape
    for c in want.columns:
        assert (hist[c].to_numpy() == want[c].to_numpy()).all(), ("hist", c)
        assert (rowq[c].to_numpy() == hist[c].to_numpy()).all(), ("rowq", c)


def test_grouped_concat_matches_string_agg():
    t = _events(n=3000, seed=53, with_nulls=True)
    from raycdc.ops import grouped_concat

    out = grouped_concat(
        rd.from_arrow(t).repartition(5), "user_id", "etype",
        order_cols=["ts", "event_id"], sep=",", num_buckets=8, batch_size=400,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT user_id,
               string_agg(etype, ',' ORDER BY ts, event_id) AS seq
        FROM events WHERE etype IS NOT NULL
        GROUP BY user_id
        """,
    ).to_pandas()
    got = out.sort_values("user_id").reset_index(drop=True)
    want = want.sort_values("user_id").reset_index(drop=True)
    assert got.shape == want.shape
    kn = np.asarray(got["user_id"].isna()) & np.asarray(want["user_id"].isna())
    assert ((got["user_id"].to_numpy() == want["user_id"].to_numpy()) | kn).all()
    assert (got["seq"].to_numpy() == want["seq"].to_numpy()).all()


def test_asof_join_composite_key():
    # composite (tenant, user) entity key vs a single-key equivalent
    # built by fusing the two columns — results must agree; DuckDB ASOF
    # could check too but the fused single-key path is already oracle-
    # covered, so equivalence is the stronger internal check here
    from raycdc.ops import asof_join

    rng = np.random.default_rng(61)
    n_l, n_r = 1500, 600
    lt = pa.table(
        {
            "tenant": pa.array(rng.integers(0, 3, n_l).astype(np.int64)),
            "user": pa.array(rng.integers(0, 20, n_l).astype(np.int64)),
            "t": pa.array(rng.integers(0, 10_000, n_l).astype(np.int64)),
            "eid": pa.array(np.arange(n_l, dtype=np.int64)),
        }
    )
    rt = pa.table(
        {
            "tn": pa.array(rng.integers(0, 3, n_r).astype(np.int64)),
            "usr": pa.array(rng.integers(0, 20, n_r).astype(np.int64)),
            "rt": pa.array(rng.integers(0, 10_000, n_r).astype(np.int64)),
            "state": pa.array(np.arange(n_r, dtype=np.int64)),
        }
    )
    multi = asof_join(
        rd.from_arrow(lt).repartition(4), rd.from_arrow(rt).repartition(3),
        on_left="t", on_right="rt", by_left=["tenant", "user"],
        by_right=["tn", "usr"], tiebreak="state", num_buckets=8,
    ).to_pandas()

    fuse_l = lt.append_column(
        "fk", pc.add(pc.multiply(lt["tenant"], 1000), lt["user"])
    ).drop_columns(["tenant", "user"])
    fuse_r = rt.append_column(
        "fk", pc.add(pc.multiply(rt["tn"], 1000), rt["usr"])
    ).drop_columns(["tn", "usr"])
    single = asof_join(
        rd.from_arrow(fuse_l).repartition(4), rd.from_arrow(fuse_r).repartition(3),
        on_left="t", on_right="rt", by_left="fk", by_right="fk",
        tiebreak="state", num_buckets=8,
    ).to_pandas()

    m = multi.sort_values("eid").reset_index(drop=True)
    s = single.sort_values("eid").reset_index(drop=True)
    assert m.shape[0] == s.shape[0] == n_l
    for c in ("rt", "state"):
        a, b = m[c].to_numpy(), s[c].to_numpy()
        nn = m[c].isna().to_numpy() & s[c].isna().to_numpy()
        assert ((a == b) | nn).all(), c


def test_grouped_ntile_matches_sql_ntile():
    t = _events(n=3000, seed=71, with_nulls=True)
    from raycdc.ops import grouped_ntile

    out = grouped_ntile(
        rd.from_arrow(t).repartition(5), "user_id",
        order_cols=["cents", "event_id"], n_tiles=4, num_buckets=8, batch_size=400,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id, user_id,
               ntile(4) OVER (PARTITION BY user_id ORDER BY cents, event_id) AS tile
        FROM events
        """,
    ).to_pandas()
    got = out[["event_id", "user_id", "tile"]].sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    assert got.shape == want.shape
    assert (got["tile"].to_numpy() == want["tile"].to_numpy()).all()


def test_grouped_ntile_fewer_rows_than_tiles():
    t = pa.table({"k": pa.array([1, 1], type=pa.int64()),
                  "v": pa.array([5, 3], type=pa.int64())})
    from raycdc.ops import grouped_ntile

    out = (grouped_ntile(rd.from_arrow(t), "k", ["v"], n_tiles=4)
           .to_pandas().sort_values("v").reset_index(drop=True))
    assert out["tile"].tolist() == [1, 2]


def test_hash_join_composite_key():
    from raycdc.ops import hash_join

    lt = pa.table(
        {
            "a": pa.array([1, 1, 2, 2, None], type=pa.int64()),
            "b": pa.array(["x", "y", "x", None, "x"]),
            "lv": pa.array([10, 20, 30, 40, 50], type=pa.int64()),
        }
    )
    rt = pa.table(
        {
            "a": pa.array([1, 2, 1, None], type=pa.int64()),
            "b": pa.array(["x", "x", "x", "x"]),
            "rv": pa.array([100, 200, 300, 400], type=pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    for how, sqlhow in (("inner", "JOIN"), ("left", "LEFT JOIN")):
        out = hash_join(
            rd.from_arrow(lt).repartition(2), rd.from_arrow(rt), ["a", "b"],
            how=how, num_buckets=4,
        ).to_pandas()
        want = con.execute(
            f"SELECT l.a, l.b, l.lv, r.rv FROM l {sqlhow} r ON r.a = l.a AND r.b = l.b"
        ).df()
        got = out.sort_values(["lv", "rv"]).reset_index(drop=True)
        want = want.sort_values(["lv", "rv"]).reset_index(drop=True)
        assert got.shape == want.shape, how
        for c in want.columns:
            nn = got[c].isna().to_numpy() & want[c].isna().to_numpy()
            assert ((got[c].to_numpy() == want[c].to_numpy()) | nn).all(), (how, c)


def test_hash_join_semi_anti():
    from raycdc.ops import hash_join

    lt = pa.table(
        {
            "a": pa.array([1, 1, 2, 3, None], type=pa.int64()),
            "lv": pa.array([10, 20, 30, 40, 50], type=pa.int64()),
        }
    )
    rt = pa.table(
        {
            "a": pa.array([1, 1, 3, None], type=pa.int64()),
            "rv": pa.array([100, 200, 300, 400], type=pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    for how, sql in (
        ("semi", "SELECT a, lv FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.a = l.a)"),
        ("anti", "SELECT a, lv FROM l WHERE NOT EXISTS (SELECT 1 FROM r WHERE r.a = l.a)"),
    ):
        out = hash_join(
            rd.from_arrow(lt).repartition(2), rd.from_arrow(rt), "a",
            how=how, num_buckets=4,
        ).to_pandas()
        want = con.execute(sql).df()
        got = out.sort_values("lv").reset_index(drop=True)
        want = want.sort_values("lv").reset_index(drop=True)
        assert got.shape == want.shape, how
        assert list(got.columns) == ["a", "lv"], how  # no right payload
        for c in want.columns:
            nn = got[c].isna().to_numpy() & want[c].isna().to_numpy()
            assert ((got[c].to_numpy() == want[c].to_numpy()) | nn).all(), (how, c)


def test_grouped_lag_matches_sql_lag():
    t = _events(n=3000, seed=83, with_nulls=True)
    from raycdc.ops import grouped_lag

    for p in (1, 3):
        out = grouped_lag(
            rd.from_arrow(t).repartition(5), "user_id",
            order_cols=["ts", "event_id"], val_col="cents", periods=p,
            num_buckets=8, batch_size=400,
        ).to_pandas()
        want = _duck(
            t,
            f"""
            SELECT event_id,
                   lag(cents, {p}) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
            FROM events
            """,
        ).to_pandas()
        got = out[["event_id", "prev"]].sort_values("event_id").reset_index(drop=True)
        want = want.sort_values("event_id").reset_index(drop=True)
        nn = got["prev"].isna().to_numpy() & want["prev"].isna().to_numpy()
        assert ((got["prev"].to_numpy() == want["prev"].to_numpy()) | nn).all(), p


def test_grouped_cumsum_matches_sql_window_sum():
    """The running total is ``grouped_rolling_agg`` over the unbounded
    frame (``window=None``); min/max/count run over the same frame."""
    t = _events(n=3000, seed=97)
    from raycdc.ops import grouped_rolling_agg

    out = grouped_rolling_agg(
        rd.from_arrow(t).repartition(5), "user_id",
        order_cols=["ts", "event_id"], specs={"running": ("cents", "sum")},
        window=None, num_buckets=8, batch_size=400,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id,
               CAST(sum(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                     ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running
        FROM events
        """,
    ).to_pandas()
    got = out[["event_id", "running"]].sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    assert (got["running"].to_numpy() == want["running"].to_numpy()).all()

    # every other kernel over the unbounded frame, NULL keys and values
    tn = _events(n=2000, seed=98, with_nulls=True)
    out = grouped_rolling_agg(
        rd.from_arrow(tn).repartition(4), "user_id", order_cols=["ts", "event_id"],
        specs={"rmin": ("cents", "min"), "rmax": ("cents", "max"),
               "rcnt": ("cents", "count")},
        window=None, num_buckets=8, batch_size=300,
    ).to_pandas()
    want = _duck(
        tn,
        """
        SELECT event_id, min(cents) OVER w AS rmin, max(cents) OVER w AS rmax,
               CAST(count(cents) OVER w AS BIGINT) AS rcnt
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id ROWS UNBOUNDED PRECEDING)
        """,
    ).to_pandas()
    got = out.sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    for c in ("rmin", "rmax", "rcnt"):
        nn = got[c].isna().to_numpy() & want[c].isna().to_numpy()
        assert ((got[c].to_numpy() == want[c].to_numpy()) | nn).all(), c


def test_grouped_rolling_sum_matches_sql_rows_frame():
    """The ROWS-frame rolling sum is ``grouped_rolling_agg``'s sum kernel."""
    t = _events(n=3000, seed=131)
    from raycdc.ops import grouped_rolling_agg

    out = grouped_rolling_agg(
        rd.from_arrow(t).repartition(5), "user_id",
        order_cols=["ts", "event_id"], specs={"rolling": ("cents", "sum")}, window=4,
        num_buckets=8, batch_size=400,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id,
               CAST(sum(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                     ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
                    AS BIGINT) AS rolling
        FROM events
        """,
    ).to_pandas()
    got = out[["event_id", "rolling"]].sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    assert (got["rolling"].to_numpy() == want["rolling"].to_numpy()).all()

    # window=1 degenerates to the value itself
    w1 = grouped_rolling_agg(
        rd.from_arrow(t), "user_id", order_cols=["ts", "event_id"],
        specs={"rolling": ("cents", "sum")}, window=1, num_buckets=4,
    ).to_pandas().sort_values("event_id")
    assert (w1["rolling"].to_numpy() == w1["cents"].to_numpy()).all()


def test_rollup_agg_matches_sql_rollup():
    t = _events(n=3000, seed=211)
    from raycdc.ops import rollup_agg

    out = rollup_agg(
        rd.from_arrow(t).repartition(5),
        ["etype", "user_id"],
        {"n": ("cents", "count"), "s": ("cents", "sum"), "mx": ("cents", "max")},
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT etype, user_id,
               CAST(count(*) AS BIGINT) AS n,
               CAST(sum(cents) AS BIGINT) AS s,
               CAST(max(cents) AS BIGINT) AS mx,
               CAST(GROUPING(etype) + GROUPING(user_id) AS INTEGER) AS lvl
        FROM events
        GROUP BY ROLLUP(etype, user_id)
        """,
    ).to_pandas()
    cols = ["etype", "user_id", "n", "s", "mx", "lvl"]
    key = ["lvl", "etype", "user_id"]
    got = out[cols].sort_values(key).reset_index(drop=True)
    want = want[cols].sort_values(key).reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))

    # single-key rollup: finest + grand total only
    one = rollup_agg(rd.from_arrow(t), ["etype"], {"n": ("cents", "count")}).to_pandas()
    assert len(one) == len(pc.unique(t.column("etype"))) + 1
    assert one.loc[one["lvl"] == 1, "n"].iloc[0] == len(t)


def test_hash_join_right_full_outer():
    from raycdc.ops import hash_join

    lt = pa.table(
        {
            "a": pa.array([1, 1, 2, 4, None], type=pa.int64()),
            "lv": pa.array([10, 20, 30, 40, 50], type=pa.int64()),
        }
    )
    rt = pa.table(
        {
            "a": pa.array([1, 3, 3, None], type=pa.int64()),
            "rv": pa.array([100, 200, 300, 400], type=pa.int64()),
        }
    )
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    for how, sqlhow in (("right", "RIGHT JOIN"), ("full", "FULL OUTER JOIN")):
        out = hash_join(
            rd.from_arrow(lt).repartition(2), rd.from_arrow(rt), "a",
            how=how, num_buckets=4,
        ).to_pandas()
        # hash_join coalesces the key across sides; mirror that in SQL
        want = con.execute(
            f"SELECT COALESCE(l.a, r.a) AS a, l.lv, r.rv FROM l {sqlhow} r ON r.a = l.a"
        ).df()
        key = ["a", "lv", "rv"]
        got = out.sort_values(key, na_position="last").reset_index(drop=True)
        want = want.sort_values(key, na_position="last").reset_index(drop=True)
        assert got.shape == want.shape, (how, got, want)
        for c in want.columns:
            nn = got[c].isna().to_numpy() & want[c].isna().to_numpy()
            assert ((got[c].to_numpy() == want[c].to_numpy()) | nn).all(), (how, c)


def test_cube_agg_matches_sql_cube():
    t = _events(n=2500, seed=307)
    from raycdc.ops import cube_agg

    out = cube_agg(
        rd.from_arrow(t).repartition(4),
        ["etype", "user_id"],
        {"n": ("cents", "count"), "s": ("cents", "sum")},
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT etype, user_id,
               CAST(count(*) AS BIGINT) AS n,
               CAST(sum(cents) AS BIGINT) AS s,
               CAST(GROUPING(etype, user_id) AS INTEGER) AS lvl
        FROM events GROUP BY CUBE(etype, user_id)
        """,
    ).to_pandas()
    cols = ["etype", "user_id", "n", "s", "lvl"]
    key = ["lvl", "etype", "user_id"]
    got = out[cols].sort_values(key).reset_index(drop=True)
    want = want[cols].sort_values(key).reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))


def test_grouping_sets_agg_matches_sql():
    t = _events(n=2000, seed=401)
    from raycdc.ops import grouping_sets_agg

    out = grouping_sets_agg(
        rd.from_arrow(t).repartition(3),
        ["etype", "user_id"],
        [["etype"], ["user_id"], []],
        {"mx": ("cents", "max"), "n": ("cents", "count")},
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT etype, user_id,
               CAST(max(cents) AS BIGINT) AS mx,
               CAST(count(*) AS BIGINT) AS n,
               CAST(GROUPING(etype, user_id) AS INTEGER) AS lvl
        FROM events GROUP BY GROUPING SETS ((etype), (user_id), ())
        """,
    ).to_pandas()
    cols = ["etype", "user_id", "mx", "n", "lvl"]
    key = ["lvl", "etype", "user_id"]
    got = out[cols].sort_values(key).reset_index(drop=True)
    want = want[cols].sort_values(key).reset_index(drop=True)
    assert got.equals(want.astype(got.dtypes.to_dict()))


def test_grouped_rank_matches_sql_rank_family():
    t = _events(n=3000, seed=503, with_nulls=True)
    # coarse tie column so RANK/DENSE_RANK ties actually occur
    t = t.append_column("coarse", pc.multiply(pc.divide(t["cents"], 1000), 1000))
    from raycdc.ops import grouped_rank

    out = grouped_rank(
        rd.from_arrow(t).repartition(5), "user_id",
        order_cols=["coarse", "event_id"], tie_cols=["coarse"],
        num_buckets=8, batch_size=400,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id,
               row_number() OVER (PARTITION BY user_id ORDER BY coarse, event_id) AS rn,
               rank()       OVER (PARTITION BY user_id ORDER BY coarse) AS rnk,
               dense_rank() OVER (PARTITION BY user_id ORDER BY coarse) AS drnk
        FROM events
        """,
    ).to_pandas()
    got = out[["event_id", "rn", "rnk", "drnk"]].sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    for c in ("rn", "rnk", "drnk"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_unpivot_matches_sql_union_all():
    t = _events(n=800, seed=601)
    from raycdc.ops import unpivot

    out = unpivot(
        rd.from_arrow(t).repartition(3),
        id_cols=["event_id"], value_cols=["user_id", "cents"],
        val_type=pa.int64(),
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id, 'user_id' AS name, user_id AS value FROM events
        UNION ALL
        SELECT event_id, 'cents' AS name, cents AS value FROM events
        """,
    ).to_pandas()
    key = ["event_id", "name"]
    got = out.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got.shape == want.shape
    assert (got["value"].to_numpy() == want["value"].to_numpy()).all()


def test_moment_agg_matches_duckdb_stats():
    t = _events(n=4000, seed=701, with_nulls=True)
    from raycdc.ops import moment_agg

    out = moment_agg(
        rd.from_arrow(t).repartition(6), "etype",
        {
            "m": ("cents", "mean"),
            "vp": ("cents", "var_pop"),
            "vs": ("cents", "var_samp"),
            "sp": ("cents", "std_pop"),
            "ss": ("cents", "std_samp"),
            "cv": ("cents", "user_id", "covar_pop"),
            "cr": ("cents", "user_id", "corr"),
        },
        batch_size=300,
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    want = _duck(
        t,
        """
        SELECT etype, avg(cents) AS m, var_pop(cents) AS vp, var_samp(cents) AS vs,
               stddev_pop(cents) AS sp, stddev_samp(cents) AS ss,
               covar_pop(cents, user_id) AS cv, corr(cents, user_id) AS cr
        FROM events GROUP BY etype
        """,
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    assert (out["etype"] == want["etype"]).all()
    for c in ("m", "vp", "vs", "sp", "ss", "cv", "cr"):
        assert np.allclose(out[c].to_numpy(), want[c].to_numpy(), rtol=1e-9), c

    # degenerate groups: all-null values -> NULL; single row -> samp NULL
    t2 = pa.table(
        {
            "k": pa.array(["a", "a", "b", "c"]),
            "v": pa.array([None, None, 7, 1], type=pa.int64()),
            "w": pa.array([1, 2, 3, None], type=pa.int64()),
        }
    )
    o2 = moment_agg(
        rd.from_arrow(t2), "k",
        {"m": ("v", "mean"), "vs": ("v", "var_samp"), "cr": ("v", "w", "corr")},
    ).to_pandas().set_index("k")
    assert np.isnan(o2.loc["a", "m"]) and np.isnan(o2.loc["a", "vs"])
    assert o2.loc["b", "m"] == 7 and np.isnan(o2.loc["b", "vs"])
    assert np.isnan(o2.loc["c", "cr"])  # w null -> no pair rows


def test_grouped_lead_matches_sql_lead():
    """LEAD is ``grouped_lag`` with a negative ``periods``."""
    import pytest

    t = _events(n=2500, seed=811, with_nulls=True)
    from raycdc.ops import grouped_lag

    with pytest.raises(ValueError, match="non-zero"):
        grouped_lag(rd.from_arrow(t), "user_id", ["ts"], "cents", periods=0)
    for p in (1, 3):
        out = grouped_lag(
            rd.from_arrow(t).repartition(4), "user_id",
            order_cols=["ts", "event_id"], val_col="cents", periods=-p,
            out_col="next", num_buckets=8, batch_size=350,
        ).to_pandas()
        want = _duck(
            t,
            f"""
            SELECT event_id,
                   lead(cents, {p}) OVER (PARTITION BY user_id
                                          ORDER BY ts, event_id) AS next
            FROM events
            """,
        ).to_pandas()
        got = out[["event_id", "next"]].sort_values("event_id").reset_index(drop=True)
        want = want.sort_values("event_id").reset_index(drop=True)
        nn = got["next"].isna().to_numpy() & want["next"].isna().to_numpy()
        assert ((got["next"].to_numpy() == want["next"].to_numpy()) | nn).all(), p


def test_grouped_first_last_matches_sql():
    t = _events(n=2000, seed=907, with_nulls=True)
    from raycdc.ops import grouped_first_last

    out = grouped_first_last(
        rd.from_arrow(t).repartition(3), "user_id",
        order_cols=["ts", "event_id"], val_col="cents",
        num_buckets=8, batch_size=300,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id,
               first_value(cents) OVER w AS first_val,
               last_value(cents)  OVER w AS last_val
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
        """,
    ).to_pandas()
    got = out.sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    for c in ("first_val", "last_val"):
        nn = got[c].isna().to_numpy() & want[c].isna().to_numpy()
        assert ((got[c].to_numpy() == want[c].to_numpy()) | nn).all(), c


def test_grouped_rank_percent_rank_cume_dist():
    t = _events(n=2500, seed=1009, with_nulls=True)
    t = t.append_column("coarse", pc.multiply(pc.divide(t["cents"], 2000), 2000))
    from raycdc.ops import grouped_rank

    out = grouped_rank(
        rd.from_arrow(t).repartition(4), "user_id",
        order_cols=["coarse", "event_id"], tie_cols=["coarse"],
        rn_col=None, rank_col=None, dense_col=None,
        pr_col="pr", cd_col="cd", num_buckets=8, batch_size=350,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id,
               percent_rank() OVER (PARTITION BY user_id ORDER BY coarse) AS pr,
               cume_dist()    OVER (PARTITION BY user_id ORDER BY coarse) AS cd
        FROM events
        """,
    ).to_pandas()
    got = out[["event_id", "pr", "cd"]].sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    for c in ("pr", "cd"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c  # bit-exact

    # single-row key: percent_rank 0.0, cume_dist 1.0
    t1 = pa.table({"k": pa.array([9], pa.int64()), "v": pa.array([1], pa.int64())})
    o1 = grouped_rank(
        rd.from_arrow(t1), "k", order_cols=["v"], pr_col="pr", cd_col="cd"
    ).to_pandas()
    assert o1["pr"].iloc[0] == 0.0 and o1["cd"].iloc[0] == 1.0


def test_grouped_quantile_cont_matches_duckdb_bitwise():
    t = _events(n=5000, seed=1103, with_nulls=True)
    from raycdc.ops import grouped_quantile_cont

    out = grouped_quantile_cont(
        rd.from_arrow(t).repartition(7), "user_id", "cents",
        {"p25": 0.25, "p50": 0.5, "p90": 0.9, "p99": 0.99, "p0": 0.0, "p100": 1.0},
        num_buckets=8, batch_size=333,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT user_id,
               quantile_cont(cents, 0.25) AS p25, quantile_cont(cents, 0.5) AS p50,
               quantile_cont(cents, 0.9) AS p90, quantile_cont(cents, 0.99) AS p99,
               quantile_cont(cents, 0.0) AS p0, quantile_cont(cents, 1.0) AS p100
        FROM events WHERE cents IS NOT NULL GROUP BY user_id
        """,
    ).to_pandas()
    got = out.sort_values("user_id", na_position="last").reset_index(drop=True)
    want = want.sort_values("user_id", na_position="last").reset_index(drop=True)
    assert got.shape == want.shape
    for c in ("p25", "p50", "p90", "p99", "p0", "p100"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c  # bit-exact

    # single-value key: every quantile is that value
    t1 = pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([42], pa.int64())})
    o1 = grouped_quantile_cont(rd.from_arrow(t1), "k", "v", {"p50": 0.5}).to_pandas()
    assert o1["p50"].iloc[0] == 42.0


def test_set_op_matches_sql_set_operations():
    rng = np.random.default_rng(1201)
    mk = lambda n, seed_off: pa.table(
        {
            "a": pa.array(
                np.where(rng.random(n) < 0.05, None, rng.integers(0, 30, n)),
                type=pa.int64(),
            ),
            "b": pa.array(rng.choice(["x", "y", None], n)),
        }
    )
    lt, rt = mk(400, 0), mk(300, 1)
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    from raycdc.ops import set_op

    for how, sqlop in (("intersect", "INTERSECT"), ("except", "EXCEPT"), ("union", "UNION")):
        out = set_op(
            rd.from_arrow(lt).repartition(3), rd.from_arrow(rt).repartition(2),
            how, num_buckets=4,
        ).to_pandas()
        want = con.execute(f"SELECT a, b FROM l {sqlop} SELECT a, b FROM r").df()
        key = ["a", "b"]
        got = out.sort_values(key, na_position="last").reset_index(drop=True)
        want = want.sort_values(key, na_position="last").reset_index(drop=True)
        assert got.shape == want.shape, (how, got.shape, want.shape)
        for c in key:
            nn = got[c].isna().to_numpy() & want[c].isna().to_numpy()
            assert ((got[c].to_numpy() == want[c].to_numpy()) | nn).all(), (how, c)


def test_distinct_rows_matches_sql_distinct():
    """Nulls in a mixed string/int key: pyarrow 16's multi-key group_by
    returns duplicate groups on such data, so DuckDB is the reference."""
    from raycdc.ops import distinct_rows

    rng = np.random.default_rng(1202)
    n = 300
    base = pa.table(
        {
            "a": pa.array(np.where(rng.random(n) < 0.1, None, rng.integers(0, 12, n)),
                          type=pa.int64()),
            "b": pa.array(rng.choice(["x", "y", "ü", None], n)),
            "c": pa.array(np.where(rng.random(n) < 0.1, None, rng.integers(0, 3, n)),
                          type=pa.int64()),
        }
    )
    # every row three times, shuffled, so duplicates land in different blocks
    t = pa.concat_tables([base] * 3).take(pa.array(rng.permutation(3 * n)))
    cols = ["a", "b", "c"]
    got = pa.concat_tables(
        distinct_rows(rd.from_arrow(t).repartition(3), cols, num_buckets=4)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    want = _duck(t, "SELECT DISTINCT a, b, c FROM events")
    order = [(c, "ascending") for c in cols]

    def canon(x):
        return x.select(cols).take(pc.sort_indices(x, sort_keys=order, null_placement="at_end"))

    assert got.num_rows == want.num_rows < n
    assert canon(got).equals(canon(want))


def test_grouped_nunique_null_string_key():
    t = pa.table(
        {
            "k": pa.array(np.random.default_rng(1203).choice(["a", "ü", None], 3000)),
            "v": pa.array(np.arange(3000) % 40, pa.int64()),
        }
    )
    out = grouped_nunique(rd.from_arrow(t).repartition(3), "k", "v", num_buckets=4)
    df = out.to_pandas()
    got = dict(zip(df["k"], df["n_unique"]))
    want = _duck(t, "SELECT k, count(DISTINCT v) AS n FROM events GROUP BY k")
    assert got == dict(zip(want["k"].to_pylist(), want["n"].to_pylist()))


def test_weighted_sample_kernels_and_rates():
    from raycdc.ops import weighted_sample

    n = 8000
    rng = np.random.default_rng(1301)
    t = pa.table(
        {
            "k": pa.array([f"doc{i}" for i in range(n)]),
            "w": pa.array(rng.integers(0, 17, n).astype(np.int64)),
        }
    )
    for kern in ("sip", "md5"):
        out = weighted_sample(
            rd.from_arrow(t).repartition(4), "k", "w", hash_kernel=kern
        ).to_pandas()
        # replay-stable: second run identical row set
        out2 = weighted_sample(rd.from_arrow(t), "k", "w", hash_kernel=kern).to_pandas()
        assert sorted(out["k"]) == sorted(out2["k"]), kern
        # rate tracks weight/16 (binomial tolerance)
        got_rate = len(out) / n
        exp_rate = float(np.mean(np.minimum(t["w"].to_numpy(), 16) / 16))
        assert abs(got_rate - exp_rate) < 0.03, (kern, got_rate, exp_rate)
        # w=0 rows never kept; w=16 rows always kept
        df = t.to_pandas().merge(out, on="k", how="left", indicator=True)
        kept = (df["_merge"] == "both").to_numpy()
        assert not kept[df["w_x"].to_numpy() == 0].any(), kern
        assert kept[df["w_x"].to_numpy() == 16].all(), kern

    # md5 kernel matches DuckDB's expression verbatim
    out = weighted_sample(rd.from_arrow(t), "k", "w", hash_kernel="md5").to_pandas()
    want = _duck(
        t.rename_columns(["k", "w"]),
        """
        SELECT k FROM events
        WHERE strpos('0123456789abcdef', substr(md5(k), 1, 1)) - 1 < w
        """,
    ).to_pandas()
    assert sorted(out["k"]) == sorted(want["k"])

    # a null key or a null weight is never kept, under either kernel
    nulls = pa.table({"k": pa.array([None, "doc1", None]),
                      "w": pa.array([16, None, None], pa.int64())})
    for kern in ("sip", "md5"):
        assert weighted_sample(rd.from_arrow(nulls), "k", "w", hash_kernel=kern).count() == 0, kern


def test_grouped_mode_matches_sql_count_window():
    t = _events(n=3000, seed=1409, with_nulls=True)
    # coarse values so real ties occur
    t = t.append_column("v", pc.divide(t["cents"], 10000))
    from raycdc.ops import grouped_mode

    out = grouped_mode(
        rd.from_arrow(t).repartition(5), "user_id", "v", n_col="n",
        num_buckets=8, batch_size=400,
    ).to_pandas()
    want = _duck(
        t,
        """
        WITH c AS (SELECT user_id, v, CAST(count(*) AS BIGINT) AS n
                   FROM events WHERE v IS NOT NULL GROUP BY user_id, v),
             r AS (SELECT *, row_number() OVER (PARTITION BY user_id
                                                ORDER BY n DESC, v) AS rn
                   FROM c)
        SELECT user_id, v AS mode, n FROM r WHERE rn = 1
        """,
    ).to_pandas()
    got = out.sort_values("user_id", na_position="last").reset_index(drop=True)
    want = want.sort_values("user_id", na_position="last").reset_index(drop=True)
    assert got.shape == want.shape
    for c in ("mode", "n"):
        nn = got[c].isna().to_numpy() & want[c].isna().to_numpy() if got[c].isna().any() else np.zeros(len(got), bool)
        assert ((got[c].to_numpy() == want[c].to_numpy()) | nn).all(), c


def test_grouped_rolling_agg_matches_sql_rows_frame():
    t = _events(n=2500, seed=1601, with_nulls=True)
    from raycdc.ops import grouped_rolling_agg

    out = grouped_rolling_agg(
        rd.from_arrow(t).repartition(4), "user_id",
        order_cols=["ts", "event_id"],
        specs={
            "rsum": ("cents", "sum"),
            "rcnt": ("cents", "count"),
            "rmean": ("cents", "mean"),
            "rmin": ("cents", "min"),
            "rmax": ("cents", "max"),
        },
        window=4, num_buckets=8, batch_size=350,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id,
               CAST(coalesce(sum(cents) OVER w, 0) AS BIGINT) AS rsum,
               CAST(count(cents) OVER w AS BIGINT) AS rcnt,
               CAST(sum(cents) OVER w AS DOUBLE) / count(cents) OVER w AS rmean,
               min(cents) OVER w AS rmin,
               max(cents) OVER w AS rmax
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)
        """,
    ).to_pandas()
    got = out.sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    for c in ("rsum", "rcnt", "rmean", "rmin", "rmax"):
        a, b = got[c].to_numpy(), want[c].to_numpy()
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            nn = np.isnan(a.astype(float)) & np.isnan(b.astype(float))
            assert ((a == b) | nn).all(), c
        else:
            assert (a == b).all(), c


def test_bloom_semi_filter_no_false_negatives_and_low_fp():
    from raycdc.ops import bloom_build, bloom_semi_filter, hash_join

    n_r, n_l = 3000, 12000
    rng = np.random.default_rng(1701)
    rt = pa.table({"k": pa.array([f"in{i}" for i in range(n_r)])})
    # half the left keys match, half definitely don't
    lks = [f"in{i}" for i in rng.integers(0, n_r, n_l // 2)] + [
        f"out{i}" for i in range(n_l // 2)
    ]
    lt = pa.table({"k": pa.array(lks), "v": pa.array(np.arange(n_l, dtype=np.int64))})

    bm = bloom_build(rd.from_arrow(rt).repartition(3), "k", num_bits=1 << 16)
    filtered = bloom_semi_filter(rd.from_arrow(lt).repartition(4), "k", bm).to_pandas()

    # no false negatives: every true match survives
    true_match = {k for k in lks if k.startswith("in")}
    got = set(filtered["k"])
    assert true_match <= got
    # false positives bounded: 2^16 bits / 3000 keys ≈ 21.8 bits/key → FP << 5%
    fp = len(got - true_match)
    assert fp / (n_l // 2) < 0.05, fp

    # composed with the exact join it is EXACTLY the semi join
    exact = hash_join(
        rd.from_arrow(lt), rd.from_arrow(rt), "k", how="semi"
    ).to_pandas()
    composed = hash_join(
        bloom_semi_filter(rd.from_arrow(lt), "k", bm),
        rd.from_arrow(rt), "k", how="semi",
    ).to_pandas()
    assert sorted(composed["v"]) == sorted(exact["v"])


def test_unnest_list_matches_sql_unnest():
    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "xs": pa.array([[10, 20], [], None, [30]], pa.list_(pa.int64())),
            "tag": pa.array(["a", "b", "c", "d"]),
        }
    )
    from raycdc.ops import unnest_list

    out = unnest_list(
        rd.from_arrow(t).repartition(2), "xs", out_col="x", index_col="i"
    ).to_pandas().sort_values(["id", "i"]).reset_index(drop=True)
    want = _duck(
        t,
        """
        SELECT id, tag, unnest(xs) AS x,
               generate_subscripts(xs, 1) - 1 AS i
        FROM events
        """,
    ).to_pandas().sort_values(["id", "i"]).reset_index(drop=True)
    assert out.shape[0] == want.shape[0] == 3
    for c in ("id", "tag", "x", "i"):
        assert (out[c].to_numpy() == want[c].to_numpy()).all(), c


def test_grouped_array_agg_matches_sql_list():
    t = _events(n=1500, seed=1907, with_nulls=True)
    from raycdc.ops import grouped_array_agg, unnest_list

    out = grouped_array_agg(
        rd.from_arrow(t).repartition(3), "user_id", "cents",
        order_cols=["ts", "event_id"], num_buckets=8, batch_size=300,
    )
    # verify via round-trip: unnest the arrays and compare the flat rows
    flat = unnest_list(out, "vals", out_col="cents", index_col="i").to_pandas()
    want = _duck(
        t,
        """
        SELECT user_id, cents,
               CAST(row_number() OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS BIGINT) - 1 AS i
        FROM events WHERE cents IS NOT NULL
        """,
    ).to_pandas()
    key = ["user_id", "i"]
    got = flat.sort_values(key, na_position="last").reset_index(drop=True)
    want = want.sort_values(key, na_position="last").reset_index(drop=True)
    assert got.shape[0] == want.shape[0]
    nn = got["user_id"].isna().to_numpy() & want["user_id"].isna().to_numpy()
    assert ((got["user_id"].to_numpy() == want["user_id"].to_numpy()) | nn).all()
    assert (got["cents"].to_numpy() == want["cents"].to_numpy()).all()


def test_grouped_rank_descending_matches_sql():
    t = _events(n=2000, seed=2003)
    t = t.append_column("coarse", pc.multiply(pc.divide(t["cents"], 2000), 2000))
    from raycdc.ops import grouped_rank

    out = grouped_rank(
        rd.from_arrow(t).repartition(4), "user_id",
        order_cols=["coarse", "event_id"], tie_cols=["coarse"],
        descending=[True, False], pr_col="pr", num_buckets=8, batch_size=300,
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT event_id,
               row_number() OVER (PARTITION BY user_id
                                  ORDER BY coarse DESC, event_id) AS rn,
               rank()       OVER (PARTITION BY user_id ORDER BY coarse DESC) AS rnk,
               dense_rank() OVER (PARTITION BY user_id ORDER BY coarse DESC) AS drnk,
               percent_rank() OVER (PARTITION BY user_id ORDER BY coarse DESC) AS pr
        FROM events
        """,
    ).to_pandas()
    got = out.sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    for c in ("rn", "rnk", "drnk", "pr"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_grouped_range_rolling_matches_sql_range_frame():
    t = _events(n=2500, seed=2111, with_nulls=True)
    # duplicate some timestamps so RANGE-peer semantics actually bite
    ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False).copy()
    ts[1::7] = ts[0::7][: len(ts[1::7])]
    t = t.set_column(2, "ts", pa.array(ts).cast(pa.timestamp("us")))
    from raycdc.ops import grouped_range_rolling

    delta_us = 3_600_000_000  # 1h
    # ts as integer microseconds (RANGE frames need a numeric ORDER BY)
    t2 = t.append_column("us", pc.cast(t["ts"], pa.int64()))
    out = grouped_range_rolling(
        rd.from_arrow(t2).repartition(4), "user_id", "us",
        specs={"rsum": ("cents", "sum"), "rcnt": ("cents", "count"),
               "rmean": ("cents", "mean")},
        range_delta=delta_us, num_buckets=8, batch_size=350,
    ).to_pandas()
    want = _duck(
        t2,
        f"""
        SELECT event_id,
               CAST(coalesce(sum(cents) OVER w, 0) AS BIGINT) AS rsum,
               CAST(count(cents) OVER w AS BIGINT) AS rcnt,
               CAST(sum(cents) OVER w AS DOUBLE) / count(cents) OVER w AS rmean
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY us
                     RANGE BETWEEN {delta_us} PRECEDING AND CURRENT ROW)
        """,
    ).to_pandas()
    # engine drops NULL-ts rows; oracle keeps them — align on shared rows
    got = out.sort_values("event_id").reset_index(drop=True)
    want = want[want["event_id"].isin(set(got["event_id"]))].sort_values(
        "event_id"
    ).reset_index(drop=True)
    assert got.shape[0] == want.shape[0]
    for c in ("rsum", "rcnt", "rmean"):
        a, b = got[c].to_numpy(), want[c].to_numpy()
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            nn = np.isnan(a.astype(float)) & np.isnan(b.astype(float))
            assert ((a == b) | nn).all(), c
        else:
            assert (a == b).all(), c


def test_histogram_agg_matches_sql_floor_binning():
    t = _events(n=4000, seed=2203, with_nulls=True)
    from raycdc.ops import histogram_agg

    out = histogram_agg(
        rd.from_arrow(t).repartition(5), "cents", lo=0, hi=50_000, nbins=20,
        key="etype", batch_size=400,
    ).to_pandas()
    want = _duck(
        t,
        """
        WITH b AS (SELECT etype,
                          least(19, greatest(0,
                            (cents - 0) * 20 // (50000 - 0))) AS bin
                   FROM events WHERE cents IS NOT NULL)
        SELECT etype, bin, CAST(count(*) AS BIGINT) AS n
        FROM b GROUP BY etype, bin
        """,
    ).to_pandas()
    key = ["etype", "bin"]
    got = out.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got.shape == want.shape
    for c in ("etype", "bin", "n"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_profile_columns_matches_sql_profile():
    t = _events(n=3000, seed=2309, with_nulls=True)
    from raycdc.ops import profile_columns

    out = profile_columns(
        rd.from_arrow(t).repartition(4), ["user_id", "etype", "cents"]
    ).to_pandas()
    want = _duck(
        t,
        """
        SELECT 'user_id' AS column, CAST(count(*) AS BIGINT) AS n_rows,
               CAST(sum(CASE WHEN user_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_null,
               CAST(min(user_id) AS VARCHAR) AS min, CAST(max(user_id) AS VARCHAR) AS max,
               CAST(count(DISTINCT user_id) AS BIGINT) AS n_distinct
        FROM events
        UNION ALL
        SELECT 'etype', count(*),
               CAST(sum(CASE WHEN etype IS NULL THEN 1 ELSE 0 END) AS BIGINT),
               min(etype), max(etype), count(DISTINCT etype) FROM events
        UNION ALL
        SELECT 'cents', count(*),
               CAST(sum(CASE WHEN cents IS NULL THEN 1 ELSE 0 END) AS BIGINT),
               CAST(min(cents) AS VARCHAR), CAST(max(cents) AS VARCHAR),
               count(DISTINCT cents) FROM events
        """,
    ).to_pandas()
    got = out.sort_values("column").reset_index(drop=True)
    want = want.sort_values("column").reset_index(drop=True)
    assert got.shape == want.shape
    for c in ("column", "n_rows", "n_null", "min", "max", "n_distinct"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), (c, got, want)


def test_grouped_zscore_matches_sql_bitwise():
    t = _events(n=3000, seed=2411, with_nulls=True)
    from raycdc.ops import grouped_zscore

    out = grouped_zscore(
        rd.from_arrow(t).repartition(4), "user_id", "cents",
        num_buckets=8, batch_size=350,
    ).to_pandas()
    want = _duck(
        t,
        """
        WITH c AS (SELECT event_id, user_id, cents FROM events),
             s AS (SELECT user_id,
                          CAST(count(cents) AS DOUBLE) AS n,
                          CAST(sum(cents) AS DOUBLE) AS s,
                          CAST(sum(cents * cents) AS DOUBLE) AS q
                   FROM c GROUP BY user_id)
        SELECT event_id,
               CASE WHEN cents IS NULL OR (q - s * (s / n)) / n <= 0 THEN NULL
                    ELSE (cents - s / n) / sqrt((q - s * (s / n)) / n)
               END AS z
        FROM c LEFT JOIN s ON s.user_id IS NOT DISTINCT FROM c.user_id
        """,
    ).to_pandas()
    got = out[["event_id", "z"]].sort_values("event_id").reset_index(drop=True)
    want = want.sort_values("event_id").reset_index(drop=True)
    a, b = got["z"].to_numpy(), want["z"].to_numpy()
    nn = np.isnan(a) & np.isnan(b)
    assert ((a == b) | nn).all()  # bit-exact

    # zero-variance group -> NULL
    t1 = pa.table({"k": pa.array([1, 1], pa.int64()), "v": pa.array([7, 7], pa.int64())})
    o1 = grouped_zscore(rd.from_arrow(t1), "k", "v").to_pandas()
    assert o1["z"].isna().all()


def test_funnel_steps_matches_sql_min_chain():
    t = _events(n=3000, seed=2503)
    t = t.append_column("us", pc.cast(t["ts"], pa.int64()))
    from raycdc.ops import funnel_steps

    win = 50_000_000_000  # wide window in us
    out = funnel_steps(
        rd.from_arrow(t).repartition(4), "user_id", "us", "etype",
        steps=["a", "b", "c"], window=win, num_buckets=8, batch_size=350,
    ).to_pandas()
    want = _duck(
        t.append_column("usx", pc.cast(t["ts"], pa.int64())),
        f"""
        WITH e AS (SELECT user_id, usx AS us, etype FROM events),
        t1 AS (SELECT user_id, min(us) AS ts1 FROM e WHERE etype = 'a'
               GROUP BY user_id),
        t2 AS (SELECT e.user_id, min(e.us) AS ts2 FROM e JOIN t1 USING (user_id)
               WHERE etype = 'b' AND e.us > ts1 AND e.us <= ts1 + {win}
               GROUP BY e.user_id),
        t3 AS (SELECT e.user_id, min(e.us) AS ts3
               FROM e JOIN t1 USING (user_id) JOIN t2 USING (user_id)
               WHERE etype = 'c' AND e.us > ts2 AND e.us <= ts1 + {win}
               GROUP BY e.user_id)
        SELECT u.user_id,
               CASE WHEN ts3 IS NOT NULL THEN 3
                    WHEN ts2 IS NOT NULL THEN 2
                    WHEN ts1 IS NOT NULL THEN 1 ELSE 0 END AS steps_reached
        FROM (SELECT DISTINCT user_id FROM e) u
        LEFT JOIN t1 USING (user_id) LEFT JOIN t2 USING (user_id)
        LEFT JOIN t3 USING (user_id)
        """,
    ).to_pandas()
    got = out.sort_values("user_id").reset_index(drop=True)
    want = want.sort_values("user_id").reset_index(drop=True)
    assert got.shape == want.shape
    assert (got["steps_reached"].to_numpy() == want["steps_reached"].to_numpy()).all()
    assert (got["user_id"].to_numpy() == want["user_id"].to_numpy()).all()

    # tight window: step 2 must land within `window` of step 1
    t2 = pa.table(
        {
            "k": pa.array([1, 1, 2, 2], pa.int64()),
            "us": pa.array([0, 100, 0, 5], pa.int64()),
            "e": pa.array(["a", "b", "a", "b"]),
        }
    )
    o2 = funnel_steps(
        rd.from_arrow(t2), "k", "us", "e", steps=["a", "b"], window=10
    ).to_pandas().set_index("k")
    assert o2.loc[1, "steps_reached"] == 1 and o2.loc[2, "steps_reached"] == 2


def test_grouped_normalize_matches_sql_bitwise():
    t = _events(n=2500, seed=2609, with_nulls=True)
    from raycdc.ops import grouped_normalize

    mm = grouped_normalize(
        rd.from_arrow(t).repartition(4), "user_id", "cents", "minmax",
        num_buckets=8, batch_size=300,
    ).to_pandas()
    sh = grouped_normalize(
        rd.from_arrow(t), "user_id", "cents", "share",
    ).to_pandas()
    want = _duck(
        t,
        """
        WITH s AS (SELECT user_id,
                          CAST(min(cents) AS DOUBLE) AS mn,
                          CAST(max(cents) AS DOUBLE) AS mx,
                          CAST(sum(cents) AS DOUBLE) AS sm
                   FROM events GROUP BY user_id)
        SELECT event_id,
               CASE WHEN cents IS NULL OR mx = mn THEN NULL
                    ELSE (cents - mn) / (mx - mn) END AS minmax,
               CASE WHEN cents IS NULL OR sm = 0 THEN NULL
                    ELSE cents / sm END AS share
        FROM events e LEFT JOIN s ON s.user_id IS NOT DISTINCT FROM e.user_id
        """,
    ).to_pandas().sort_values("event_id").reset_index(drop=True)
    for df, c in ((mm, "minmax"), (sh, "share")):
        got = df[["event_id", c]].sort_values("event_id").reset_index(drop=True)
        a, b = got[c].to_numpy(), want[c].to_numpy()
        nn = np.isnan(a) & np.isnan(b)
        assert ((a == b) | nn).all(), c  # bit-exact


def test_grouped_array_agg_distinct_collect_set():
    t = _events(n=1200, seed=2707)
    t = t.append_column("v", pc.divide(t["cents"], 10000))  # coarse → dupes
    from raycdc.ops import grouped_array_agg, unnest_list

    flat = unnest_list(
        grouped_array_agg(
            rd.from_arrow(t).repartition(3), "user_id", "v",
            order_cols=["ts", "event_id"], distinct=True,
            num_buckets=4, batch_size=150,
        ),
        "vals", out_col="v", index_col="i",
    ).to_pandas()
    want = _duck(
        t,
        """
        WITH f AS (SELECT user_id, v, ts, event_id,
                          row_number() OVER (PARTITION BY user_id, v
                                             ORDER BY ts, event_id) AS rv
                   FROM events WHERE v IS NOT NULL)
        SELECT user_id, v,
               CAST(row_number() OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id) AS BIGINT) - 1 AS i
        FROM f WHERE rv = 1
        """,
    ).to_pandas()
    key = ["user_id", "i"]
    got = flat.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got.shape[0] == want.shape[0]
    assert (got["v"].to_numpy() == want["v"].to_numpy()).all()


def test_asof_join_forward_direction():
    lt = pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "t": pa.array([5, 20, 100, 0, 50], pa.int64()),
            "lv": pa.array([10, 20, 30, 40, 50], pa.int64()),
        }
    )
    rt = pa.table(
        {
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "rt": pa.array([10, 10, 30, 60], pa.int64()),
            "rv": pa.array([100, 200, 300, 400], pa.int64()),
            "tb": pa.array([2, 1, 3, 4], pa.int64()),
        }
    )
    from raycdc.ops import asof_join

    out = asof_join(
        rd.from_arrow(lt).repartition(2), rd.from_arrow(rt),
        on_left="t", on_right="rt", by_left="k", by_right="k",
        tiebreak="tb", direction="forward", num_buckets=2,
    ).to_pandas().sort_values("lv").reset_index(drop=True)
    # forward: smallest rt >= t; equal-rt ties -> SMALLEST tiebreak.
    # explicit expectations (DuckDB ASOF is backward-only, so assert directly):
    # k=1 t=5   -> rt=10 ties {tb1,tb2} -> tb=1 rv=200
    # k=1 t=20  -> rt=30 rv=300
    # k=1 t=100 -> no forward match -> NULL
    # k=2 t=0   -> rt=60 rv=400 ; k=2 t=50 -> rt=60 rv=400
    assert out["rv"].fillna(-1).tolist() == [200, 300, -1, 400, 400]


def test_cross_join_matches_sql():
    lt = pa.table({"a": pa.array([1, 2, 3], pa.int64()), "x": pa.array(["p", "q", "r"])})
    rt = pa.table({"b": pa.array([10, 20], pa.int64()), "x": pa.array(["u", "v"])})
    from raycdc.ops import cross_join

    out = cross_join(rd.from_arrow(lt).repartition(2), rt).to_pandas()
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    want = con.execute(
        "SELECT l.a, l.x, r.b, r.x AS x_r FROM l CROSS JOIN r"
    ).df()
    key = ["a", "b"]
    got = out.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    assert got.shape == want.shape
    for c in ("a", "x", "b", "x_r"):
        assert (got[c].to_numpy() == want[c].to_numpy()).all(), c


def test_moment_agg_wmean_matches_sql():
    t = _events(n=2000, seed=2803, with_nulls=True)
    t = t.append_column("w", pc.add(pc.divide(t["cents"], 1000), 10))
    from raycdc.ops import moment_agg

    out = moment_agg(
        rd.from_arrow(t).repartition(3), "etype",
        {"wm": ("cents", "w", "wmean")},
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    want = _duck(
        t,
        """
        WITH p AS (SELECT etype, cents, w FROM events
                   WHERE cents IS NOT NULL AND w IS NOT NULL)
        SELECT etype,
               CAST(sum(cents * w) AS DOUBLE) / CAST(sum(w) AS DOUBLE) AS wm
        FROM p GROUP BY etype
        """,
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    a, b = out["wm"].to_numpy(), want["wm"].to_numpy()
    nn = np.isnan(a) & np.isnan(b)
    assert ((a == b) | nn).all()  # bit-exact


def test_moment_agg_skew_kurt_bitexact_vs_sql():
    t = _events(n=3000, seed=911, with_nulls=True)
    t = t.append_column("x", pc.add(pc.divide(t["cents"], 1000), 3))  # small ints
    from raycdc.ops import moment_agg

    out = moment_agg(
        rd.from_arrow(t).repartition(4), "etype",
        {"sk": ("x", "skew_pop"), "ku": ("x", "kurt_pop")},
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    want = _duck(
        t,
        """
        WITH c AS (SELECT etype, x FROM events WHERE x IS NOT NULL),
        p AS (SELECT etype, CAST(count(x) AS DOUBLE) n, CAST(sum(x) AS DOUBLE) s,
                     CAST(sum(x*x) AS DOUBLE) q, CAST(sum(x*x*x) AS DOUBLE) c3,
                     CAST(sum(x*x*x*x) AS DOUBLE) c4
              FROM c GROUP BY etype)
        SELECT etype,
               (c3/n - 3.0*(s/n)*(q/n) + 2.0*((s/n)*(s/n))*(s/n))
                 / ((q/n - (s/n)*(s/n)) * sqrt(q/n - (s/n)*(s/n))) AS sk,
               (c4/n - 4.0*(s/n)*(c3/n) + 6.0*((s/n)*(s/n))*(q/n)
                  - 3.0*(((s/n)*(s/n))*((s/n)*(s/n))))
                 / ((q/n - (s/n)*(s/n)) * (q/n - (s/n)*(s/n))) - 3.0 AS ku
        FROM p
        """,
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    for c in ("sk", "ku"):
        a, b = out[c].to_numpy(), want[c].to_numpy()
        nn = np.isnan(a) & np.isnan(b)
        assert ((a == b) | nn).all()  # bit-exact


def test_moment_agg_skew_constant_group_is_null():
    t = pa.table({"k": ["a"] * 5, "x": [7] * 5})
    from raycdc.ops import moment_agg

    df = moment_agg(rd.from_arrow(t), "k", {"sk": ("x", "skew_pop")}).to_pandas()
    assert df["sk"].isna().all()  # zero variance -> NULL, not inf


def test_grouped_mad_bitexact_vs_duckdb_median_mad():
    t = _events(n=2500, seed=1213, with_nulls=True)
    from raycdc.ops import grouped_mad

    out = (
        grouped_mad(rd.from_arrow(t).repartition(3), "etype", "cents")
        .to_pandas().sort_values("etype").reset_index(drop=True)
    )
    want = _duck(
        t,
        """
        SELECT etype, median(cents) AS med, mad(cents) AS mad
        FROM events WHERE cents IS NOT NULL GROUP BY etype
        """,
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    assert (out["med"].to_numpy() == want["med"].to_numpy()).all()
    assert (out["mad"].to_numpy() == want["mad"].to_numpy()).all()


def test_grouped_mad_single_value_group():
    t = pa.table({"k": ["a", "b", "b"], "x": [10, 4, 8]})
    from raycdc.ops import grouped_mad

    df = grouped_mad(rd.from_arrow(t), "k", "x").to_pandas().set_index("k")
    assert df.loc["a", "med"] == 10.0 and df.loc["a", "mad"] == 0.0
    assert df.loc["b", "med"] == 6.0 and df.loc["b", "mad"] == 2.0


def test_grouped_entropy_matches_duckdb_round6():
    t = _events(n=2000, seed=77, with_nulls=True)
    from raycdc.ops import grouped_entropy

    out = (
        grouped_entropy(rd.from_arrow(t).repartition(3), "user_id", "etype")
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    )
    want = _duck(
        t,
        """
        SELECT user_id, ROUND(entropy(etype), 6) AS entropy
        FROM events WHERE etype IS NOT NULL GROUP BY user_id
        """,
    ).to_pandas().sort_values("user_id").reset_index(drop=True)
    assert (out["entropy"].to_numpy() == want["entropy"].to_numpy()).all()


def test_grouped_entropy_null_string_key_matches_duckdb():
    """pyarrow 16.1's multi-key ``group_by`` splits a (NULL string,
    int) group into many, so a finalize that regroups by (key, col)
    sums entropy over split counts. A NULL key with 30 distinct ints
    exposes it."""
    rng = np.random.default_rng(11)
    n = 3000
    keys = rng.choice(np.array(["a", "b", None], dtype=object), n, p=[0.2, 0.2, 0.6])
    vals = rng.integers(0, 30, n)
    t = pa.table({"k": pa.array(keys.tolist(), pa.string()),
                  "x": pa.array(vals, pa.int64())})
    from raycdc.ops import grouped_entropy

    out = {r["k"]: r["entropy"] for r in
           grouped_entropy(rd.from_arrow(t).repartition(3), "k", "x").take_all()}
    want = {r["k"]: r["entropy"] for r in _duck(
        t, "SELECT k, ROUND(entropy(x), 6) AS entropy FROM events GROUP BY k"
    ).to_pylist()}
    assert out == want


def test_grouped_arg_extreme_matches_window_form():
    t = _events(n=2000, seed=3001, with_nulls=True)
    from raycdc.ops import grouped_arg_extreme

    for mode, d in (("max", "DESC"), ("min", "ASC")):
        out = (
            grouped_arg_extreme(
                rd.from_arrow(t).repartition(4), "user_id", "cents", "event_id",
                mode=mode,
            )
            .to_pandas().sort_values("user_id").reset_index(drop=True)
        )
        want = _duck(
            t,
            f"""
            SELECT user_id, cents AS val, event_id AS arg
            FROM (SELECT user_id, cents, event_id,
                         row_number() OVER (PARTITION BY user_id
                                            ORDER BY cents {d}, event_id ASC) rn
                  FROM events WHERE cents IS NOT NULL)
            WHERE rn = 1
            """,
        ).to_pandas().sort_values("user_id").reset_index(drop=True)
        # null keys: SQL keeps NULL partition; engine keeps one NULL group too
        assert len(out) == len(want)
        ok = (out["val"].to_numpy() == want["val"].to_numpy()) & (
            out["arg"].to_numpy() == want["arg"].to_numpy()
        )
        assert ok.all()


def test_grouped_quantile_sketch_exact_when_key_fits_in_k():
    t = _events(n=1500, seed=42)
    from raycdc.ops import grouped_quantile_cont, grouped_quantile_sketch

    approx = (
        grouped_quantile_sketch(
            rd.from_arrow(t).repartition(3), "etype", "cents", "event_id",
            {"p50": 0.5, "p90": 0.9}, k=4096,
        ).to_pandas().sort_values("etype").reset_index(drop=True)
    )
    exact = (
        grouped_quantile_cont(
            rd.from_arrow(t), "etype", "cents", {"p50": 0.5, "p90": 0.9}
        ).to_pandas().sort_values("etype").reset_index(drop=True)
    )
    # every key has < k rows -> the sample IS the population: bit-equal
    assert (approx["p50"].to_numpy() == exact["p50"].to_numpy()).all()
    assert (approx["p90"].to_numpy() == exact["p90"].to_numpy()).all()


def test_grouped_quantile_sketch_rank_error_bounded():
    t = _events(n=60000, seed=5)
    from raycdc.ops import grouped_quantile_sketch

    k = 1024
    approx = (
        grouped_quantile_sketch(
            rd.from_arrow(t).repartition(6), "etype", "cents", "event_id",
            {"p50": 0.5, "p90": 0.9}, k=k,
        ).to_pandas().set_index("etype")
    )
    df = t.to_pandas()
    tol = 4.0 / np.sqrt(k)  # ~0.125 rank units
    for etype, grp in df.groupby("etype"):
        v = np.sort(grp["cents"].to_numpy())
        for name, q in (("p50", 0.5), ("p90", 0.9)):
            got = approx.loc[etype, name]
            rank = np.searchsorted(v, got) / max(len(v) - 1, 1)
            assert abs(rank - q) < tol, (etype, name, rank, q)


def test_grouped_quantile_sketch_deterministic_across_partitioning():
    t = _events(n=20000, seed=8)
    from raycdc.ops import grouped_quantile_sketch

    outs = []
    for parts in (2, 7):
        outs.append(
            grouped_quantile_sketch(
                rd.from_arrow(t).repartition(parts), "etype", "cents", "event_id",
                {"p50": 0.5}, k=256,
            ).to_pandas().sort_values("etype").reset_index(drop=True)
        )
    # bottom-k by hash is partitioning-independent: identical samples
    assert (outs[0]["p50"].to_numpy() == outs[1]["p50"].to_numpy()).all()


def test_merge_intervals_islands_and_touching():
    from raycdc.ops import merge_intervals

    t = pa.table({
        "k": ["a", "a", "a", "a", "b", "b"],
        "s": [0, 3, 5, 20, 1, 100],
        "e": [5, 4, 9, 25, 2, 101],
    })
    # a: [0,5)+[3,4)+[5,9) merge (touching merges); [20,25) separate
    df = (
        merge_intervals(rd.from_arrow(t), "k", "s", "e")
        .to_pandas().sort_values(["k", "win_start"]).reset_index(drop=True)
    )
    rows = [tuple(r) for r in df.itertuples(index=False)]
    assert rows == [("a", 0, 9, 3), ("a", 20, 25, 1),
                    ("b", 1, 2, 1), ("b", 100, 101, 1)]


def test_merge_intervals_contained_interval_keeps_running_max():
    from raycdc.ops import merge_intervals

    # [0,100) swallows [10,20); [30,40) still inside because running max
    # is 100, not the previous row's end 20
    t = pa.table({"k": ["x"] * 3, "s": [0, 10, 30], "e": [100, 20, 40]})
    df = merge_intervals(rd.from_arrow(t), "k", "s", "e").to_pandas()
    assert len(df) == 1
    assert df.iloc[0]["win_start"] == 0 and df.iloc[0]["win_end"] == 100
    assert df.iloc[0]["n_events"] == 3


def test_moment_agg_regression_bitexact_vs_sql():
    t = _events(n=2500, seed=4242, with_nulls=True)
    t = t.append_column("y", pc.add(pc.divide(t["cents"], 100), 7))
    from raycdc.ops import moment_agg

    out = moment_agg(
        rd.from_arrow(t).repartition(3), "etype",
        {"slope": ("cents", "y", "regr_slope"),
         "icpt": ("cents", "y", "regr_intercept"),
         "r2": ("cents", "y", "r2")},
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    want = _duck(
        t,
        """
        WITH c AS (SELECT etype, cents AS x, y FROM events
                   WHERE cents IS NOT NULL AND y IS NOT NULL),
        p AS (SELECT etype, CAST(count(*) AS DOUBLE) n,
                     CAST(sum(x) AS DOUBLE) sx, CAST(sum(y) AS DOUBLE) sy,
                     CAST(sum(x*y) AS DOUBLE) sxy, CAST(sum(x*x) AS DOUBLE) sxx,
                     CAST(sum(y*y) AS DOUBLE) syy
              FROM c GROUP BY etype)
        SELECT etype,
               (sxy - sx*(sy/n)) / (sxx - sx*(sx/n)) AS slope,
               sy/n - ((sxy - sx*(sy/n)) / (sxx - sx*(sx/n))) * (sx/n) AS icpt,
               ((sxy - sx*(sy/n)) * (sxy - sx*(sy/n)))
                 / ((sxx - sx*(sx/n)) * (syy - sy*(sy/n))) AS r2
        FROM p
        """,
    ).to_pandas().sort_values("etype").reset_index(drop=True)
    for c in ("slope", "icpt", "r2"):
        a, b = out[c].to_numpy(), want[c].to_numpy()
        nn = np.isnan(a) & np.isnan(b)
        assert ((a == b) | nn).all()  # bit-exact


def test_grouped_locf_matches_ignore_nulls_window():
    t = _events(n=3000, seed=606, with_nulls=True)  # ~5% null cents
    from raycdc.ops import grouped_locf

    out = (
        grouped_locf(rd.from_arrow(t).repartition(4), "user_id",
                     ["ts", "event_id"], "cents")
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    want = _duck(
        t,
        """
        SELECT event_id,
               last_value(cents IGNORE NULLS) OVER (
                 PARTITION BY user_id ORDER BY ts, event_id
                 ROWS UNBOUNDED PRECEDING) AS filled
        FROM events ORDER BY event_id
        """,
    ).to_pandas().reset_index(drop=True)
    a, b = out["filled"].to_numpy(dtype=float), want["filled"].to_numpy(dtype=float)
    nn = np.isnan(a) & np.isnan(b)
    assert ((a == b) | nn).all()


def test_corr_join_sketch_tracks_exact_join_correlation():
    from raycdc.ops import corr_join_sketch

    rng = np.random.default_rng(2026)
    n = 20000
    keys = pa.array([f"k{i:06d}" for i in range(n)])
    x = rng.normal(0, 1, n)
    y = 0.7 * x + rng.normal(0, 1, n) * np.sqrt(1 - 0.49)  # true corr ≈ 0.7
    left = pa.table({"id": keys, "x": pa.array(np.round(x * 1000).astype(np.int64))})
    right = pa.table({"id": keys, "y": pa.array(np.round(y * 1000).astype(np.int64))})
    exact = float(np.corrcoef(left["x"].to_numpy().astype(float),
                              right["y"].to_numpy().astype(float))[0, 1])
    est = corr_join_sketch(
        rd.from_arrow(left).repartition(5), rd.from_arrow(right).repartition(3),
        key="id", xcol="x", ycol="y", k=2048,
    )
    assert abs(est - exact) < 0.08, (est, exact)
    # deterministic: same inputs, different partitioning, same estimate
    est2 = corr_join_sketch(
        rd.from_arrow(left).repartition(2), rd.from_arrow(right).repartition(7),
        key="id", xcol="x", ycol="y", k=2048,
    )
    assert est == est2


def test_pagerank_modes_agree_and_sum_to_expected_mass():
    from raycdc.ops import pagerank

    rng = np.random.default_rng(13)
    src = rng.integers(0, 40, 300)
    dst = rng.integers(0, 40, 300)
    t = pa.table({"src": [f"n{i}" for i in src], "dst": [f"n{i}" for i in dst]})
    kw = dict(iters=5, ndigits=6)
    a = (pagerank(rd.from_arrow(t), mode="broadcast", **kw)
         .to_pandas().sort_values("node").reset_index(drop=True))
    b = (pagerank(rd.from_arrow(t).repartition(4), mode="join", **kw)
         .to_pandas().sort_values("node").reset_index(drop=True))
    assert (a["node"] == b["node"]).all()
    assert (a["rank"].to_numpy() == b["rank"].to_numpy()).all()  # round-6 equal
    # simplified model: total mass stays ≤ 1 and every rank ≥ (1-d)/N
    n = len(a)
    assert a["rank"].sum() <= 1.0 + n * 5e-7  # round-6 per-rank slack
    assert (a["rank"] >= (1 - 0.85) / n - 1e-9).all()


def test_zorder_write_prunes_on_both_columns(tmp_path):
    import glob

    import pyarrow.parquet as pq

    from raycdc.ops import write_zordered

    rng = np.random.default_rng(7)
    n = 40000
    t = pa.table({
        "id": pa.array(np.arange(n, dtype=np.int64)),
        "x": pa.array(rng.integers(0, 10000, n).astype(np.int64)),
        "y": pa.array(rng.integers(0, 10000, n).astype(np.int64)),
    })

    def overlap_frac(path_glob, col, lo, hi):
        touched = total = 0
        for f in glob.glob(path_glob):
            md = pq.ParquetFile(f).metadata
            ci = [md.schema.to_arrow_schema().get_field_index(col)][0]
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(ci).statistics
                total += 1
                if st is None or (st.min <= hi and st.max >= lo):
                    touched += 1
        return touched / max(total, 1)

    import ray.data as rdd
    zdir = str(tmp_path / "z")
    sdir = str(tmp_path / "s")
    write_zordered(rdd.from_arrow(t).repartition(8), ["x", "y"], zdir)
    # baseline layout: single-column sort on x only
    rdd.from_arrow(t).sort("x").write_parquet(sdir)

    # a 5% range filter on Y: the x-sorted layout cannot prune it,
    # the z-ordered layout must touch strictly fewer row groups
    zy = overlap_frac(zdir + "/*.parquet", "y", 0, 500)
    sy = overlap_frac(sdir + "/*.parquet", "y", 0, 500)
    assert zy < sy, (zy, sy)
    # and the z layout still prunes on X too (better than no layout)
    zx = overlap_frac(zdir + "/*.parquet", "x", 0, 500)
    assert zx < 1.0
    # content preserved: same rows, just re-clustered
    back = pq.read_table(zdir).sort_by("id")
    assert back.num_rows == n
    assert back["id"].combine_chunks().equals(t["id"].combine_chunks())
    assert back["x"].combine_chunks().equals(t["x"].combine_chunks())


def test_hll_overlap_tracks_exact_jaccard():
    from raycdc.ops import hll_overlap

    rng = np.random.default_rng(44)
    # two segments with a controlled 30% overlap + one disjoint segment
    base = [f"u{i:06d}" for i in range(6000)]
    seg_a = base[:4000]
    seg_b = base[2800:6000]          # |A∩B| = 1200, |A∪B| = 6000
    seg_c = [f"v{i}" for i in range(1500)]
    t = pa.table({
        "seg": ["a"] * len(seg_a) + ["b"] * len(seg_b) + ["c"] * len(seg_c),
        "user": seg_a + seg_b + seg_c,
    })
    out = hll_overlap(rd.from_arrow(t).repartition(4), "seg", "user", p=12)
    d = {(out["key_a"][i].as_py(), out["key_b"][i].as_py()):
         (out["inter_approx"][i].as_py(), out["jaccard_approx"][i].as_py())
         for i in range(out.num_rows)}
    inter_ab, jac_ab = d[("a", "b")]
    assert abs(inter_ab - 1200) / 1200 < 0.15          # ~2-5% typical at p=12
    assert abs(jac_ab - 1200 / 6000) < 0.05
    # disjoint pairs estimate near zero relative to set sizes
    assert d[("a", "c")][0] < 0.1 * 4000
    assert d[("b", "c")][0] < 0.1 * 3200


def test_one_keyed_shuffle_shape():
    """``ops._by_key``'s ``groupby("_bucket").map_groups`` is the only
    ``.map_groups(`` call in ``raycdc/``: every per-key operator folds a
    whole hash bucket, never one UDF call (and one block) per key."""
    import inspect
    import pathlib

    import raycdc
    from raycdc import ops

    root = pathlib.Path(raycdc.__file__).parent
    calls = {p.relative_to(root).as_posix(): p.read_text().count(".map_groups(")
             for p in sorted(root.rglob("*.py"))}
    assert {p: n for p, n in calls.items() if n} == {"ops.py": 1}
    assert inspect.getsource(ops._by_key).count(".map_groups(") == 1
