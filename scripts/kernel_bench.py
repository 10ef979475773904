"""Micro-bench of engine kernels, each against the variant it replaced
or beat: dedup candidate-pair generation and pair-Jaccard verify, the
L0 run writer's LWW fold, its parquet encode and its payload width
(with the read fold), the unordered LWW fold of ``lww_apply``, the LWW
pre-fold ahead of the deid transform and the deid stage's pseudonymize
and seal loops, and the fold unit of an ingest epoch. Pure numpy/Arrow —
no Ray session, except ``epoch_groups``, which starts its own; identical
output asserted per kernel.

    python scripts/kernel_bench.py

Outcome (this bench DROVE the shipped choice of every kernel):
- pair GENERATION: the run frame's pairs (ops._run_pairs) + two Arrow
  takes is 25-34x faster than to_pylist + itertools.combinations — the
  vectorized form SHIPS (candidate_pairs_from_bands, simhash_near_dup).
- pair-Jaccard VERIFY: the "fully vectorized" lexsort-of-tagged-stream
  form measured 8-25x SLOWER than the per-pair np.intersect1d loop at
  every realistic shape (20k-100k pairs x 40-1000 grams; the u64
  comparison lexsort dominates, while intersect1d on tiny unique sets
  is C-speed with ~5 us/pair overhead). The loop SHIPS
  (verify_jaccard_pairs_ds); the rejected variant is kept here as the
  measured counter-example.
- L0 run WRITE fold (8 tail_bulk segments, 1-core host): one key-column
  sort and one payload take in (bucket, key) order, 0.16 s, vs the
  filter fold plus bucket sort plus second take, 0.27 s; identical
  tables and run names. SHIPS (lww_order + last_writer_per_key).
  From the RAW segments (4-core host, pyarrow 16.1, best of 3, four
  runs): stamp + a selection vector of the ok rows + one composed take,
  0.26-0.38 s, vs stamp + filter + the same fold, 0.47-0.63 s (1.7-1.8x);
  identical tables and run names. SHIPS (make_validator's stamped batch
  into LakeTable write_run).
- DEID pre-fold (the 4 raw tail_deid segments, 4-core host, pyarrow
  16.1, best of 3): stamp + each segment's ok LWW winners in one take +
  the deid stage on those + the run fold, 0.81 s, vs stamp + filter +
  the deid stage on every ok row + the same fold, 1.01 s (1.24x);
  identical run tables and run names. SHIPS (tailer.ok_winners ahead
  of a tail_once transform).
- DEID seal (the same winners, 70.9k rows, 1-core host, pyarrow 16.1,
  best of 3, three runs): the stage reading the identity dictionary and
  the envelope payloads with to_numpy and sealing with one sealer per
  batch (SHA-256 pad states hashed once), 0.28-0.30 s, vs to_pylist of
  both and a per-row copy of a keyed hmac.HMAC, 0.48-0.57 s
  (1.6-2.0x); identical pseudonyms and _changeset bytes. SHIPS
  (identity._per_distinct, diffmerge.compute_changeset's _sealer).
- UNORDERED fold (lww_apply, 65k-row multi-chunk batches): a mask
  filter of the shared winners matches the replaced filter fold
  (0.17-0.22 s); an ordered take or a sorted-index take is 1.4-1.8x
  slower on chunked input. The mask SHIPS (apply._in_input_order).
- run ENCODE (one 19.8k-row run): zstd without dictionary 31 ms /
  5.00 MB vs snappy + dictionary 53 ms / 6.18 MB, same read-back time.
  SHIPS (lake._write_options). The token lists as one binary view of
  the same buffers (lake._encode_stored) skip Parquet's list encoding
  on top of that. SHIPS (every run and base).
- run WIDTH (the 8 raw tail_bulk segments through the run writer's
  steps, 4 cores in the affinity mask, nproc 1, pyarrow 16.1, best of 5,
  two runs): the token payload packed as uint16 (its min/max, one numpy
  astype per chunk ahead of the take) 0.317/0.319 s and 33,011,329 run
  bytes, vs int32 at its logical width 0.429/0.425 s and 40,331,374
  bytes (-18.1%); the read fold over each side's 8 runs (widen, concat,
  re-pack, LWW fold, widen) 0.213/0.187 s vs 0.233/0.259 s. Identical
  decoded runs, run names and fold output (86,904 rows). pc.cast in
  place of astype took 2-3x as long each way. SHIPS
  (lake._encode_stored / _decode_stored).
- EPOCH groups (tail_once of the 8 raw tail_bulk seed-7 segments into a
  base-seeded 32-partition lake, 4 cores in the affinity mask, nproc 1,
  Ray 2.49.2, medians of 5 alternating pairs, two runs): one run per
  tailer.segment_groups group vs one run per segment. At 1 Ray CPU
  1 run of 86,904 rows / 19,050,404 bytes vs 8 runs of 160,046 rows /
  33,011,329 bytes, 0.73/0.83 s vs 0.87/0.91 s; at 4 Ray CPUs 4 runs of
  142,144 rows / 29,621,666 bytes vs the same 8 runs, 0.30/0.30 s vs
  0.39/0.35 s (grouped faster in 9 of 10 pairs). Identical read().
  SHIPS (tailer.read_segments)."""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def timeit(fn, reps=5):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_pairgen(m: int = 512) -> dict:
    ids = pa.array(sorted(f"doc-{i:06d}" for i in range(m)))

    def loop():  # round-4 path: to_pylist + itertools.combinations
        py = ids.to_pylist()
        a, b = zip(*itertools.combinations(py, 2))
        return pa.table({"id_a": pa.array(a, ids.type), "id_b": pa.array(b, ids.type)})

    def vec():  # shipped path (candidate_pairs_from_bands inner kernel)
        from raycdc.ops import _frame, _run_pairs

        ia, ib = _run_pairs(_frame(np.arange(m) == 0))  # one run of m ids
        return pa.table({"id_a": ids.take(pa.array(ia)), "id_b": ids.take(pa.array(ib))})

    t_loop, out_l = timeit(loop)
    t_vec, out_v = timeit(vec)
    assert out_l.sort_by([("id_a", "ascending"), ("id_b", "ascending")]).equals(
        out_v.sort_by([("id_a", "ascending"), ("id_b", "ascending")]))
    return {"kernel": "lsh_bucket_pairgen", "bucket": m, "pairs": out_v.num_rows,
            "loop_sec": round(t_loop, 4), "vec_sec": round(t_vec, 4),
            "speedup": round(t_loop / t_vec, 1)}


def bench_jaccard(n_pairs: int = 20000, grams: int = 40) -> dict:
    rng = np.random.default_rng(7)
    # unique u64 gram sets per side, ~50% overlap
    base = rng.integers(0, 1 << 62, size=(n_pairs, grams), dtype=np.uint64)
    fa = np.sort(base, axis=1).ravel()
    fb = base.copy()
    fb[:, : grams // 2] = rng.integers(0, 1 << 62, size=(n_pairs, grams // 2),
                                       dtype=np.uint64)
    fb = np.sort(fb, axis=1).ravel()
    oa = np.arange(n_pairs + 1, dtype=np.int64) * grams
    ob = oa.copy()

    def loop():  # SHIPPED path (verify_jaccard_pairs_ds score kernel)
        js = np.empty(n_pairs)
        for i in range(n_pairs):
            sa, sb = fa[oa[i]:oa[i + 1]], fb[ob[i]:ob[i + 1]]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            js[i] = inter / max(1, len(sa) + len(sb) - inter)
        return js

    def vec():  # REJECTED round-5 variant: lexsort of the tagged stream
        from raycdc.extras.dedup import _segment_gather

        va, la = _segment_gather(fa, oa)
        vb, lb = _segment_gather(fb, ob)
        p_all = np.concatenate([np.repeat(np.arange(n_pairs), la),
                                np.repeat(np.arange(n_pairs), lb)])
        g_all = np.concatenate([va, vb])
        order = np.lexsort((g_all, p_all))
        ps, gs = p_all[order], g_all[order]
        first = np.empty(len(ps), dtype=bool)
        first[0] = True
        first[1:] = (ps[1:] != ps[:-1]) | (gs[1:] != gs[:-1])
        union = np.bincount(ps[first], minlength=n_pairs).astype(np.int64)
        inter = la + lb - union
        return np.where(union == 0, 1.0, inter / np.maximum(union, 1))

    t_loop, js_l = timeit(loop, reps=3)
    t_vec, js_v = timeit(vec, reps=3)
    assert np.allclose(js_l, js_v)
    return {"kernel": "pair_jaccard_verify", "pairs": n_pairs, "grams_per_side": grams,
            "shipped_loop_sec": round(t_loop, 4),
            "rejected_lexsort_sec": round(t_vec, 4),
            "shipped_speedup_over_rejected": round(t_vec / t_loop, 1)}


def _raw_segments(n_segments: int = 8, per: int = 25_000, seed: int = 7,
                  n_base: int = 50_000) -> list[pa.Table]:
    """Change segments of the benchmark's ``tail_bulk`` shape (``tail_deid``'s
    with ``n_segments=4, n_base=25_000``), malformed events included (as
    the tailer reads them)."""
    from raycdc.synth import EventGenConfig, events_table, with_replays_and_disorder

    cfg = EventGenConfig(n_events=per * n_segments, n_base=n_base, seed=seed,
                         dup_replay_rate=0.02, pct_malformed=0.01, hot_key_share=0.1,
                         min_len=48, max_len=192)
    return [with_replays_and_disorder(events_table(cfg, 1 + k * per, 1 + (k + 1) * per), cfg)
            for k in range(n_segments)]


def _tail_segments(**kw) -> list[pa.Table]:
    """The :func:`_raw_segments` with their malformed events removed."""
    from raycdc.synth import is_malformed_mask

    return [s.filter(pa.array(~is_malformed_mask(s))) for s in _raw_segments(**kw)]


def _filter_fold(t: pa.Table, key: str = "doc_id", lsn_col: str = "lsn") -> pa.Table:
    """The replaced LWW fold: sort (key, lsn), scatter the winners back to
    input positions, copy the payload with one filter (input order)."""
    n = t.num_rows
    idx = pc.sort_indices(t.select([key, lsn_col]),
                          sort_keys=[(key, "ascending"), (lsn_col, "ascending")])
    keys_sorted = t.column(key).combine_chunks().take(idx)
    last = np.ones(n, dtype=bool)
    last[: n - 1] = np.asarray(pc.not_equal(keys_sorted.slice(1),
                                            keys_sorted.slice(0, n - 1)).fill_null(True))
    keep = np.zeros(n, dtype=bool)
    keep[np.asarray(idx)[last]] = True
    return t.filter(pa.array(keep))


def _run_name(t: pa.Table) -> str:
    from raycdc.util import str_hash_u64

    lsns = np.asarray(t.column("lsn").combine_chunks().cast(pa.int64()))
    return hashlib.md5(lsns.tobytes() + str_hash_u64(t.column("doc_id")).tobytes()).hexdigest()[:16]


def bench_lww_write_run(partitions: int = 32) -> dict:
    """One ingest task's validate + fold + bucket order + run name over
    the eight raw ``tail_bulk`` segments: the replaced path (stamp,
    filter the ok rows, then ``lww_order`` + ``last_writer_per_key`` on
    the filtered block: two payload copies) vs the shipped one (stamp,
    keep the ok rows as a selection vector that only the key columns are
    hashed and sorted by, one composed payload take)."""
    from raycdc.apply import last_writer_per_key, lww_order
    from raycdc.routing import ROUTE_COL, ROUTE_OK, stamp_route
    from raycdc.util import bucket_of

    segs = _raw_segments()

    def old():
        out = []
        for s in segs:
            t = stamp_route(s, "doc_id")
            t = t.filter(pc.equal(t[ROUTE_COL], ROUTE_OK)).drop_columns([ROUTE_COL])
            t = t.append_column("_bucket", pa.array(bucket_of(t.column("doc_id"), partitions)))
            t = last_writer_per_key(t, order=lww_order(t))
            out.append((t, _run_name(t)))
        return out

    def new():  # SHIPPED (LakeTable write_run)
        out = []
        for s in segs:
            t = stamp_route(s, "doc_id")
            rows = np.flatnonzero(pc.equal(t[ROUTE_COL], ROUTE_OK))
            t = t.drop_columns([ROUTE_COL])
            b = np.zeros(t.num_rows, dtype=np.int32)
            b[rows] = bucket_of(t.column("doc_id").take(rows), partitions)
            t = t.append_column("_bucket", pa.array(b))
            keys = t.select(["_bucket", "doc_id", "lsn"]).take(rows)
            order = pa.array(rows).take(lww_order(keys))
            t = last_writer_per_key(t, order=order)
            out.append((t, _run_name(t)))
        return out

    t_old, o_old = timeit(old, reps=3)
    t_new, o_new = timeit(new, reps=3)
    assert [n for _, n in o_old] == [n for _, n in o_new]
    assert all(a.equals(b) for (a, _), (b, _) in zip(o_old, o_new))
    return {"kernel": "lww_write_run", "segments": len(segs),
            "rows_in": sum(s.num_rows for s in segs),
            "rows_out": sum(t.num_rows for t, _ in o_new),
            "replaced_filter_then_take_sec": round(t_old, 4),
            "shipped_one_take_sec": round(t_new, 4),
            "speedup": round(t_old / t_new, 2)}


def bench_lww_unordered_fold(batch_rows: int = 65_536) -> dict:
    """``lww_apply``'s per-batch / per-bucket folds need no output order:
    on unsorted batches, materialize the shared kernel's winners by a
    mask filter, an ordered (key) take, or a take of the sorted winner
    indices (input order). The replaced filter fold is the baseline the
    shipped materialization must not be slower than."""
    from raycdc.apply import lww_winners

    events = pa.concat_tables(_tail_segments())
    batches = [events.slice(o, batch_rows) for o in range(0, events.num_rows, batch_rows)]

    def replaced():
        return [_filter_fold(t) for t in batches]

    def mask():  # SHIPPED (apply._in_input_order)
        out = []
        for t in batches:
            keep = np.zeros(t.num_rows, dtype=bool)
            keep[lww_winners(t)] = True
            out.append(t.filter(pa.array(keep)))
        return out

    def ordered():
        return [t.take(lww_winners(t)) for t in batches]

    def sorted_take():
        return [t.take(np.sort(lww_winners(t))) for t in batches]

    t_old, o_old = timeit(replaced, reps=5)
    t_mask, o_mask = timeit(mask, reps=5)
    t_ord, o_ord = timeit(ordered, reps=5)
    t_sorted, o_sorted = timeit(sorted_take, reps=5)
    assert all(a.equals(b) for a, b in zip(o_mask, o_sorted))
    assert all(a.equals(b.sort_by("doc_id")) for a, b in zip(o_ord, o_sorted))
    assert all(a.equals(b) for a, b in zip(o_old, o_mask))
    return {"kernel": "lww_unordered_fold", "batches": len(batches), "batch_rows": batch_rows,
            "replaced_filter_fold_sec": round(t_old, 4),
            "shipped_mask_filter_sec": round(t_mask, 4), "ordered_take_sec": round(t_ord, 4),
            "sorted_index_take_sec": round(t_sorted, 4)}


def bench_deid_prefold(partitions: int = 32) -> dict:
    """One ``tail_deid`` ingest task per segment, over its four raw
    segments: the replaced path (stamp, filter the ok rows, the
    ``deid_transform`` stage on every one of them, the run writer's fold)
    vs the shipped one (stamp, each segment's ok LWW winners in one take,
    the same stage on those only, the same fold)."""
    from raycdc.apply import last_writer_per_key
    from raycdc.lake import _encode_stored, ok_lww_order
    from raycdc.pipelines import deid_stage
    from raycdc.routing import ROUTE_COL, ROUTE_OK, stamp_route
    from raycdc.tailer import ok_winners

    segs = _raw_segments(n_segments=4, n_base=25_000)
    stage = deid_stage(iterations=200, kdf="batch")

    def fold(t: pa.Table) -> pa.Table:  # LakeTable.apply's write_run
        t, order = ok_lww_order(t, "doc_id", partitions)
        return last_writer_per_key(_encode_stored(t), order=order)

    def old():
        out = []
        for s in segs:
            t = stamp_route(s, "doc_id")
            t = fold(stage(t.filter(pc.equal(t[ROUTE_COL], ROUTE_OK)).drop_columns([ROUTE_COL])))
            out.append((t, _run_name(t)))
        return out

    def new():  # SHIPPED (tail_once with a transform)
        out = []
        for s in segs:
            t = fold(stage(ok_winners(stamp_route(s, "doc_id"), "doc_id")))
            out.append((t, _run_name(t)))
        return out

    t_old, o_old = timeit(old, reps=3)
    t_new, o_new = timeit(new, reps=3)
    assert [n for _, n in o_old] == [n for _, n in o_new]
    assert all(a.equals(b) for (a, _), (b, _) in zip(o_old, o_new))
    return {"kernel": "deid_prefold", "segments": len(segs),
            "rows_in": sum(s.num_rows for s in segs),
            "rows_out": sum(t.num_rows for t, _ in o_new),
            "replaced_transform_all_ok_sec": round(t_old, 4),
            "shipped_transform_winners_sec": round(t_new, 4),
            "speedup": round(t_old / t_new, 2)}


def _replaced_per_distinct(values, fn, typ) -> pa.Array:
    """The replaced identity loop: ``fn`` over the boxed dictionary."""
    enc = values.combine_chunks().dictionary_encode()
    return pa.array([None if v is None else fn(v) for v in enc.dictionary.to_pylist()],
                    type=typ).take(enc.indices)


def _replaced_seal(payload: bytes, aes, mac) -> bytes:
    """The replaced per-row seal: a copy of a keyed ``hmac.HMAC`` per row."""
    m = mac.copy()
    m.update(payload)
    nonce = m.digest()[:12]
    return nonce + aes.encrypt(nonce, payload, None)


def bench_deid_seal() -> dict:
    """``deid_transform``'s stage over the ``tail_deid`` seed-7 ok LWW
    winners (what ``tail_once`` hands it): the replaced loops (the
    identity functions over ``to_pylist`` of the dictionary; the envelope
    payloads over ``to_pylist``, sealed per row with a copy of a keyed
    ``hmac.HMAC``) vs the shipped stage (both over ``to_numpy``; one
    ``diffmerge._sealer`` per batch). Identical pseudonyms and
    ``_changeset`` bytes asserted."""
    import hmac

    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    from raycdc.diffmerge import CHANGESET_COL, _derive_key, compute_changeset
    from raycdc.identity import _pseudo, _uuid5
    from raycdc.pipelines import deid_stage
    from raycdc.routing import stamp_route
    from raycdc.rules import Rule, RuleSet
    from raycdc.tailer import ok_winners

    segs = [ok_winners(stamp_route(s, "doc_id"), "doc_id")
            for s in _raw_segments(n_segments=4, n_base=25_000)]
    stage = deid_stage(password="bench", iterations=200, kdf="batch")
    rules = RuleSet(rules=[
        Rule(column="doc_id", action="map",
             fn=lambda t: _replaced_per_distinct(t["doc_id"], _pseudo, pa.string())),
        Rule(column="source", action="map",
             fn=lambda t: _replaced_per_distinct(t["source"], _uuid5, None)),
    ])

    def replaced():
        key = _derive_key("bench", 200)  # once per batch, as the stage does
        aes, mac = AESGCM(key), hmac.new(key, digestmod=hashlib.sha256)
        out = []
        for s in segs:
            t = compute_changeset(s, rules(s), key="doc_id")
            raw = t[CHANGESET_COL].combine_chunks()
            blobs = [_replaced_seal(p, aes, mac) for p in raw.to_pylist()]
            out.append(t.set_column(t.column_names.index(CHANGESET_COL), CHANGESET_COL,
                                    pa.array(blobs, type=pa.binary())))
        return out

    def shipped():  # SHIPPED (pipelines.deid_stage)
        return [stage(s) for s in segs]

    t_old, o_old = timeit(replaced, reps=3)
    t_new, o_new = timeit(shipped, reps=3)
    assert all(a.equals(b) for a, b in zip(o_old, o_new))
    return {"kernel": "deid_seal", "segments": len(segs),
            "rows": sum(s.num_rows for s in segs),
            "replaced_pylist_hmac_copy_sec": round(t_old, 4),
            "shipped_to_numpy_pad_states_sec": round(t_new, 4),
            "speedup": round(t_old / t_new, 2)}


def bench_run_encode(partitions: int = 32) -> dict:
    """Parquet encode of one bucket-sorted L0 run: the pyarrow default
    (snappy, dictionary on every column — the token-list leaf included),
    the list form with zstd and no dictionary, and the shipped stored
    form (the token lists as one binary view, written with
    ``lake._write_options``), read back through ``lake._decode_stored``."""
    from raycdc.apply import last_writer_per_key
    from raycdc.lake import _decode_stored, _encode_stored, _write_options
    from raycdc.util import bucket_of

    t = _tail_segments(n_segments=1)[0]
    t = last_writer_per_key(
        t.append_column("_bucket", pa.array(bucket_of(t.column("doc_id"), partitions))))
    rg = max(2048, -(-t.num_rows // partitions))
    out = {"kernel": "run_encode", "rows": t.num_rows}
    rows = (("default_snappy_dict", False, {}),
            ("list_zstd_nodict", False, {"use_dictionary": False, "compression": "zstd"}),
            ("shipped_stored", True, None))
    for label, stored, kw in rows:
        def write():
            s = _encode_stored(t) if stored else t
            buf = io.BytesIO()
            pq.write_table(s, buf, row_group_size=rg, **(kw if kw is not None else _write_options(s)))
            return buf.getvalue()

        def read():
            back = pq.read_table(io.BytesIO(data))
            return _decode_stored(back) if stored else back

        t_write, data = timeit(write, reps=5)
        t_read, back = timeit(read, reps=5)
        assert back.equals(t)
        out.update({f"{label}_write_sec": round(t_write, 4), f"{label}_bytes": len(data),
                    f"{label}_read_sec": round(t_read, 4)})
    return out


def bench_run_width(partitions: int = 32) -> dict:
    """The ingest run writer over the eight raw ``tail_bulk`` segments
    (validate, ok LWW order, ``_encode_stored``, payload take, parquet
    encode with the run write options; no fsync) with the token payload
    packed at its logical width (int32) against the shipped narrowest
    width (uint16 for the 50,000-token vocabulary), then the read fold
    over each side's eight runs (one range: read, decode, concat,
    encode, LWW fold, decode). Identical decoded runs, run names and
    fold output asserted."""
    import raycdc.lake as lake_mod
    from raycdc.apply import last_writer_per_key
    from raycdc.lake import _decode_stored, _encode_stored, _write_options, ok_lww_order
    from raycdc.routing import stamp_route

    segs = _raw_segments()
    narrowest = lake_mod._narrowest

    def write() -> list[tuple[bytes, str]]:
        out = []
        for s in segs:
            t, order = ok_lww_order(stamp_route(s, "doc_id"), "doc_id", partitions)
            t = last_writer_per_key(_encode_stored(t, order), order=order)
            buf = io.BytesIO()
            pq.write_table(t, buf, row_group_size=max(2048, -(-t.num_rows // partitions)),
                           **_write_options(t))
            out.append((buf.getvalue(), _run_name(t)))
        return out

    def fold(runs: list[tuple[bytes, str]]) -> pa.Table:
        parts = [_decode_stored(pq.read_table(io.BytesIO(data))) for data, _ in runs]
        t = _encode_stored(pa.concat_tables(parts, promote_options="permissive"))
        return _decode_stored(last_writer_per_key(t))

    out = {"kernel": "run_width", "segments": len(segs)}
    results = {}
    for label, packed in (("logical_int32", lambda lo, hi: pa.int64()), ("shipped_narrowest", narrowest)):
        lake_mod._narrowest = packed  # int64 is never narrower than the logical type
        try:
            t_write, runs = timeit(write, reps=5)
            t_fold, folded = timeit(lambda: fold(runs), reps=5)
        finally:
            lake_mod._narrowest = narrowest
        results[label] = (runs, folded)
        out.update({f"{label}_write_sec": round(t_write, 4), f"{label}_fold_sec": round(t_fold, 4),
                    f"{label}_bytes": sum(len(d) for d, _ in runs)})
    (wide, wide_fold), (narrow, narrow_fold) = results.values()
    assert [n for _, n in wide] == [n for _, n in narrow]
    assert all(_decode_stored(pq.read_table(io.BytesIO(a))).equals(_decode_stored(pq.read_table(io.BytesIO(b))))
               for (a, _), (b, _) in zip(wide, narrow))
    assert wide_fold.equals(narrow_fold)
    out["fold_rows"] = narrow_fold.num_rows
    return out


def bench_epoch_groups(cpus: tuple[int, ...] = (1, 4), pairs: int = 5,
                       partitions: int = 32) -> dict:
    """``tail_once`` of one epoch — the eight raw ``tail_bulk`` seed-7
    segments into a 32-partition lake seeded with that workload's 50,000
    base rows — folding each segment alone (one run per segment, the
    replaced fold unit) against the shipped one run per
    ``tailer.segment_groups`` group, in a Ray session of ``n`` CPUs for
    each ``n`` in ``cpus``. Each pair builds both lakes (untimed) and
    times one ``tail_once`` on each, the side that goes first
    alternating; the first pair is a warm-up. Reports each side's runs,
    run rows, run bytes and median seconds, and asserts that ``read()``
    returns the same rows both ways. Starts its own Ray sessions."""
    import logging
    import shutil
    import tempfile

    import ray
    import ray.data

    from raycdc import tailer
    from raycdc.apply import base_as_inserts
    from raycdc.lake import LakeTable
    from raycdc.synth import base_table

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    segs = _raw_segments()
    base = base_table(50_000, seed=7, min_len=48, max_len=192)
    shipped = tailer.segment_groups
    sides = {"per_segment": lambda rows: [[i] for i in range(len(rows))], "shipped_groups": shipped}
    work = tempfile.mkdtemp(prefix="epoch_groups_")
    out = {"kernel": "epoch_groups", "segments": len(segs), "events": sum(s.num_rows for s in segs)}
    try:
        log = os.path.join(work, "log")
        for k, seg in enumerate(segs):
            tailer.publish_segment(log, f"seg-{k:05d}.parquet", seg)
        for n in cpus:
            ray.init(address="local", num_cpus=n, include_dashboard=False, logging_level="ERROR",
                     log_to_driver=False, runtime_env={"env_vars": {"PYTHONPATH": root}})
            ctx = ray.data.DataContext.get_current()
            ctx.enable_progress_bars = ctx.print_on_execution_start = False
            logging.getLogger("ray.data").setLevel(logging.ERROR)
            secs, lakes = {side: [] for side in sides}, {}
            try:
                for rep in range(pairs + 1):
                    for side in (list(sides) if rep % 2 else list(sides)[::-1]):
                        lk = LakeTable(os.path.join(work, f"lake-{n}-{rep}-{side}"),
                                       num_partitions=partitions)
                        lk.init()
                        lk.apply(base_as_inserts(ray.data.from_arrow(base)), ["__base__"])
                        tailer.segment_groups = sides[side]
                        try:
                            t0 = time.perf_counter()
                            tailer.tail_once(lk, log)
                            took = time.perf_counter() - t0
                        finally:
                            tailer.segment_groups = shipped
                        if rep:
                            secs[side].append(took)
                        if lakes.get(side):
                            shutil.rmtree(lakes[side].path)
                        lakes[side] = lk
                rows = {}
                for side in sides:
                    lk = lakes[side]
                    runs = [e for e in lk.manifest()["l0"] if e["file"].startswith("state/e000002/")]
                    parts = list(lk.read().iter_batches(batch_size=None, batch_format="pyarrow"))
                    rows[side] = pa.concat_tables(parts).sort_by("doc_id").combine_chunks()
                    out.update({f"{side}_cpus{n}_runs": len(runs),
                                f"{side}_cpus{n}_run_rows": sum(e["rows"] for e in runs),
                                f"{side}_cpus{n}_run_bytes": sum(
                                    os.path.getsize(os.path.join(lk.path, e["file"])) for e in runs),
                                f"{side}_cpus{n}_sec": round(float(np.median(secs[side])), 4)})
                assert rows["per_segment"].equals(rows["shipped_groups"])
                out[f"cpus{n}_secs"] = {side: [round(x, 4) for x in v] for side, v in secs.items()}
            finally:
                ray.shutdown()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


if __name__ == "__main__":
    print(json.dumps(bench_pairgen()))
    print(json.dumps(bench_jaccard()))
    print(json.dumps(bench_lww_write_run()))
    print(json.dumps(bench_lww_unordered_fold()))
    print(json.dumps(bench_deid_prefold()))
    print(json.dumps(bench_deid_seal()))
    print(json.dumps(bench_run_encode()))
    print(json.dumps(bench_run_width()))
    print(json.dumps(bench_epoch_groups()))
