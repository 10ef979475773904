"""Deterministic synthesis of the input tables (FIXTURES.md F1/F2/F3) and
the single-process golden oracle fold (F5).

Everything is seeded and **counter-based**: row ``i`` of the base table and
event ``lsn`` of the changelog are pure functions of ``(seed, i)`` /
``(seed, lsn)``, so the same logical stream is produced regardless of
parallelism or partitioning (SURVEY.md §7.4 "deterministic synthesis at
two scales").

Reference analogs:
* base table  ≈ the LGG-104 DICOM fixture slices (one key group, shared
  group-level fields) — ``/root/reference/src/test/resources/dicom/``
* changelog   ≈ records arriving at ListenDICOM plus the change sets of
  ``getRemovedOrModified`` (``DeidentifyEncryptDICOM.java:406``)
* malformed events ≈ garbage ``empty.csv`` enqueued as DICOM
  (``DeidentifyDICOMTest.java:179-195``) → dead-letter route
* duplicate replays ≈ MERGE-if-absent convergence
  (``DeidentificationController.java:110-117``)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from raycdc.apply import LSN, OP, OPS, is_tombstone
from raycdc.util import counter_rng_u64, splitmix64

VOCAB_SIZE = 50_000
SOURCES = ("web", "books", "code")

BASE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)

EVENT_SCHEMA = pa.schema(
    [
        (LSN, pa.int64()),
        (OP, pa.string()),
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)


def _doc_ids(indices: np.ndarray) -> pa.Array:
    # U20 holds any int64; zfill pads short ids (astype("U8") would
    # silently truncate indices >= 10^8 and collide ids at design scale)
    return pa.array(np.char.add("doc-", np.char.zfill(indices.astype("U20"), 8)))


def _tokens_for(seed: int, counters: np.ndarray, min_len: int, max_len: int):
    """Vectorized ragged token generation: lengths and values are pure
    functions of (seed, counter). Returns (ListArray<int32>, lengths int32)."""
    span = max(1, max_len - min_len + 1)
    lengths = (counter_rng_u64(seed ^ 0xA5A5, counters) % np.uint64(span)).astype(np.int64) + min_len
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    # token j of row i = f(seed, counter_i, j): build flat counter stream
    row_base = splitmix64(counter_rng_u64(seed ^ 0x1234, counters))
    flat_base = np.repeat(row_base, lengths)
    flat_j = np.arange(total, dtype=np.uint64) - np.repeat(offsets[:-1].astype(np.uint64), lengths)
    vals = (splitmix64(flat_base ^ splitmix64(flat_j)) % np.uint64(VOCAB_SIZE)).astype(np.int32)
    arr = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), pa.array(vals))
    return arr, lengths.astype(np.int32)


def base_table(
    n_rows: int,
    seed: int = 42,
    min_len: int = 64,
    max_len: int = 1024,
    row_offset: int = 0,
) -> pa.Table:
    """F1 base table slice covering row indices [row_offset, row_offset+n_rows)."""
    idx = np.arange(row_offset, row_offset + n_rows, dtype=np.int64)
    tokens, n_tok = _tokens_for(seed, idx, min_len, max_len)
    src_pick = counter_rng_u64(seed ^ 0x50FC, idx) % np.uint64(len(SOURCES))
    source = pa.array(np.array(SOURCES, dtype=object)[src_pick.astype(np.int64)])
    return pa.table(
        {
            "doc_id": _doc_ids(idx),
            "tokens": tokens,
            "n_tok": pa.array(n_tok),
            "source": source,
        },
        schema=BASE_SCHEMA,
    )


@dataclass(frozen=True)
class EventGenConfig:
    """Knobs per FIXTURES.md F2 (all seeded, parallelism-independent)."""

    n_events: int
    n_base: int
    seed: int = 42
    pct_insert: float = 0.2
    pct_update: float = 0.6
    pct_delete: float = 0.2
    pct_malformed: float = 0.01
    hot_key_share: float = 0.1
    hot_key_count: int = 1
    dup_replay_rate: float = 0.0
    min_len: int = 64
    max_len: int = 1024
    lsn_offset: int = 0  # first lsn is lsn_offset + 1


def events_table(cfg: EventGenConfig, lsn_lo: int | None = None, lsn_hi: int | None = None) -> pa.Table:
    """Generate events with lsn in [lsn_lo, lsn_hi) — defaults to the full
    range [offset+1, offset+1+n_events). Slicing by lsn range is how
    distributed generation stays deterministic: any worker can produce any
    slice and the union is always the same stream."""
    lo = cfg.lsn_offset + 1 if lsn_lo is None else lsn_lo
    hi = cfg.lsn_offset + 1 + cfg.n_events if lsn_hi is None else lsn_hi
    lsn = np.arange(lo, hi, dtype=np.int64)
    n = len(lsn)
    u_op = counter_rng_u64(cfg.seed ^ 0x09, lsn) % np.uint64(1_000_000)
    p_ins = int(cfg.pct_insert * 1_000_000)
    p_upd = p_ins + int(cfg.pct_update * 1_000_000)
    op_idx = np.where(u_op < p_ins, 0, np.where(u_op < p_upd, 1, 2))
    op = pa.array(np.array(OPS, dtype=object)[op_idx])

    # target key: inserts mint new ids keyed by lsn; update/delete pick an
    # existing base index — hot keys get `hot_key_share` of the traffic.
    u_hot = counter_rng_u64(cfg.seed ^ 0x0B, lsn) % np.uint64(1_000_000)
    is_hot = u_hot < int(cfg.hot_key_share * 1_000_000)
    tgt = counter_rng_u64(cfg.seed ^ 0x0C, lsn)
    base_idx = (tgt % np.uint64(max(1, cfg.n_base))).astype(np.int64)
    hot_idx = (tgt % np.uint64(max(1, cfg.hot_key_count))).astype(np.int64)
    key_idx = np.where(is_hot, hot_idx, base_idx)
    ids = np.char.add("doc-", np.char.zfill(key_idx.astype("U20"), 8)).astype(object)
    new_ids = np.char.add("doc-new-", np.char.zfill(lsn.astype("U20"), 8)).astype(object)
    doc_id = pa.array(np.where(op_idx == 0, new_ids, ids))

    tokens, n_tok = _tokens_for(cfg.seed ^ 0x7077, lsn, cfg.min_len, cfg.max_len)
    src_pick = counter_rng_u64(cfg.seed ^ 0x51, lsn) % np.uint64(len(SOURCES))
    source = np.array(SOURCES, dtype=object)[src_pick.astype(np.int64)]

    # malformed: n_tok inconsistent with tokens → must be dead-lettered
    u_bad = counter_rng_u64(cfg.seed ^ 0xBAD, lsn) % np.uint64(1_000_000)
    is_bad = u_bad < int(cfg.pct_malformed * 1_000_000)
    n_tok = np.where(is_bad, n_tok + 1, n_tok).astype(np.int32)

    # deletes carry no payload: drop their token spans so null entries are
    # zero-length (parquet rejects non-zero-length null list components)
    is_del = op_idx == 2
    full_lens = np.asarray(tokens.value_lengths()).astype(np.int64)
    kept_lens = np.where(is_del, 0, full_lens)
    keep_vals = np.repeat(~is_del, full_lens)
    new_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(kept_lens, out=new_off[1:])
    vals = np.asarray(tokens.values)[keep_vals]
    tokens = pa.ListArray.from_arrays(
        pa.array(new_off, type=pa.int32()), pa.array(vals, type=pa.int32()), mask=pa.array(is_del)
    )
    n_tok_arr = pa.array(np.ma.masked_array(n_tok, mask=is_del))
    source_arr = pa.array(np.where(is_del, None, source))

    return pa.table(
        {
            LSN: pa.array(lsn),
            OP: op,
            "doc_id": doc_id,
            "tokens": tokens,
            "n_tok": n_tok_arr,
            "source": source_arr,
        },
        schema=EVENT_SCHEMA,
    )


def with_replays_and_disorder(events: pa.Table, cfg: EventGenConfig) -> pa.Table:
    """Append exact duplicate replays (idempotence test) and shuffle
    delivery order (tests per-key sort-by-LSN). Deterministic."""
    n = events.num_rows
    out = events
    n_dup = int(cfg.dup_replay_rate * n)
    if n_dup:
        pick = (counter_rng_u64(cfg.seed ^ 0xD0B, np.arange(n_dup, dtype=np.int64)) % np.uint64(n)).astype(np.int64)
        out = pa.concat_tables([out, events.take(pa.array(pick))])
    perm = np.argsort(counter_rng_u64(cfg.seed ^ 0x5F, np.arange(out.num_rows, dtype=np.int64)), kind="stable")
    return out.take(pa.array(perm))


def _write_segment(out_dir: str, cfg: EventGenConfig, k: int, lo: int, hi: int) -> str:
    seg = events_table(cfg, lsn_lo=lo, lsn_hi=hi)
    seg = with_replays_and_disorder(seg, cfg)
    p = os.path.join(out_dir, f"seg-{k:05d}.parquet")
    pq.write_table(seg, p)
    return p


def write_changelog(
    out_dir: str,
    cfg: EventGenConfig,
    n_segments: int = 4,
    use_ray: bool = False,
) -> list[str]:
    """Write the changelog as append-only parquet segments
    ``seg-{k:05d}.parquet`` (the WAL the tailer reads, SURVEY.md §7.1).
    Each segment covers a contiguous lsn range but is shuffled within.
    ``use_ray`` fans segment generation out as Ray tasks — output is
    byte-identical to the serial path (counter-based generation)."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(cfg.lsn_offset + 1, cfg.lsn_offset + 1 + cfg.n_events, n_segments + 1).astype(np.int64)
    args = [(k, int(bounds[k]), int(bounds[k + 1])) for k in range(n_segments)]
    if use_ray:
        import ray

        task = ray.remote(_write_segment)
        return ray.get([task.remote(out_dir, cfg, k, lo, hi) for k, lo, hi in args])
    return [_write_segment(out_dir, cfg, k, lo, hi) for k, lo, hi in args]


def _write_base_file(out_dir: str, k: int, cnt: int, lo: int, seed: int, kw: dict) -> str:
    p = os.path.join(out_dir, f"base-{k:05d}.parquet")
    pq.write_table(base_table(cnt, seed=seed, row_offset=lo, **kw), p)
    return p


def write_base(
    out_dir: str, n_rows: int, seed: int = 42, n_files: int = 4, use_ray: bool = False, **kw
) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    per = (n_rows + n_files - 1) // n_files
    args = []
    for k in range(n_files):
        lo = k * per
        cnt = min(per, n_rows - lo)
        if cnt <= 0:
            break
        args.append((k, cnt, lo))
    if use_ray:
        import ray

        task = ray.remote(_write_base_file)
        return ray.get([task.remote(out_dir, k, cnt, lo, seed, kw) for k, cnt, lo in args])
    return [_write_base_file(out_dir, k, cnt, lo, seed, kw) for k, cnt, lo in args]


# ---------------------------------------------------------------- oracle


def is_malformed_mask(events: pa.Table) -> np.ndarray:
    """An event is malformed iff its declared n_tok disagrees with the
    actual token-list length, or a non-delete carries no payload.
    Fully vectorized (pyarrow.compute; no Python-object conversion).
    Streams without the tokens payload columns have no payload invariant
    to violate — returns all-False (schema-tolerant, like every rule)."""
    import pyarrow.compute as pc

    if "tokens" not in events.column_names or "n_tok" not in events.column_names:
        return np.zeros(events.num_rows, dtype=bool)
    # lengths of the column as given: combine_chunks would copy the payload
    lens = pc.fill_null(pc.list_value_length(events["tokens"]).cast(pa.int64()), -1)
    n_tok = pc.fill_null(events["n_tok"].cast(pa.int64()), -1)
    wrong = pc.or_(pc.less(lens, 0), pc.not_equal(n_tok, lens)).to_numpy(zero_copy_only=False)
    return ~is_tombstone(events[OP]) & np.asarray(wrong, dtype=bool)


def fold_events(base: pa.Table, events: pa.Table) -> pa.Table:
    """Single-process golden oracle (FIXTURES.md F5): sort all events by
    lsn, fold over a dict, return the converged table sorted by doc_id.

    Semantics (the contract the distributed engine must match):
    * malformed events are skipped (dead-letter);
    * ``insert``/``update`` are full-row upserts (MERGE semantics);
    * ``delete`` removes the key; delete of an absent key is a no-op;
    * duplicate (doc_id, lsn) replays are no-ops by idempotence;
    * last (highest-lsn) writer wins.
    """
    state: dict[str, tuple] = {}
    for row in base.to_pylist():
        state[row["doc_id"]] = (row["tokens"], row["n_tok"], row["source"])
    bad = is_malformed_mask(events)
    ev = events.filter(pa.array(~bad))
    ev = ev.sort_by("lsn")
    for row in ev.to_pylist():
        if row["op"] == "delete":
            state.pop(row["doc_id"], None)
        else:
            state[row["doc_id"]] = (row["tokens"], row["n_tok"], row["source"])
    keys = sorted(state)
    return pa.table(
        {
            "doc_id": pa.array(keys),
            "tokens": pa.array([state[k][0] for k in keys], type=pa.list_(pa.int32())),
            "n_tok": pa.array([state[k][1] for k in keys], type=pa.int32()),
            "source": pa.array([state[k][2] for k in keys]),
        },
        schema=BASE_SCHEMA,
    )
