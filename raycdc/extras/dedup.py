"""Deduplication at scale: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (ray_guide "Near-dup (MinHash-LSH)"):
* exact      — hash column (vectorized) → combiner groupby (partial min/
               count per batch, tiny shuffle)
* minhash    — per-batch shingle→minhash (numpy-vectorized per row) →
               explode to (band, band_hash, doc) rows → ONE ``_by_key``
               shuffle on the band → candidate pairs per band run →
               Jaccard verify. Only banded signatures shuffle, never the
               text corpus.
* simhash    — 64-bit signature per doc; near-dups via 4-band exact-match
               bucketing (Hamming ≤ 3 guaranteed caught by pigeonhole
               when bands = hamming_budget + 1), same shuffle shape.
* embedding  — random-hyperplane LSH bucketing, ONE ``_by_key`` shuffle
               on (table, LSH bucket), cosine verify per bucket run.

Every pair stage folds a whole shuffle bucket (many band/LSH runs) with
one sort; no stage runs a UDF per band value.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from raycdc.extras.texthash import hamming64
from raycdc.ops import (_by_key, _distinct, _frame, _Frame, _run_boundaries, _run_pairs,
                        _sorted_runs, partial_groupby_agg)

_MERSENNE = (1 << 61) - 1


def _md5_col(values) -> list[str]:
    return [hashlib.md5((v or "").encode()).hexdigest() for v in values]


def _segment_gather(vals: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a ListArray's (values, offsets) into one contiguous array of
    per-row segments plus the per-row lengths — safe for sliced arrays
    whose offsets don't start at 0 or don't tile the values buffer."""
    lens = np.diff(off)
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, vals.dtype), lens
    starts = np.repeat(off[:-1], lens)
    within = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    return vals[starts + within], lens


def _content_key(t: pa.Table, text_col: str, kernel: str) -> pa.Array:
    """Content key for exact dedup. ``kernel``:

    * ``"sip"`` (engine default) — C-speed VECTORIZED keyed siphash
      (``util.str_hash_u64``): one pandas/numpy pass per batch, ~10-40x
      the md5 loop's throughput (see BASELINE.md kernel bench) — the
      round-2 verdict's per-row-Python fix for corpus-wide paths.
    * ``"md5"`` — per-row C digest in a Python loop; kept SOLELY for
      DuckDB-oracle parity (SQL ``md5(coalesce(text,''))``) — the ★
      oracle queries pass it explicitly.
    """
    if kernel == "md5":
        return pa.array(_md5_col(t[text_col].to_pylist()))
    if kernel != "sip":
        raise ValueError(f"unknown content hash kernel {kernel!r}")
    from raycdc.util import str_hash_u64

    return pa.array(str_hash_u64(t[text_col]).view(np.int64), pa.int64())


# ------------------------------------------------------------------- exact
def exact_dedup(ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id",
                content_hash: str = "sip"):
    """Content-hash groups with first-writer winner + dup count (D1).
    ``content_hash``: see :func:`_content_key` (sip = vectorized engine
    default; md5 = oracle-parity variant)."""

    def h(t: pa.Table) -> pa.Table:
        return pa.table({"h": _content_key(t, text_col, content_hash), id_col: t[id_col]})

    hashed = ds.map_batches(h, batch_format="pyarrow")
    return partial_groupby_agg(hashed, "h", {"keep_id": (id_col, "min"), "dups": (id_col, "count")})


def exact_dedup_rows(ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id",
                     num_buckets: int = 64, batch_size: int = 8192,
                     content_hash: str = "sip"):
    """The deduplicated dataset itself: one surviving row per content
    hash (min id wins). Hash-group shuffle carries full rows — use when
    the surviving corpus is the product.

    Scale shape: a per-batch local dedup first (rows shrink before the
    shuffle), then ONE hash-bucket groupby (bounded group count — never
    one map_groups call per distinct content) with a vectorized
    sort + run-boundary dedup inside each bucket. ``content_hash``: see
    :func:`_content_key`."""

    def h(t: pa.Table) -> pa.Table:
        t = t.append_column("_h", _content_key(t, text_col, content_hash))
        return _first_per_hash(t, id_col)  # local combiner: ≤1 row/hash/batch

    def first(bucket: pa.Table) -> pa.Table:
        return _first_per_hash(bucket, id_col).drop_columns(["_h"])

    return _by_key(ds, "_h", first, num_buckets, batch_size, prep=h)


def _first_per_hash(t: pa.Table, id_col: str) -> pa.Table:
    """Vectorized keep-first-(by id)-per-``_h``: sort by (_h, id), keep
    run starts."""
    if t.num_rows <= 1:
        return t
    idx = pc.sort_indices(t, sort_keys=[("_h", "ascending"), (id_col, "ascending")])
    t = t.take(idx)
    hs = t.column("_h").combine_chunks()
    n = t.num_rows
    neq = pc.not_equal(hs.slice(1), hs.slice(0, n - 1))
    mask = np.ones(n, dtype=bool)
    mask[1:] = np.asarray(neq.fill_null(True))
    return t.filter(pa.array(mask))


# ----------------------------------------------------------------- minhash
class MinHasher:
    """Per-batch shingle→MinHash signatures + banded keys, fully
    vectorized (Arrow tokenize → flat siphash → numpy rolling k-grams →
    ``minimum.reduceat`` signatures → folded band keys). Stateful actor:
    permutation coefficients generated once (seeded).

    Emits ONLY ``(id, band, band_key)`` — signatures, never text, go
    through the band shuffle; candidate texts are fetched in a separate
    verification pass (see :func:`minhash_near_dup`)."""

    def __init__(
        self,
        text_col: str = "text",
        id_col: str = "doc_id",
        k_shingle: int = 5,
        num_perm: int = 64,
        bands: int = 16,
        seed: int = 42,
    ):
        assert num_perm % bands == 0
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
        self.text_col, self.id_col = text_col, id_col
        self.k = k_shingle
        self.num_perm, self.bands = num_perm, bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        from raycdc.extras.texthash import (
            band_fold,
            gram_hashes,
            minhash_signatures,
            word_hash_flat,
        )

        n = batch.num_rows
        fh, offs = word_hash_flat(batch[self.text_col])
        grams, goffs = gram_hashes(fh, offs, self.k)
        sig = minhash_signatures(grams, goffs, self.a, self.b)
        keys = band_fold(sig, self.bands)  # (n, bands) uint64
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), self.bands))
        ids = batch[self.id_col].combine_chunks().take(idx)
        return pa.table(
            {
                self.id_col: ids,
                "band": pa.array(np.tile(np.arange(self.bands, dtype=np.int32), n)),
                "band_key": pa.array(keys.reshape(-1).view(np.int64)),
            }
        )


def jaccard(a: str, b: str, k: int = 5) -> float:
    """Word-k-gram Jaccard similarity (the verify step)."""
    def grams(t):
        ws = re.sub(r"\s+", " ", (t or "").lower().strip()).split(" ")
        if len(ws) < k:
            return {" ".join(ws)}
        return {" ".join(ws[i : i + k]) for i in range(len(ws) - k + 1)}

    ga, gb = grams(a), grams(b)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / max(1, len(ga | gb))


def _dedup_pair_rows(cand: ray.data.Dataset, num_buckets: int = 64) -> ray.data.Dataset:
    """Deduplicate (id_a, id_b) rows found via multiple bands with ONE
    bounded-fan-out shuffle: bucket by pair hash (never one map_groups
    group per pair), vectorized sort + run-boundary dedup per bucket."""

    def uniq(g: pa.Table) -> pa.Table:
        return _distinct(g, ["id_a", "id_b"])

    return _by_key(cand, ["id_a", "id_b"], uniq, num_buckets, None)


def _band_runs(g: pa.Table, band_cols: list[str], id_col: str, max_bucket: int,
               unique: bool, counter: str | None = None,
               metrics_name: str | None = None) -> tuple[pa.Table, _Frame]:
    """Sort a bucket of banded rows by (``band_cols``, id) and keep the
    first ``max_bucket`` ids of each band run (the degenerate-bucket
    guardrail: a run of b members yields O(b²) pairs). ``unique`` drops
    repeated ids within a run first. The dropped members are counted
    into ``counter`` with one ``incr`` when ``metrics_name`` is given.
    Returns the kept rows and their run frame."""
    g, fr = _sorted_runs(g, [(c, "ascending") for c in [*band_cols, id_col]], band_cols[0])
    new = fr.new
    for c in band_cols[1:]:
        new = new | _run_boundaries(g.column(c), g.num_rows)
    keep = (new | _run_boundaries(g.column(id_col), g.num_rows)) if unique else np.ones_like(new)
    fr = _frame(new[keep])
    cap = np.arange(len(fr.run)) - fr.first < max_bucket
    dropped = int(len(cap) - cap.sum())
    if dropped and metrics_name is not None:
        from raycdc.metrics import Metrics

        Metrics(metrics_name).incr(counter, dropped)
    return g.take(pa.array(np.flatnonzero(keep)[cap])), _frame(fr.new[cap])


def candidate_pairs_from_bands(
    banded: ray.data.Dataset,
    id_col: str = "doc_id",
    max_bucket: int = 512,
    metrics_name: str | None = None,
) -> ray.data.Dataset:
    """(id_a, id_b) candidate pairs from a banded-signature dataset,
    deduplicated across bands: ONE :func:`_by_key` shuffle on (band,
    band_key), every distinct-id pair of each band run from
    :func:`_run_pairs`, then :func:`_dedup_pair_rows`.

    Skew guardrail: a degenerate bucket (boilerplate/empty docs sharing
    a band key) would otherwise emit O(b²) pairs on one reducer —
    buckets are capped at ``max_bucket`` members (deterministic: sorted,
    first N kept) and the number of dropped members is counted into the
    metrics actor when ``metrics_name`` is given."""

    def pairs(g: pa.Table) -> pa.Table:
        g, fr = _band_runs(g, ["band", "band_key"], id_col, max_bucket, unique=True,
                           counter="minhash_bucket_truncated", metrics_name=metrics_name)
        ia, ib = _run_pairs(fr)
        ids = g.column(id_col)
        return pa.table({"id_a": ids.take(pa.array(ia)), "id_b": ids.take(pa.array(ib))})

    return _dedup_pair_rows(_by_key(banded, ["band", "band_key"], pairs, 64, None))


def gram_sets_dataset(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
    id_out: str | None = None,
    grams_out: str = "grams",
    batch_size: int = 2048,
) -> ray.data.Dataset:
    """(id, sorted-unique word-k-gram hash set) per document — one
    streaming, fully vectorized pass over the corpus (flat siphash words →
    rolling k-grams → per-row unique via one lexsort + boundary mask).
    No driver state; the gram sets live in list<int64> Arrow columns."""
    from raycdc.extras.texthash import gram_hashes, word_hash_flat

    id_name = id_out or id_col

    def f(t: pa.Table) -> pa.Table:
        n = t.num_rows
        fh, offs = word_hash_flat(t[text_col])
        grams, goffs = gram_hashes(fh, offs, k)
        row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(goffs))
        order = np.lexsort((grams, row_ids))
        g, r = grams[order], row_ids[order]
        keep = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            keep[1:] = (g[1:] != g[:-1]) | (r[1:] != r[:-1])
        g, r = g[keep], r[keep]
        counts = np.bincount(r, minlength=n) if n else np.zeros(0, np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        arr = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            pa.array(g.view(np.int64), type=pa.int64()),
        )
        return pa.table({id_name: t[id_col], grams_out: arr})

    return ds.map_batches(f, batch_format="pyarrow", batch_size=batch_size)


def verify_jaccard_pairs_ds(
    ds: ray.data.Dataset,
    pairs: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 5,
    threshold: float = 0.0,
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Distributed exact word-k-gram Jaccard for a candidate-pair STREAM.

    The pairs stay a Dataset end to end (round-2 verdict: no candidate
    pairs / gram-set dicts on the driver — on a duplication-heavy corpus
    candidates are O(corpus)). Shape: two :func:`raycdc.ops.hash_join`s
    attach each side's gram set to the pair rows through bounded bucket
    shuffles; a streaming map_batches then scores Jaccard per pair.
    Cost: two corpus gram passes + two shuffles of O(corpus grams) bytes,
    independent of the duplication rate. Pairs whose ids are missing from
    the corpus drop at the inner joins (same contract as before)."""
    from raycdc.ops import hash_join

    ga = gram_sets_dataset(ds, text_col, id_col, k, id_out="id_a", grams_out="_grams_a")
    gb = gram_sets_dataset(ds, text_col, id_col, k, id_out="id_b", grams_out="_grams_b")
    j = hash_join(pairs, ga, key="id_a", num_buckets=num_buckets)
    j = hash_join(j, gb, key="id_b", num_buckets=num_buckets)

    def score(t: pa.Table) -> pa.Table:
        id_type = t.schema.field("id_a").type
        n = t.num_rows
        if n == 0:
            return pa.table({"id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
                             "jaccard": pa.array([], pa.float64())})
        a = t["_grams_a"].combine_chunks()
        b = t["_grams_b"].combine_chunks()
        # .values/.offsets (not flatten) stay correct for sliced arrays
        fa = a.values.to_numpy(zero_copy_only=False).view(np.uint64)
        oa = np.asarray(a.offsets, dtype=np.int64)
        fb = b.values.to_numpy(zero_copy_only=False).view(np.uint64)
        ob = np.asarray(b.offsets, dtype=np.int64)
        # per-pair numpy intersect on the flat buffers. MEASURED choice
        # (scripts/kernel_bench.py, BASELINE.md round-5 kernel table): a
        # "fully vectorized" variant — lexsort of the tagged (pair, gram)
        # stream + segment-boundary distinct counts — is 8-25x SLOWER at
        # every realistic shape (u64 comparison lexsort dominates; the
        # per-pair np.intersect1d on tiny unique sets is C-speed with
        # only ~5 µs/pair call overhead), so the loop over PAIRS (not
        # rows/grams: the candidate set is orders smaller than the
        # corpus) is the fast kernel here.
        js = np.empty(n, dtype=np.float64)
        for i in range(n):
            sa = fa[oa[i]:oa[i + 1]]
            sb = fb[ob[i]:ob[i + 1]]
            inter = len(np.intersect1d(sa, sb, assume_unique=True))
            union = len(sa) + len(sb) - inter
            js[i] = 1.0 if union == 0 else inter / union
        keep = js >= threshold
        mask = pa.array(keep)
        return pa.table({
            "id_a": t["id_a"].filter(mask),
            "id_b": t["id_b"].filter(mask),
            "jaccard": pa.array(np.round(js[keep], 6), pa.float64()),
        })

    return j.map_batches(score, batch_format="pyarrow")


def minhash_near_dup(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    k_shingle: int = 5,
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.8,
    concurrency: int | tuple[int, int] = (1, 4),
    batch_size: int = 2048,
    max_bucket: int = 512,
    metrics_name: str | None = None,
) -> ray.data.Dataset:
    """Candidate generation by banded MinHash, verification by exact
    k-gram Jaccard. Returns (id_a, id_b, jaccard) pairs with
    id_a < id_b, deduplicated across bands.

    Scale shape: the band shuffle moves ONLY (id, band, band_key) rows —
    signature bytes, never the corpus (round-1 shipped text ×bands).
    Verification is fully distributed (:func:`verify_jaccard_pairs_ds`):
    pairs and gram sets stay Datasets end to end — nothing candidate-
    sized ever lands on the driver. Buckets are capped (``max_bucket``)
    against degenerate band collisions."""
    mh = dict(
        text_col=text_col, id_col=id_col, k_shingle=k_shingle, num_perm=num_perm, bands=bands
    )
    banded = ds.map_batches(
        MinHasher,
        fn_constructor_kwargs=mh,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    cand = candidate_pairs_from_bands(
        banded, id_col=id_col, max_bucket=max_bucket, metrics_name=metrics_name
    )
    return verify_jaccard_pairs_ds(
        ds, cand, text_col=text_col, id_col=id_col, k=k_shingle, threshold=threshold
    )


# ----------------------------------------------------------------- simhash
class SimHasher:
    """64-bit SimHash over word hashes (fully vectorized: Arrow word
    split → flat siphash → per-bit vote sums via ``np.add.reduceat``);
    also emits 4 16-bit band keys so Hamming-≤3 near-dups can be found
    by exact band-match bucketing."""

    WORD_SEP = r"[^a-z0-9_]+"  # RE2 separator ≈ \w+ tokens, lowercased

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col, self.id_col = text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from raycdc.extras.texthash import simhash_bits, word_hash_flat

        fh, offs = word_hash_flat(batch[self.text_col], pattern=self.WORD_SEP)
        arr = simhash_bits(fh, offs)
        t = pa.table({self.id_col: batch[self.id_col]})
        t = t.append_column("simhash", pa.array(arr.view(np.int64), type=pa.int64()))
        for b in range(4):
            band = ((arr >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int32)
            t = t.append_column(f"sh_band{b}", pa.array(band))
        return t


def simhash_signatures(ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id",
                       concurrency: int | tuple[int, int] = (1, 4), batch_size: int = 2048) -> ray.data.Dataset:
    return ds.map_batches(
        SimHasher,
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def simhash_near_dup(ds: ray.data.Dataset, text_col: str = "text", id_col: str = "doc_id",
                     max_hamming: int = 3, max_bucket: int = 4096,
                     metrics_name: str | None = None) -> ray.data.Dataset:
    """Near-dups by SimHash: 4-band bucketing (pigeonhole: any pair with
    Hamming ≤ 3 agrees on ≥ 1 of 4 bands) then exact Hamming verify.

    Single-shuffle shape: signatures explode to one row per (band_id,
    band_value) — 4 rows/doc — and ONE :func:`_by_key` shuffle on
    (band_id, band_value) co-locates each band run; per bucket one sort,
    pairs from :func:`_run_pairs`, Hamming verify on the pair arrays.
    (An earlier 4-way union of per-band groupbys deadlocked the streaming
    executor and shuffled 4 separate times.)"""
    sigs = simhash_signatures(ds, text_col, id_col)

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        parts = []
        for b in range(4):
            parts.append(
                pa.table(
                    {
                        id_col: t[id_col],
                        "simhash": t["simhash"],
                        "band_id": pa.array(np.full(n, b, dtype=np.int32)),
                        "band_val": t[f"sh_band{b}"],
                    }
                )
            )
        return pa.concat_tables(parts)

    exploded = sigs.map_batches(explode, batch_format="pyarrow")

    def pairs(g: pa.Table) -> pa.Table:
        g, fr = _band_runs(g, ["band_id", "band_val"], id_col, max_bucket, unique=False,
                           counter="simhash_bucket_truncated", metrics_name=metrics_name)
        ia, ib = _run_pairs(fr)
        sh = np.asarray(g.column("simhash")).view(np.uint64)
        hs = hamming64(sh[ia], sh[ib])
        keep = hs <= max_hamming
        ids = g.column(id_col)
        return pa.table({"id_a": ids.take(pa.array(ia[keep])),
                         "id_b": ids.take(pa.array(ib[keep])),
                         "hamming": pa.array(hs[keep], pa.int64())})

    return _dedup_pair_rows(_by_key(exploded, ["band_id", "band_val"], pairs, 64, None))


# --------------------------------------------------------------- embeddings
def embedding_near_dup(
    ds: ray.data.Dataset,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    n_planes: int = 8,
    n_tables: int = 1,
    seed: int = 42,
    max_bucket: int = 8192,
) -> ray.data.Dataset:
    """Cosine near-dup via random-hyperplane LSH bucketing + in-bucket
    verification. Pairs missed by bucketing are the LSH recall tradeoff;
    ``n_tables > 1`` runs multiple independent hash tables (multi-probe:
    a pair collides if ANY table agrees — recall 1-(1-p)^T at T× the
    bucket shuffle, still never all-pairs). Each pair is emitted once,
    by the first table where it collides (every row carries its bucket
    in all tables), so no second shuffle dedups the tables' outputs.
    ``n_planes=0`` degenerates to one bucket = exact O(n²)."""
    if n_planes > 30:
        raise ValueError("n_planes must be <= 30 (bucket is an int32 bitmask)")

    class Bucketize:
        """Actor stage: hyperplane matrices are drawn ONCE per actor in
        __init__ (seeded — identical planes on every actor), not per
        batch (the setup-in-__call__ anti-pattern). Emits one row per
        (vector, table), each carrying the vector's bucket in every
        table as ``_buckets``."""

        def __init__(self):
            self.planes = None  # lazily sized from the first batch's dim

        def __call__(self, t: pa.Table) -> pa.Table:
            emb = t[emb_col].combine_chunks()
            mat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64).reshape(len(emb), -1)
            if not n_planes:
                bucket = np.zeros(len(emb), dtype=np.int32)
                return t.append_column("_table", pa.array(np.zeros(len(emb), np.int32))) \
                        .append_column("_lsh", pa.array(bucket))
            if self.planes is None or self.planes[0].shape[0] != mat.shape[1]:
                self.planes = [
                    np.random.default_rng(seed + 7919 * ti).standard_normal(
                        (mat.shape[1], n_planes)
                    )
                    for ti in range(n_tables)
                ]
            weights = 1 << np.arange(n_planes, dtype=np.int64)
            buckets = np.stack(
                [((mat @ planes > 0).astype(np.int64) @ weights).astype(np.int32)
                 for planes in self.planes],
                axis=1,
            )
            t = t.append_column(
                "_buckets", pa.FixedSizeListArray.from_arrays(pa.array(buckets.ravel()), n_tables)
            )
            return pa.concat_tables([
                t.append_column("_table", pa.array(np.full(len(emb), ti, np.int32)))
                .append_column("_lsh", pa.array(buckets[:, ti]))
                for ti in range(n_tables)
            ])

    def pairs(g: pa.Table) -> pa.Table:
        # per (table, LSH bucket) run: its first max_bucket ids, one
        # mat @ mat.T each (never pairs × dim), pairs over the threshold
        g, fr = _band_runs(g, ["_table", "_lsh"], id_col, max_bucket, unique=False)
        emb = g[emb_col].combine_chunks()
        mat = emb.flatten().to_numpy(zero_copy_only=False).astype(np.float64).reshape(len(emb), -1)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1
        mat = mat / norms[:, None]
        tables = np.asarray(g["_table"])
        if n_planes and n_tables > 1:
            bk = np.asarray(g["_buckets"].combine_chunks().flatten()).reshape(-1, n_tables)
        ia, ib, cos = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
        multi = fr.lens > 1
        for s, n in zip(fr.starts[multi], fr.lens[multi]):
            a, b = np.triu_indices(n, k=1)
            sims = (mat[s:s + n] @ mat[s:s + n].T)[a, b]
            keep = sims >= threshold
            if n_planes and n_tables > 1:
                # emit a pair only from the first table where it collides
                keep &= np.argmax(bk[s + a] == bk[s + b], axis=1) == tables[s]
            ia.append(s + a[keep])
            ib.append(s + b[keep])
            cos.append(sims[keep])
        ids = g.column(id_col)
        return pa.table({
            "id_a": ids.take(pa.array(np.concatenate(ia))),
            "id_b": ids.take(pa.array(np.concatenate(ib))),
            "cosine": pa.array(np.round(np.concatenate(cos), 6), type=pa.float64()),
        })

    return _by_key(
        ds.map_batches(Bucketize, batch_format="pyarrow", concurrency=(1, 2)),
        ["_table", "_lsh"], pairs, 64, None,
    )


# ---------------------------------------------------------- n-gram jaccard
def explode_ngrams(ds: ray.data.Dataset, text_col: str = "text",
                   id_col: str = "doc_id", n: int = 3) -> ray.data.Dataset:
    """DISTINCT word-``n``-grams per document as (id, gram, n_grams)
    rows — the exact-Jaccard substrate. One vectorized pass per batch:
    Arrow lower/normalize/split, ``binary_join_element_wise`` builds all
    gram strings in C, a numpy mask drops grams crossing document
    boundaries, pandas ``drop_duplicates`` dedups (C hash table).
    Documents with fewer than ``n`` words contribute their whole
    normalized text as ONE gram (mirrors :func:`jaccard` and the SQL
    oracle). ``n_grams`` (the doc's distinct-gram count) rides along on
    every row so downstream never joins a separate sizes table."""

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].combine_chunks()
        id_type = ids.type
        empty = pa.table({
            id_col: pa.array([], id_type), "gram": pa.array([], pa.string()),
            "n_grams": pa.array([], pa.int64()),
        })
        if t.num_rows == 0:
            return empty
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.utf8_lower(pc.fill_null(t[text_col], "")), pattern=r"\s+",
                replacement=" ",
            )
        )
        words = pc.split_pattern(norm, pattern=" ").combine_chunks()
        offs = np.asarray(words.offsets)
        counts = offs[1:] - offs[:-1]
        flat = words.values
        total = len(flat)
        doc_parts = []
        gram_parts = []
        if total >= n:
            slices = [flat.slice(k, total - n + 1) for k in range(n)]
            grams = pc.binary_join_element_wise(*slices, " ")
            pos = np.arange(total - n + 1)
            doc_of = np.searchsorted(offs, pos, side="right") - 1
            valid = pos + n - 1 < offs[doc_of + 1]
            if valid.any():
                gram_parts.append(grams.filter(pa.array(valid)))
                doc_parts.append(doc_of[valid])
        short = np.flatnonzero(counts < n)
        if len(short):
            gram_parts.append(norm.combine_chunks().take(pa.array(short)))
            doc_parts.append(short)
        if not gram_parts:
            return empty
        gram_all = pa.concat_arrays([g.combine_chunks() if isinstance(g, pa.ChunkedArray) else g for g in gram_parts])
        doc_all = np.concatenate(doc_parts)
        import pandas as pd

        df = pd.DataFrame({"d": doc_all, "g": gram_all.to_pandas()})
        df = df.drop_duplicates()
        sizes = df.groupby("d", sort=False)["g"].transform("size").to_numpy(np.int64)
        return pa.table({
            id_col: ids.take(pa.array(df["d"].to_numpy())),
            "gram": pa.array(df["g"].to_numpy(dtype=object), pa.string()),
            "n_grams": pa.array(sizes),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def exact_jaccard_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.5,
    n: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
    max_docs_per_gram: int = 4096,
    metrics_name: str | None = None,
) -> ray.data.Dataset:
    """EXACT word-n-gram Jaccard near-duplicate pairs (the brief's
    "n-gram Jaccard" dedup family member): co-occurrence join on shared
    grams — two docs meet iff they share ≥1 gram, so intersection counts
    are exact, unlike MinHash's sketch estimate.

    Scale shape: explode → ONE hash-bucket shuffle on gram → per-bucket
    vectorized run detection; only grams shared by ≥2 docs generate
    pairs; a second bounded bucket shuffle aggregates intersection
    counts. The inherent hazard of exact co-occurrence is a stop-gram
    shared by b docs emitting O(b²) pairs — ``max_docs_per_gram`` caps
    each gram's member list (deterministic: sorted, first N kept; drops
    counted into the metrics actor). Exactness holds whenever no gram
    exceeds the cap; corpora past that regime should use
    :func:`minhash_near_dup` (sketch) instead.
    """
    grams = explode_ngrams(ds, text_col=text_col, id_col=id_col, n=n)

    def pairs(g: pa.Table) -> pa.Table:
        id_type = g.schema.field(id_col).type
        empty = pa.table({
            "id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
            "na": pa.array([], pa.int64()), "nb": pa.array([], pa.int64()),
        })
        if g.num_rows < 2:
            return empty
        g, fr = _sorted_runs(g, [("gram", "ascending"), (id_col, "ascending")], "gram")
        starts, lens = fr.starts, fr.lens
        ids_np = g.column(id_col).to_pandas().to_numpy()
        nn = np.asarray(g.column("n_grams").combine_chunks())
        ia, ib = [], []
        dropped = 0
        for s, L in zip(starts[lens >= 2], lens[lens >= 2]):
            if L > max_docs_per_gram:
                dropped += int(L - max_docs_per_gram)
                L = max_docs_per_gram
            iu, ju = np.triu_indices(L, k=1)
            ia.append(s + iu)
            ib.append(s + ju)
        if dropped and metrics_name:
            from raycdc.metrics import Metrics

            Metrics(metrics_name).incr("ngram_gram_members_dropped", dropped)
        if not ia:
            return empty
        ai = np.concatenate(ia)
        bi = np.concatenate(ib)
        return pa.table({
            "id_a": pa.array(ids_np[ai], id_type),
            "id_b": pa.array(ids_np[bi], id_type),
            "na": pa.array(nn[ai].astype(np.int64)),
            "nb": pa.array(nn[bi].astype(np.int64)),
        })

    co = _by_key(grams, "gram", pairs, num_buckets, None)

    def score(g: pa.Table) -> pa.Table:
        id_type = g.schema.field("id_a").type
        empty = pa.table({
            "id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
            "inter": pa.array([], pa.int64()), "jacc": pa.array([], pa.float64()),
        })
        if g.num_rows == 0:
            return empty
        import pandas as pd

        df = g.to_pandas()
        agg = df.groupby(["id_a", "id_b"], sort=False).agg(
            inter=("na", "size"), na=("na", "first"), nb=("nb", "first")
        ).reset_index()
        jacc = agg["inter"] / (agg["na"] + agg["nb"] - agg["inter"])
        keep = jacc >= threshold
        agg = agg[keep]
        return pa.table({
            "id_a": pa.array(agg["id_a"].to_numpy(), id_type),
            "id_b": pa.array(agg["id_b"].to_numpy(), id_type),
            "inter": pa.array(agg["inter"].to_numpy(np.int64)),
            # raw float64 quotient of exact small ints — bit-identical to
            # the SQL oracle's division, so no rounding on either side
            "jacc": pa.array(jacc[keep].to_numpy(np.float64)),
        })

    return _by_key(co, ["id_a", "id_b"], score, num_buckets, None)


def _utf8_matrix(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Arrow string array → (uint8 char matrix padded with 0, lengths),
    built from the Arrow offsets/data buffers with one fancy-index gather
    — no per-row Python. Contract: ASCII/byte-level distance (byte ==
    character for ASCII corpora; a multi-byte corpus would diverge from
    character-wise SQL levenshtein)."""
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    wide = pa.types.is_large_string(arr.type)
    odt, osz = (np.int64, 8) if wide else (np.int32, 4)
    off = np.frombuffer(arr.buffers()[1], dtype=odt,
                        count=len(arr) + 1, offset=arr.offset * osz)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8) if arr.buffers()[2] else np.zeros(0, np.uint8)
    lens = (off[1:] - off[:-1]).astype(np.int64)
    lmax = int(lens.max()) if len(lens) else 0
    mat = np.zeros((len(arr), max(lmax, 1)), dtype=np.uint8)
    if len(data) and lmax:
        idx = off[:-1, None].astype(np.int64) + np.arange(lmax, dtype=np.int64)
        valid = np.arange(lmax)[None, :] < lens[:, None]
        np.copyto(mat, data[np.minimum(idx, len(data) - 1)], where=valid)
    return mat, lens


def levenshtein_pairs_np(
    mat: np.ndarray, lens: np.ndarray, ia: np.ndarray, ib: np.ndarray,
    max_dist: int | None = None,
) -> np.ndarray:
    """Unit-cost Levenshtein for PAIRS of rows of a char matrix,
    vectorized across pairs: the Wagner-Fischer recurrence runs one
    Python iteration per character of the longer side, each a numpy
    pass over (pairs × width); the in-row insertion dependency
    dp[j] = min(dp[j], dp[j-1]+1) is the min-plus prefix scan
    ``j + cummin(cand[j] - j)`` (np.minimum.accumulate), so nothing
    iterates per pair.

    With ``max_dist`` set the DP runs BANDED — only the diagonal
    |i-j| ≤ max_dist (width 2·max_dist+1 instead of Lmax; the Ukkonen
    cut) — and distances beyond the band come back clamped to
    ``max_dist + 1`` (exact within the band, callers filter ≤ max_dist
    anyway). Pairs with |len_a − len_b| > max_dist are clamped without
    running."""
    P = len(ia)
    if P == 0:
        return np.zeros(0, dtype=np.int64)
    A, la = mat[ia], lens[ia]
    B, lb = mat[ib], lens[ib]
    if max_dist is None:
        Lb = int(lb.max()) if P else 0
        dp = np.broadcast_to(np.arange(Lb + 1, dtype=np.int64), (P, Lb + 1)).copy()
        jj = np.arange(Lb + 1, dtype=np.int64)
        for i in range(1, int(la.max()) + 1):
            sub = (A[:, i - 1][:, None] != B[:, :Lb]).astype(np.int64)
            cand = np.empty_like(dp)
            cand[:, 0] = i
            np.minimum(dp[:, :-1] + sub, dp[:, 1:] + 1, out=cand[:, 1:])
            np.subtract(cand, jj, out=cand)
            np.minimum.accumulate(cand, axis=1, out=cand)
            np.add(cand, jj, out=cand)
            alive = i <= la
            np.copyto(dp, cand, where=alive[:, None])
        return dp[np.arange(P), lb]

    md = int(max_dist)
    BIG = np.int64(1 << 40)
    out = np.full(P, md + 1, dtype=np.int64)
    run = np.abs(la - lb) <= md
    if not run.any():
        return out
    A, B, la_r, lb_r = A[run], B[run], la[run], lb[run]
    Pr = len(la_r)
    W = 2 * md + 1  # band column t ↔ j = i - md + t
    tt = np.arange(W, dtype=np.int64)
    # row 0: dp[0][j] = j for j in [0, md]; j<0 invalid
    j0 = tt - md
    cur = np.where(j0 >= 0, np.maximum(j0, 0), BIG)
    cur = np.broadcast_to(cur, (Pr, W)).astype(np.int64)
    done0 = la_r == 0
    if done0.any():
        out_idx = np.flatnonzero(run)
        out[out_idx[done0]] = np.minimum(lb_r[done0], md + 1)
    prev_pad = np.full((Pr, 1), BIG, dtype=np.int64)
    rows_idx = np.flatnonzero(run)
    for i in range(1, int(la_r.max()) + 1):
        j = i - md + tt  # the j each band column holds THIS row
        # gather B chars at j-1 (clip; validity enforced by j bounds)
        bj = np.take(B, np.clip(j - 1, 0, B.shape[1] - 1), axis=1)
        sub = (A[:, i - 1][:, None] != bj).astype(np.int64)
        prev = cur  # band of row i-1: column t held j' = (i-1) - md + t
        # dp[i-1][j-1] sits at prev[t]; dp[i-1][j] at prev[t+1]
        cand = np.minimum(prev + sub, np.concatenate([prev[:, 1:], prev_pad], axis=1) + 1)
        # j = 0 boundary: dp[i][0] = i (only while 0 is inside the band)
        if i <= md:
            cand[:, md - i] = i
        # invalid j outside [0, lb]
        invalid = (j[None, :] < 0) | (j[None, :] > lb_r[:, None])
        cand = np.where(invalid, BIG, cand)
        # insertion scan along t (j increases with t, step 1)
        cand = cand - tt
        np.minimum.accumulate(cand, axis=1, out=cand)
        cand = cand + tt
        cand = np.where(invalid, BIG, cand)
        cur = cand
        fin = la_r == i
        if fin.any():
            t_ans = lb_r[fin] - i + md
            d = cur[fin, t_ans]
            out[rows_idx[fin]] = np.minimum(d, md + 1)
    return out


def edit_distance_pairs(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_dist: int = 20,
    block_chars: int = 4,
    len_bucket: int = 32,
    max_block: int | None = None,
    num_buckets: int = 64,
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """Blocked edit-distance similarity join: emit (id_a, id_b, dist)
    for id_a < id_b with unit-cost Levenshtein ≤ ``max_dist``, candidates
    restricted to the same BLOCK — (first ``block_chars`` chars,
    length // ``len_bucket``) — the standard prefix+length blocking for
    typo-grade near-dups (SQL: self-join on the identical block key).

    Scale shape: ONE bounded shuffle of (id, text, block) rows bucketed
    by block hash; in-bucket all-pairs DP is vectorized across pairs
    (:func:`levenshtein_pairs_np`). ``max_block`` (when set) SKIPS
    whole degenerate blocks — mirrored in SQL as ``HAVING count(*) <=
    max_block`` so the oracle stays exact. NULL texts drop up-front."""

    def prep(t: pa.Table) -> pa.Table:
        t = t.select([id_col, text_col]).filter(pc.is_valid(t.column(text_col)))
        blk = pc.binary_join_element_wise(
            pc.utf8_slice_codeunits(t.column(text_col), 0, block_chars),
            pc.cast(
                pc.divide(pc.utf8_length(t.column(text_col)),
                          pa.scalar(len_bucket, pa.int64())),
                pa.string(),
            ),
            "|",
        )
        return t.append_column("_blk", blk)

    def fold(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(g, [("_blk", "ascending"), (id_col, "ascending")], "_blk")
        empty = pa.table({
            "id_a": pa.array([], g.schema.field(id_col).type),
            "id_b": pa.array([], g.schema.field(id_col).type),
            "dist": pa.array([], pa.int64()),
        })
        if max_block is not None:
            # whole blocks go, so the kept rows' boundary mask is their frame
            keep = fr.lens[fr.run] <= max_block
            g = g.filter(pa.array(keep)).combine_chunks()
            fr = _frame(fr.new[keep])
        ia, ib = _run_pairs(fr)  # all i<j pairs per block
        if len(ia) == 0:
            return empty
        mat, lens_c = _utf8_matrix(g.column(text_col))
        # length prefilter: |la-lb| > max_dist can never pass
        la, lb = lens_c[ia], lens_c[ib]
        ok = np.abs(la - lb) <= max_dist
        ia, ib = ia[ok], ib[ok]
        dist = levenshtein_pairs_np(mat, lens_c, ia, ib, max_dist=max_dist)
        hit = dist <= max_dist
        ia, ib, dist = ia[hit], ib[hit], dist[hit]
        ids = g.column(id_col)
        return pa.table({
            "id_a": ids.take(pa.array(ia)),
            "id_b": ids.take(pa.array(ib)),
            "dist": pa.array(dist, pa.int64()),
        })

    return _by_key(ds, "_blk", fold, num_buckets, batch_size, prep=prep)
