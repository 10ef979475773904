"""Training-data extras: dedup (exact/minhash/simhash/embedding),
similarity search (brute + IVF), text analysis, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from raycdc.extras.dedup import (
    embedding_near_dup,
    exact_dedup,
    exact_dedup_rows,
    jaccard,
    minhash_near_dup,
    simhash_near_dup,
    simhash_signatures,
)
from raycdc.extras.multimodal import (
    DecodeImage,
    attach_fake_media,
    decode_features,
)
from raycdc.extras.similarity import IVFIndex, knn_brute
from raycdc.extras.text import LangId, QualityScore


def collect(ds):
    t = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    return pa.concat_tables(t, promote_options="permissive") if t else pa.table({})


def doc_table():
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",  # exact dup of 0
        "the quick brown fox jumps over a lazy dog today",  # near dup of 0
        "le chat est sur la table et il est content",
        "completely different content about databases and queries here",
        "der hund ist nicht mit der katze auf das sofa",
    ]
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})


def emb_table(n=40, d=8, seed=3):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, d)).astype(np.float32)
    base[1] = base[0] + 0.01 * rng.standard_normal(d).astype(np.float32)  # near dup pair (0,1)
    return pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in base], type=pa.list_(pa.float32())),
        }
    )


# ------------------------------------------------------------------- dedup
def test_exact_dedup_groups_and_rows():
    ds = rd.from_arrow(doc_table())
    agg = collect(exact_dedup(ds)).to_pylist()
    by_keep = {r["keep_id"]: r["dups"] for r in agg}
    assert by_keep[0] == 2  # docs 0 and 1 identical, min id wins
    assert len(agg) == 5  # 5 distinct contents
    rows = collect(exact_dedup_rows(ds))
    assert rows.num_rows == 5
    assert 1 not in rows["doc_id"].to_pylist()


def test_minhash_near_dup_finds_near_and_skips_far():
    ds = rd.from_arrow(doc_table())
    pairs = collect(minhash_near_dup(ds, threshold=0.3, k_shingle=3, num_perm=32, bands=16))
    got = {(r["id_a"], r["id_b"]) for r in pairs.to_pylist()}
    assert (0, 1) in got  # exact dup always caught
    assert (0, 2) in got or (1, 2) in got  # near dup caught
    assert all(a in (0, 1, 2) and b in (0, 1, 2) for a, b in got)  # no false positives


def test_jaccard_properties():
    assert jaccard("a b c d e", "a b c d e") == 1.0
    assert jaccard("a b c d e", "v w x y z") == 0.0


def test_simhash_near_dup():
    ds = rd.from_arrow(doc_table())
    sigs = collect(simhash_signatures(ds))
    by_id = {r["doc_id"]: r["simhash"] for r in sigs.to_pylist()}
    assert by_id[0] == by_id[1]  # identical docs → identical signature
    pairs = collect(simhash_near_dup(ds, max_hamming=3))
    got = {(r["id_a"], r["id_b"]) for r in pairs.to_pylist()}
    assert (0, 1) in got


def test_embedding_near_dup():
    ds = rd.from_arrow(emb_table())
    pairs = collect(embedding_near_dup(ds, threshold=0.95, n_planes=4))
    got = {(r["id_a"], r["id_b"]) for r in pairs.to_pylist()}
    assert (0, 1) in got


def test_ngram_jaccard_pairs():
    from raycdc.extras.dedup import verify_jaccard_pairs_ds

    ds = rd.from_arrow(doc_table())
    pairs = rd.from_arrow(pa.table({"id_a": [0, 0], "id_b": [1, 4]}))
    out = verify_jaccard_pairs_ds(ds, pairs, k=3).take_all()
    j = {(r["id_a"], r["id_b"]): r["jaccard"] for r in out}
    assert j[(0, 1)] == 1.0
    assert j[(0, 4)] == 0.0


# --------------------------------------------------------------- similarity
def test_knn_brute_top1_is_self():
    t = emb_table()
    q = np.asarray(t["embedding"].to_pylist()[5], dtype=np.float64)
    out = collect(knn_brute(rd.from_arrow(t), q, k=3, batch_size=16)).to_pylist()
    assert out[0][ "vec_id"] == 5 and out[0]["sim"] == 1.0
    assert len(out) == 3


def test_knn_multi_query():
    t = emb_table()
    q = np.asarray(t["embedding"].to_pylist()[:2], dtype=np.float64)
    out = collect(knn_brute(rd.from_arrow(t), q, k=2, batch_size=16))
    assert out.num_rows == 4
    by_q = {}
    for r in out.to_pylist():
        by_q.setdefault(r["query_id"], []).append(r["vec_id"])
    assert by_q[0][0] == 0 and by_q[1][0] == 1


def test_ivf_matches_brute_for_probed_k():
    t = emb_table(n=100)
    ds = rd.from_arrow(t)
    q = np.asarray(t["embedding"].to_pylist()[7], dtype=np.float64)
    idx = IVFIndex(n_clusters=4, n_iter=5).fit(ds)
    assigned = idx.assign(ds)
    hits = collect(idx.search(assigned, q, k=1, nprobe=4)).to_pylist()
    # nprobe == n_clusters → exhaustive → must equal brute-force top-1
    assert hits[0]["vec_id"] == 7


# --------------------------------------------------------------------- text
def test_lang_id():
    out = LangId()(doc_table())
    langs = dict(zip(out["doc_id"].to_pylist(), out["lang_pred"].to_pylist()))
    assert langs[0] == "en" and langs[3] == "fr" and langs[5] == "de"


def test_quality_and_tokens_and_fingerprint():
    q = QualityScore()(doc_table())
    assert q["stop_ratio"].to_pylist()[0] > 0


# --------------------------------------------------------------- multimodal
def test_multimodal_plumbing():
    docs = rd.from_arrow(doc_table().append_column("did", pa.array([f"d{i}" for i in range(6)])))
    media = attach_fake_media(docs, id_col="did")
    feats = collect(decode_features(media, concurrency=2, batch_size=2))
    assert "payload" not in feats.column_names  # heavy bytes dropped at decode
    assert feats.num_rows == 6
    v = feats["features"].to_pylist()
    assert len(v[0]) == 8 and all(0 <= x <= 1 for x in v[0])
    # determinism: same ids → same features
    feats2 = collect(decode_features(attach_fake_media(docs, id_col="did"), concurrency=2, batch_size=2))
    assert feats2["features"].to_pylist() == v


def test_multimodal_real_path_raises():
    media = collect(attach_fake_media(rd.from_arrow(doc_table().append_column("did", pa.array([f"d{i}" for i in range(6)]))), id_col="did"))
    with pytest.raises(NotImplementedError, match="image library"):
        DecodeImage(real=True)(media)


def string_doc_table():
    t = doc_table()
    return t.set_column(0, "doc_id", pa.array([f"doc-{i}" for i in range(t.num_rows)]))


def test_near_dup_with_string_ids():
    # code-review regression: pair emitters hard-cast ids to int64
    ds = rd.from_arrow(string_doc_table())
    mh = collect(minhash_near_dup(ds, threshold=0.3, k_shingle=3, num_perm=32, bands=16))
    got = {(r["id_a"], r["id_b"]) for r in mh.to_pylist()}
    assert ("doc-0", "doc-1") in got
    sh = collect(simhash_near_dup(ds, max_hamming=3))
    assert ("doc-0", "doc-1") in {(r["id_a"], r["id_b"]) for r in sh.to_pylist()}


def test_embedding_near_dup_string_ids_and_many_planes():
    t = emb_table()
    t = t.set_column(0, "vec_id", pa.array([f"v{i:03d}" for i in range(t.num_rows)]))
    pairs = collect(embedding_near_dup(rd.from_arrow(t), threshold=0.95, n_planes=12))
    assert ("v000", "v001") in {(r["id_a"], r["id_b"]) for r in pairs.to_pylist()}
    import pytest as _pytest

    with _pytest.raises(ValueError, match="n_planes"):
        collect(embedding_near_dup(rd.from_arrow(t), n_planes=31))


def test_multimodal_real_ppm_roundtrip():
    """The real=True path on real bytes: PPM encode → registry decode →
    pixel-statistic features, end-to-end through the actor pool."""
    import numpy as np

    from raycdc.extras.multimodal import decode_ppm, encode_ppm

    rng = np.random.default_rng(7)
    pix = rng.integers(0, 256, (12, 9, 3), dtype=np.uint8)
    assert (decode_ppm(encode_ppm(pix)) == pix).all()
    with pytest.raises(ValueError, match="P6"):
        decode_ppm(b"nonsense")

    docs = rd.from_arrow(doc_table().append_column("did", pa.array([f"d{i}" for i in range(6)])))
    media = attach_fake_media(docs, id_col="did", codec="ppm")
    feats = collect(
        media.map_batches(DecodeImage, fn_constructor_kwargs={"real": True},
                          batch_format="pyarrow", batch_size=2, concurrency=2)
    )
    assert feats.num_rows == 6 and "payload" not in feats.column_names
    v = feats["features"].to_pylist()
    assert len(v[0]) == 8 and all(0.0 <= x <= 1.0 for x in v[0])
    # real features are pixel statistics: uniform-random pixels → mean ≈ 0.5
    assert 0.3 < v[0][0] < 0.7
    # deterministic across re-runs
    feats2 = collect(
        attach_fake_media(docs, id_col="did", codec="ppm").map_batches(
            DecodeImage, fn_constructor_kwargs={"real": True},
            batch_format="pyarrow", batch_size=2, concurrency=2)
    )
    assert feats2.sort_by("media_id")["features"].to_pylist() == \
        feats.sort_by("media_id")["features"].to_pylist()


def test_minhash_adversarial_identical_corpus_bounded():
    """Degenerate-bucket guardrail: 300 identical docs share EVERY band
    bucket; without the cap the pair stage would emit O(n^2) pairs per
    band. With max_bucket the run completes with bounded output and the
    truncation is counted into the metrics actor."""
    from raycdc.metrics import Metrics

    n = 300
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": pa.array(["same words everywhere forever and ever"] * n)})
    m = Metrics("adversarial_minhash")
    m.reset()
    pairs = collect(minhash_near_dup(
        rd.from_arrow(t), threshold=0.5, k_shingle=3, num_perm=32, bands=16,
        max_bucket=16, metrics_name="adversarial_minhash"))
    # capped: at most C(16,2) distinct pairs survive (identical docs → one bucket set)
    assert 0 < pairs.num_rows <= 120
    assert all(r["jaccard"] == 1.0 for r in pairs.to_pylist())
    stats = m.stats_stable()
    assert stats.get("minhash_bucket_truncated", 0) > 0


def test_band_bucket_cap_keeps_first_ids_and_counts_drops():
    """Degenerate band buckets larger than ``max_bucket``: the pair stage
    keeps exactly the first ``max_bucket`` ids of each run in sort order,
    and the truncation counter equals the members dropped (minhash:
    distinct ids; simhash: every member of each of its 4 band runs)."""
    from itertools import combinations

    from raycdc.extras.dedup import candidate_pairs_from_bands
    from raycdc.metrics import Metrics

    ids = np.random.default_rng(5).permutation(np.arange(100, 130))  # 30 members
    doc = np.concatenate([ids, [105], ids, [1, 2]])  # 105 repeats in band 0
    t = pa.table({
        "doc_id": pa.array(doc, pa.int64()),
        "band": pa.array([0] * 31 + [3] * 30 + [1, 1], pa.int32()),
        "band_key": pa.array([7] * 61 + [9, 9], pa.int64()),
    })
    m = Metrics("cap_minhash")
    m.reset()
    pairs = collect(candidate_pairs_from_bands(
        rd.from_arrow(t).repartition(3), max_bucket=8, metrics_name="cap_minhash"))
    got = sorted(zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()))
    assert got == sorted([*combinations(range(100, 108), 2), (1, 2)])
    assert m.stats_stable()["minhash_bucket_truncated"] == 2 * (30 - 8)

    n = 20
    docs = pa.table({"doc_id": pa.array(np.random.default_rng(6).permutation(n), pa.int64()),
                     "text": pa.array(["same words everywhere forever and ever"] * n)})
    m = Metrics("cap_simhash")
    m.reset()
    sh = collect(simhash_near_dup(rd.from_arrow(docs).repartition(2), max_bucket=8,
                                  metrics_name="cap_simhash"))
    got = sorted(zip(sh["id_a"].to_pylist(), sh["id_b"].to_pylist()))
    assert got == list(combinations(range(8), 2))
    assert set(sh["hamming"].to_pylist()) == {0}
    assert m.stats_stable()["simhash_bucket_truncated"] == 4 * (n - 8)


# ------------------------------------------------------------------ tokens
def token_doc_table():
    return pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(5)]),
        "tokens": pa.array([list(range(10)), list(range(300)), [], [7], list(range(128))],
                           type=pa.list_(pa.int32())),
    })


def test_chunk_sequences():
    from raycdc.extras.tokens import chunk_sequences

    out = collect(chunk_sequences(rd.from_arrow(token_doc_table()), 128))
    rows = sorted(out.to_pylist(), key=lambda r: (r["doc_id"], r["chunk_idx"]))
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append(r)
    assert len(by_doc["d0"]) == 1 and by_doc["d0"][0]["n_tok"] == 10
    assert len(by_doc["d1"]) == 3  # 300 = 128+128+44
    assert [r["n_tok"] for r in by_doc["d1"]] == [128, 128, 44]
    assert "d2" not in by_doc  # empty doc emits nothing
    assert by_doc["d4"][0]["n_tok"] == 128 and len(by_doc["d4"]) == 1
    # token streams are preserved exactly
    d1 = sum((r["tokens"] for r in by_doc["d1"]), [])
    assert d1 == list(range(300))


def test_pack_sequences_preserves_tokens_and_counts_docs():
    from raycdc.extras.tokens import pack_sequences

    t = token_doc_table()
    out = collect(pack_sequences(rd.from_arrow(t), 100, eos_token=-1))
    # total stream = sum(len)+eos per doc = 10+300+0+1+128 + 5 = 444
    toks = sum((r["tokens"] for r in out.to_pylist()), [])
    assert len(toks) == 444
    assert sum(r["n_docs"] for r in out.to_pylist()) == 5
    full = [r for r in out.to_pylist() if r["n_tok"] == 100]
    assert len(full) == 4 and out.num_rows == 5  # 4 full + 1 partial (44)
    # stream order within the batch is doc order with EOS separators
    assert toks[:11] == list(range(10)) + [-1]
    # drop_remainder drops the partial row
    out2 = collect(pack_sequences(rd.from_arrow(t), 100, eos_token=-1, drop_remainder=True))
    assert out2.num_rows == 4 and all(r["n_tok"] == 100 for r in out2.to_pylist())


def test_embedding_near_dup_multi_table_recall():
    """Multi-table LSH recall ⊇ single table: every pair one table finds
    is found with T tables, and the pair set contains the planted dup."""
    ds = rd.from_arrow(emb_table(n=60))
    one = {(r["id_a"], r["id_b"])
           for r in collect(embedding_near_dup(ds, threshold=0.9, n_planes=6)).to_pylist()}
    multi = {(r["id_a"], r["id_b"])
             for r in collect(embedding_near_dup(ds, threshold=0.9, n_planes=6,
                                                 n_tables=4)).to_pylist()}
    assert (0, 1) in multi
    assert one <= multi  # multi-probe can only add recall
    # no duplicate pairs despite multiple tables agreeing
    rows = collect(embedding_near_dup(ds, threshold=0.9, n_planes=6, n_tables=4))
    assert rows.num_rows == len(multi)


# ------------------------------------------------- hash kernels (sip vs md5)
def test_exact_dedup_kernels_agree_on_grouping():
    """The sip (vectorized engine default) and md5 (oracle-parity) content
    kernels must induce the SAME grouping — only the hash values differ."""
    ds = rd.from_arrow(doc_table())
    for mode in ("sip", "md5"):
        agg = collect(exact_dedup(ds, content_hash=mode)).to_pylist()
        assert {r["keep_id"]: r["dups"] for r in agg} == {0: 2, 2: 1, 3: 1, 4: 1, 5: 1}, mode
        rows = collect(exact_dedup_rows(ds, content_hash=mode))
        assert sorted(rows["doc_id"].to_pylist()) == [0, 2, 3, 4, 5], mode


def test_deterministic_sample_kernels():
    import hashlib

    from raycdc.ops import deterministic_sample

    ids = [f"doc-{i:05d}" for i in range(4000)] + [None]
    t = pa.table({"doc_id": pa.array(ids)})
    for kernel in ("sip", "md5"):
        a = collect(deterministic_sample(rd.from_arrow(t), "doc_id", 2, hash_kernel=kernel))
        # partitioning-independent + replay-stable: same set at other parallelism
        b = collect(
            deterministic_sample(
                rd.from_arrow(t).repartition(7), "doc_id", 2, hash_kernel=kernel
            )
        )
        assert sorted(a["doc_id"].to_pylist()) == sorted(b["doc_id"].to_pylist()), kernel
        assert None not in a["doc_id"].to_pylist()
        # rate ≈ 2/16 with slack (content-addressed Bernoulli)
        assert 0.06 < a.num_rows / 4000 < 0.20, kernel
    # md5 kernel matches the oracle expression exactly
    md5_rows = collect(deterministic_sample(rd.from_arrow(t), "doc_id", 2, hash_kernel="md5"))
    expect = [v for v in ids if v is not None and hashlib.md5(v.encode()).hexdigest()[0] in "01"]
    assert sorted(md5_rows["doc_id"].to_pylist()) == sorted(expect)


def test_codec_registry_external_decoder_flows_through():
    """Conformance template for plugging an external codec (item: a
    registered non-PPM decoder must flow through decode_features real=True
    unchanged — the PIL/libvips/ffmpeg plug-point contract)."""
    import ray.data as rd

    from raycdc.extras.multimodal import (
        DECODERS,
        MEDIA_SCHEMA,
        decode_features,
        register_decoder,
    )

    def decode_raw12(data: bytes) -> np.ndarray:  # stand-in external codec
        return np.frombuffer(data, dtype=np.uint8).reshape(2, 2, 3)

    register_decoder("raw12", decode_raw12)
    try:
        pix = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
        t = pa.table(
            {
                "media_id": pa.array(["m0"]),
                "kind": pa.array(["image"]),
                "payload": pa.array([pix.tobytes()], type=pa.binary()),
                "meta": pa.array(
                    [{"width": 2, "height": 2, "sample_rate": 0, "n_frames": 1,
                      "codec": "raw12"}],
                    type=MEDIA_SCHEMA.field("meta").type,
                ),
            }
        )
        out = collect(decode_features(rd.from_arrow(t), concurrency=1, real=True))
        assert out.num_rows == 1 and "payload" not in out.column_names
        feats = out["features"][0].as_py()
        expect_means = (pix.astype(np.float32) / 255.0).mean(axis=(0, 1))
        assert np.allclose(feats[:3], expect_means, atol=1e-6)
    finally:
        DECODERS.pop("raw12", None)


def test_ngram_jaccard_exact_pairs():
    """Exact co-occurrence n-gram Jaccard: matches the reference
    jaccard() on every emitted pair; partitioning-independent; short and
    null docs fall back to whole-text grams."""
    from raycdc.extras.dedup import exact_jaccard_pairs, jaccard

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over a lazy dog today",
        "le chat est sur la table et il est content",
        "completely different content about databases and queries here",
        "tiny doc",
        "tiny doc",
        None,
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts)})
    out = collect(exact_jaccard_pairs(rd.from_arrow(t), threshold=0.2, n=3))
    got = {(r["id_a"], r["id_b"]): r["jacc"] for r in out.to_pylist()}
    assert got[(0, 1)] == 1.0 and got[(5, 6)] == 1.0
    assert abs(got[(0, 2)] - jaccard(texts[0], texts[2], k=3)) < 1e-12
    assert all(a < b for a, b in got)
    assert not any(3 in p or 4 in p or 7 in p for p in got)
    # same pair set at different parallelism
    out2 = collect(exact_jaccard_pairs(rd.from_arrow(t).repartition(5), threshold=0.2, n=3))
    got2 = {(r["id_a"], r["id_b"]): r["jacc"] for r in out2.to_pylist()}
    assert got == got2


def test_top_words_exact_counts():
    import pyarrow as pa
    import ray.data as rd

    from raycdc.extras.text import top_words

    docs = pa.table(
        {"text": pa.array(["the cat and the dog", "THE Cat!", None, "", "dog dog zz"])}
    )
    out = top_words(rd.from_arrow(docs).repartition(3), k=3, batch_size=2).take_all()
    # counts: the=3, dog=3, cat=2, and=1, zz=1 → top3 by (n desc, word asc)
    assert [(r["word"], r["n"]) for r in out] == [("dog", 3), ("the", 3), ("cat", 2)]


def test_ivf_pipeline_from_parquet_makes_progress(tmp_path):
    """Regression: fixed-size actor pools (Assign 2 + knn Score 4) used to
    RESERVE every CPU at num_cpus=4 and starve the upstream ReadParquet
    task pool — a zero-progress deadlock. Autoscaling (1, n) pools must
    let the composed fit→assign→search pipeline finish from a real
    parquet read (from_arrow inputs never triggered it — blocks arrive
    pre-materialized)."""
    import pyarrow.parquet as pq_

    t = emb_table(n=200)
    p = str(tmp_path / "emb.parquet")
    pq_.write_table(t, p)
    ds = rd.read_parquet(p)
    q = np.asarray(t["embedding"].to_pylist()[7], dtype=np.float64)
    idx = IVFIndex(n_clusters=4, n_iter=3).fit(ds)
    hits = collect(idx.search(idx.assign(ds), q, k=1, nprobe=2)).to_pylist()
    assert len(hits) == 1


def test_connected_components_chain_and_survivors():
    """Hash-to-min label propagation: a 5-node chain needs multiple
    propagation rounds (diameter 4); pair clusters and singletons keep
    exactly their component-minimum / themselves."""
    import pyarrow as pa

    from raycdc.extras.cluster import connected_components, dedup_survivors

    pairs = rd.from_arrow(
        pa.table({"id_a": [1, 2, 3, 4, 10], "id_b": [2, 3, 4, 5, 11]})
    )
    got = {r["node"]: r["cluster"] for r in connected_components(pairs).take_all()}
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 10: 10, 11: 10}

    docs = rd.from_arrow(
        pa.table({"doc_id": [1, 2, 3, 4, 5, 10, 11, 20], "x": list("abcdefgh")})
    )
    kept = sorted(r["doc_id"] for r in dedup_survivors(docs, pairs).take_all())
    assert kept == [1, 10, 20]


def test_connected_components_unconverged_raises():
    """A diameter larger than max_rounds must raise, never silently
    return partial labels."""
    import pyarrow as pa
    import pytest

    from raycdc.extras.cluster import connected_components

    n = 8  # path graph 0-1-...-8: diameter 8
    pairs = rd.from_arrow(
        pa.table({"id_a": list(range(n)), "id_b": list(range(1, n + 1))})
    )
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(pairs, max_rounds=2)
    got = {r["node"]: r["cluster"] for r in connected_components(pairs).take_all()}
    assert set(got.values()) == {0}


def test_connected_components_empty_pairs():
    import pyarrow as pa

    from raycdc.extras.cluster import connected_components

    pairs = rd.from_arrow(pa.table({"id_a": pa.array([], pa.int64()),
                                    "id_b": pa.array([], pa.int64())}))
    assert connected_components(pairs).take_all() == []


def test_regex_extract_and_replace_match_duckdb():
    import duckdb
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from raycdc.extras.text import regex_extract, regex_replace

    rng = np.random.default_rng(1501)
    words = ["alpha beta-7 gamma", "x12 y z", "no digits here", "", "tail 99"]
    t = pa.table(
        {
            "id": pa.array(np.arange(200, dtype=np.int64)),
            "s": pa.array([words[i % len(words)] for i in range(200)]),
        }
    )
    con = duckdb.connect()
    con.register("t", t)

    out = regex_extract(
        rd.from_arrow(t).repartition(3), "s", r"(?P<g>\d+)", out_col="num"
    ).to_pandas().sort_values("id").reset_index(drop=True)
    want = con.execute(
        r"SELECT id, regexp_extract(s, '(\d+)', 1) AS num FROM t ORDER BY id"
    ).df()
    # DuckDB returns '' for non-matches; pyarrow returns NULL — normalize
    a = out["num"].fillna("").to_numpy()
    b = want["num"].fillna("").to_numpy()
    assert (a == b).all()

    out = regex_replace(
        rd.from_arrow(t).repartition(3), "s", r"[aeiou]", "_"
    ).to_pandas().sort_values("id").reset_index(drop=True)
    want = con.execute(
        "SELECT id, regexp_replace(s, '[aeiou]', '_', 'g') AS s FROM t ORDER BY id"
    ).df()
    assert (out["s"].to_numpy() == want["s"].to_numpy()).all()


def test_json_extract_scalar_modes_match():
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from raycdc.extras.text import json_extract_scalar

    rows = [
        '{"k": 69}', '{"k": "hello"}', '{"k": null}', '{"other": 1}',
        '{"k": true}', '{"k": -3.5}', None, 'not json', '{"k": "a b, c"}',
    ] * 30
    t = pa.table({"id": pa.array(range(len(rows))), "props": pa.array(rows)})
    for mode in ("re2", "python"):
        out = json_extract_scalar(
            rd.from_arrow(t).repartition(3), "props", "k", out_col="v", mode=mode
        ).to_pandas().sort_values("id").reset_index(drop=True)
        want = duckdb.connect().execute(
            "SELECT id, CASE WHEN json_valid(props) THEN "
            "json_extract_string(props, '$.k') END AS v FROM t ORDER BY id"
        ).df()
        a = out["v"].fillna("\0").to_numpy()
        b = want["v"].fillna("\0").to_numpy()
        assert (a == b).all(), (mode, list(zip(rows, a, b))[:6])


def test_split_to_rows_matches_duckdb():
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from raycdc.extras.text import split_to_rows

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "s": pa.array(["a. b! c", "one", None, ""]),
        }
    )
    out = split_to_rows(
        rd.from_arrow(t).repartition(2), "s", r"[.!?]\s*"
    ).to_pandas().sort_values(["id", "part_no"]).reset_index(drop=True)
    want = duckdb.connect().execute(
        r"""
        WITH a AS (SELECT id, regexp_split_to_array(s, '[.!?]\s*') AS xs FROM t)
        SELECT id, unnest(xs) AS part,
               CAST(generate_subscripts(xs, 1) - 1 AS BIGINT) AS part_no
        FROM a ORDER BY id, part_no
        """
    ).df()
    assert out.shape == want.shape
    for c in ("id", "part", "part_no"):
        assert (out[c].to_numpy() == want[c].to_numpy()).all(), c


def test_multimodal_real_bmp_roundtrip():
    """Second real codec: uncompressed 24-bit BMP — encode → registry
    decode round-trip (incl. bottom-up/BGR/row padding) and features
    through the actor pool."""
    import numpy as np

    from raycdc.extras.multimodal import DecodeImage, attach_fake_media, decode_bmp, encode_bmp

    rng = np.random.default_rng(11)
    for shape in [(12, 9, 3), (7, 16, 3), (1, 1, 3)]:  # odd widths: padding
        pix = rng.integers(0, 256, shape, dtype=np.uint8)
        assert (decode_bmp(encode_bmp(pix)) == pix).all(), shape
    with pytest.raises(ValueError, match="BMP"):
        decode_bmp(b"nonsense")

    docs = rd.from_arrow(
        doc_table().slice(0, 4).append_column("did", pa.array([f"d{i}" for i in range(4)]))
    )
    media = attach_fake_media(docs, id_col="did", codec="bmp")
    feats = collect(
        media.map_batches(DecodeImage, fn_constructor_kwargs={"real": True},
                          batch_format="pyarrow", batch_size=2, concurrency=2)
    )
    assert feats.num_rows == 4
    v = feats["features"].to_pylist()
    assert len(v[0]) == 8 and 0.3 < v[0][0] < 0.7  # uniform pixels → mean ≈ 0.5


def test_ngram_counts_matches_duckdb():
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from raycdc.extras.text import ngram_counts

    texts = [
        "the quick brown fox jumps over the quick brown dog",
        "THE QUICK brown fox!", "one two", "", "a b c a b c a b c",
    ] * 12
    t = pa.table({"text": pa.array(texts)})
    out = ngram_counts(
        rd.from_arrow(t).repartition(3), "text", n=3, k=8
    ).to_pandas()
    want = duckdb.connect().execute(
        r"""
        WITH w AS (SELECT list_filter(
                     regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
                     x -> x <> '') AS ws FROM t),
        i AS (SELECT ws, unnest(generate_series(1, greatest(0, len(ws) - 2))) AS i
              FROM w),
        g AS (SELECT ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] AS gram FROM i)
        SELECT gram, CAST(count(*) AS BIGINT) AS n
        FROM g GROUP BY gram ORDER BY n DESC, gram LIMIT 8
        """
    ).df()
    got = out.sort_values(["n", "gram"], ascending=[False, True]).reset_index(drop=True)
    assert got.shape == want.shape
    assert (got["gram"].to_numpy() == want["gram"].to_numpy()).all()
    assert (got["n"].to_numpy() == want["n"].to_numpy()).all()


def test_doc_frequency_matches_duckdb():
    import duckdb
    import pyarrow as pa
    import ray.data as rd

    from raycdc.extras.text import doc_frequency

    texts = [
        "the the the cat", "a cat and a dog", "Dog DOG dog!", "", "cat",
    ] * 9
    t = pa.table({"text": pa.array(texts)})
    out = doc_frequency(rd.from_arrow(t).repartition(3), "text", k=6).to_pandas()
    want = duckdb.connect().execute(
        r"""
        WITH w AS (SELECT list_distinct(list_filter(
                     regexp_split_to_array(lower(text), '[^a-z0-9_]+'),
                     x -> x <> '')) AS ws FROM t),
        g AS (SELECT unnest(ws) AS word FROM w)
        SELECT word, CAST(count(*) AS BIGINT) AS df
        FROM g GROUP BY word ORDER BY df DESC, word LIMIT 6
        """
    ).df()
    got = out.sort_values(["df", "word"], ascending=[False, True]).reset_index(drop=True)
    assert got.shape == want.shape
    assert (got["word"].to_numpy() == want["word"].to_numpy()).all()
    assert (got["df"].to_numpy() == want["df"].to_numpy()).all()


def test_edit_distance_pairs_matches_duckdb_blocked_join():
    import duckdb
    import random

    from raycdc.extras.dedup import edit_distance_pairs

    rng = random.Random(31)
    base = ["the quick brown fox jumps over the lazy dog " * 2,
            "pack my box with five dozen liquor jugs " * 2,
            "now is the time for all good people to come " * 2]
    texts, ids = [], []
    for i in range(120):
        s = base[i % 3]
        # typo-grade mutations keep the prefix block stable
        pos = rng.randint(8, len(s) - 2)
        s = s[:pos] + rng.choice("xyz") + s[pos + 1:]
        if rng.random() < 0.3:
            s = s[:pos] + s[pos + 1:]
        texts.append(s)
        ids.append(f"d{i:04d}")
    texts += ["", "", "ab"]  # empty strings: dist("","")=0 pairs too
    ids += ["e0001", "e0002", "e0003"]
    t = pa.table({"doc_id": ids, "text": texts})

    out = (
        edit_distance_pairs(rd.from_arrow(t).repartition(3),
                            max_dist=6, block_chars=4, len_bucket=32)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute("""
        WITH d AS (SELECT doc_id, text,
                          substr(text, 1, 4) || '|' ||
                          CAST(length(text) // 32 AS VARCHAR) AS blk
                   FROM documents WHERE text IS NOT NULL)
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               levenshtein(a.text, b.text) AS dist
        FROM d a JOIN d b ON a.blk = b.blk AND a.doc_id < b.doc_id
        WHERE levenshtein(a.text, b.text) <= 6
        ORDER BY id_a, id_b
    """).df().reset_index(drop=True)
    assert len(out) == len(want) and len(out) > 0
    assert (out["id_a"].to_numpy() == want["id_a"].to_numpy()).all()
    assert (out["id_b"].to_numpy() == want["id_b"].to_numpy()).all()
    assert (out["dist"].to_numpy() == want["dist"].to_numpy()).all()


def test_edit_distance_pairs_max_block_skips_degenerate_blocks():
    from raycdc.extras.dedup import edit_distance_pairs

    # 50 identical texts -> one block of 50; max_block=10 skips it whole
    t = pa.table({"doc_id": [f"d{i}" for i in range(50)],
                  "text": ["same exact text here"] * 50})
    out = edit_distance_pairs(rd.from_arrow(t), max_dist=5, max_block=10).to_pandas()
    assert len(out) == 0
    out2 = edit_distance_pairs(rd.from_arrow(t), max_dist=5).to_pandas()
    assert len(out2) == 50 * 49 // 2 and (out2["dist"] == 0).all()


def test_word_heavy_hitters_exact_despite_mg_truncation():
    import duckdb
    import random

    from raycdc.extras.text import word_heavy_hitters

    rng = random.Random(99)
    vocab = [f"w{i:03d}" for i in range(400)]
    docs = []
    for _ in range(300):
        # zipf-ish: a few hot words + long uniform tail
        words = ["hot_a", "hot_b"] * rng.randint(1, 4) + rng.sample(vocab, 25)
        docs.append(" ".join(words))
    t = pa.table({"text": docs})
    frac = 0.01
    out = (
        word_heavy_hitters(rd.from_arrow(t).repartition(4), frac=frac, m=128,
                           batch_size=32)
        .to_pandas().sort_values("word").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", t)
    want = con.execute(f"""
        WITH w AS (SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS word
                   FROM documents),
        n AS (SELECT count(*) AS total FROM w)
        SELECT word, count(*) AS n FROM w GROUP BY word
        HAVING count(*) >= CAST(ceil({frac} * (SELECT total FROM n)) AS BIGINT)
        ORDER BY word
    """).df().reset_index(drop=True)
    assert len(out) == len(want) and len(out) >= 2
    assert (out["word"].to_numpy() == want["word"].to_numpy()).all()
    assert (out["n"].to_numpy() == want["n"].to_numpy()).all()


def test_word_heavy_hitters_m_coverage_bound_enforced():
    from raycdc.extras.text import word_heavy_hitters

    t = pa.table({"text": ["a b c"]})
    with pytest.raises(ValueError):
        word_heavy_hitters(rd.from_arrow(t), frac=0.002, m=100)


def test_levenshtein_banded_matches_full_dp():
    import random

    from raycdc.extras.dedup import _utf8_matrix, levenshtein_pairs_np

    rng = random.Random(17)
    texts = [''.join(rng.choice("abcd ") for _ in range(rng.randint(0, 50)))
             for _ in range(150)]
    mat, lens = _utf8_matrix(pa.array(texts))
    ia = np.random.default_rng(3).integers(0, 150, 800)
    ib = np.random.default_rng(4).integers(0, 150, 800)
    full = levenshtein_pairs_np(mat, lens, ia, ib)
    for md in (2, 7, 25):
        banded = levenshtein_pairs_np(mat, lens, ia, ib, max_dist=md)
        in_band = full <= md
        assert (banded[in_band] == full[in_band]).all()
        assert (banded[~in_band] == md + 1).all()  # clamped, never under


def test_repetition_scores_hand_checked():
    """Gopher repetition screen: exact fractions on hand-built docs."""
    from raycdc.extras.text import repetition_scores

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "a b c d",                # 4 words, 4 distinct: dup 0, top 1/4
                    "spam spam spam eggs",    # 4 words, 2 distinct: dup .5, top 3/4
                    "   ",                    # token-free: no output row
                ]
            ),
        }
    )
    out = collect(repetition_scores(rd.from_arrow(t))).sort_by("doc_id")
    assert out.num_rows == 2  # token-free doc drops (matches SQL GROUP BY)
    assert out["n_words"].to_pylist() == [4, 4]
    assert out["n_distinct"].to_pylist() == [4, 2]
    assert out["dup_word_frac"].to_pylist() == [0.0, 0.5]
    assert out["top_word_frac"].to_pylist() == [0.25, 0.75]
    assert out["keep"].to_pylist() == [True, False]
    assert out.schema.field("n_words").type == pa.int64()
    assert out.schema.field("keep").type == pa.bool_()


def test_decontaminate_hand_checked():
    """Trigram overlap vs a broadcast eval set: exact fractions."""
    from raycdc.extras.text import decontaminate

    ev = pa.table(
        {
            "doc_id": pa.array([100], pa.int64()),
            "text": pa.array(["alpha beta gamma delta"]),  # grams: abg, bgd
        }
    )
    tr = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma epsilon",   # 2 grams, hit: 'alpha beta gamma'
                    "zeta eta theta iota",        # 2 grams, 0 hits
                    "xy zz",                      # <3 words: no grams, no row
                ]
            ),
        }
    )
    out = collect(
        decontaminate(rd.from_arrow(tr), rd.from_arrow(ev))
    ).sort_by("doc_id")
    assert out["doc_id"].to_pylist() == [1, 2]
    assert out["n_grams"].to_pylist() == [2, 2]
    assert out["n_hit"].to_pylist() == [1, 0]
    assert out["overlap_frac"].to_pylist() == [0.5, 0.0]
    assert out["contaminated"].to_pylist() == [True, False]
    assert out.schema.field("n_hit").type == pa.int64()


def test_decontaminate_eval_cap_raises():
    from raycdc.extras.text import decontaminate

    ev = pa.table(
        {"doc_id": pa.array([1], pa.int64()),
         "text": pa.array(["a b c d e f g h i j"])}  # 8 grams > cap 4
    )
    tr = pa.table({"doc_id": pa.array([2], pa.int64()),
                   "text": pa.array(["a b c"])})
    with pytest.raises(ValueError, match="max_eval_grams"):
        collect(decontaminate(rd.from_arrow(tr), rd.from_arrow(ev),
                              max_eval_grams=4))


def test_repetition_and_decontaminate_filter_mode():
    """emit='filter' returns surviving original rows, all columns."""
    from raycdc.extras.text import decontaminate, repetition_scores

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["spam spam spam eggs",        # fails repetition (top .75)
                 "alpha beta gamma epsilon",   # contaminated vs eval below
                 "zeta eta theta iota"]        # clean
            ),
            "extra": pa.array(["a", "b", "c"]),
        }
    )
    kept = collect(repetition_scores(rd.from_arrow(t), emit="filter"))
    assert kept["doc_id"].to_pylist() == [2, 3]
    assert kept.column_names == ["doc_id", "text", "extra"]

    ev = pa.table({"doc_id": pa.array([9], pa.int64()),
                   "text": pa.array(["alpha beta gamma delta"])})
    clean = collect(
        decontaminate(rd.from_arrow(kept), rd.from_arrow(ev), emit="filter")
    )
    assert clean["doc_id"].to_pylist() == [3]
    assert clean.column_names == ["doc_id", "text", "extra"]


def test_multimodal_gradient_media_stats_closed_form():
    """Oracle-checkable decode (round-5): gradient BMPs from md5(doc_id),
    REAL registry decode in MediaStats, exact integer channel sums and
    f64 means matching the closed form sum_c = h·(w·s_c + w(w−1)/2) —
    the same arithmetic the DuckDB oracle recomputes from md5() hex."""
    import hashlib

    import numpy as np

    from raycdc.extras.multimodal import attach_gradient_media, media_stats

    ids = [f"doc-{i}" for i in range(6)]
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    out = collect(
        media_stats(attach_gradient_media(docs), concurrency=2, batch_size=2)
    ).sort_by("media_id")
    assert out.num_rows == 6
    rows = {r["media_id"]: r for r in out.to_pylist()}
    for i in ids:
        seed = hashlib.md5(i.encode()).digest()
        w, h = 16 + seed[0] % 64, 16 + seed[1] % 64
        r = rows[i]
        assert (r["width"], r["height"]) == (w, h)
        for ch, c in enumerate("rgb"):
            s = seed[2 + ch] % 128
            assert r[f"sum_{c}"] == h * (w * s + w * (w - 1) // 2), (i, c)
            assert r[f"mean_{c}"] == s + (w - 1) / 2.0, (i, c)


def test_multimodal_rvid_roundtrip_and_video_stats():
    """Fourth real codec: the RVID frame container — encode → registry
    decode round-trip (length-prefixed BMP chunk walk), truncation
    raises, then the oracle-checkable VideoStats path: 2-8 gradient
    frames from md5(doc_id), container walk + every-2nd-frame REAL
    decode, exact integer channel sums over the SAMPLED frames matching
    the closed form (the same arithmetic the video_stats DuckDB oracle
    recomputes — including the sampling schedule k = (F+1)//2)."""
    import hashlib

    import numpy as np

    from raycdc.extras.multimodal import (
        attach_gradient_video,
        decode_rvid,
        encode_rvid,
        video_stats,
    )

    rng = np.random.default_rng(11)
    frames = [rng.integers(0, 255, (9, 13, 3)).astype(np.uint8) for _ in range(4)]
    back = decode_rvid(encode_rvid(frames))
    assert len(back) == 4 and all((a == b).all() for a, b in zip(frames, back))
    with pytest.raises(ValueError, match="RVID"):
        decode_rvid(b"nonsense")
    with pytest.raises(ValueError, match="truncated"):
        decode_rvid(encode_rvid(frames)[:-5])

    ids = [f"vid-{i}" for i in range(7)]
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    out = collect(
        video_stats(attach_gradient_video(docs), every_n=2, concurrency=2, batch_size=2)
    )
    rows = {r["media_id"]: r for r in out.to_pylist()}
    for i in ids:
        seed = hashlib.md5(i.encode()).digest()
        w, h = 8 + seed[0] % 24, 8 + seed[1] % 24
        nf = 2 + seed[5] % 7
        k = (nf + 1) // 2
        r = rows[i]
        assert (r["n_frames"], r["n_sampled"]) == (nf, k)
        assert (r["width"], r["height"]) == (w, h)
        for ch, c in enumerate("rgb"):
            s = seed[2 + ch] % 128
            assert r[f"sum_{c}"] == k * h * (w * s + w * (w - 1) // 2) + h * w * k * (k - 1), (i, c)
            assert r[f"mean_{c}"] == s + (w - 1) / 2.0 + (k - 1), (i, c)


def test_multimodal_pil_codecs_when_available():
    """PIL plug point (VERDICT r4 §4): when Pillow is importable the
    registry decodes real PNG bytes; skipped (not failed) in containers
    without an image library — the plug point itself is always asserted."""
    from raycdc.extras.multimodal import DECODERS, HAVE_PIL, register_pil_codecs

    assert register_pil_codecs() == HAVE_PIL
    if not HAVE_PIL:
        assert "png" not in DECODERS and "jpeg" not in DECODERS
        pytest.skip("Pillow not installed in this container")
    import io

    import numpy as np
    from PIL import Image

    pix = np.random.default_rng(3).integers(0, 256, (9, 14, 3), dtype=np.uint8)
    buf = io.BytesIO()
    Image.fromarray(pix).save(buf, format="PNG")
    assert (DECODERS["png"](buf.getvalue()) == pix).all()


def test_multimodal_wav_roundtrip_and_audio_stats():
    """Third real codec: RIFF PCM16 WAV — encode → registry decode
    round-trip (chunk walking, word alignment), then the oracle-checkable
    AudioStats path: ramp clips from md5(doc_id), REAL decode, exact
    integer amplitude sums matching the closed form (the same arithmetic
    the audio_stats DuckDB oracle recomputes)."""
    import hashlib

    import numpy as np

    from raycdc.extras.multimodal import (
        attach_gradient_audio,
        audio_stats,
        decode_wav,
        encode_wav,
    )

    rng = np.random.default_rng(5)
    for n in (1, 7, 1024):
        s = rng.integers(-32768, 32767, n).astype(np.int16)
        got, rate = decode_wav(encode_wav(s, 22050))
        assert rate == 22050 and (got == s).all(), n
    # odd-sized data chunk exercises word alignment via an extra chunk
    extra = encode_wav(np.array([1, 2, 3], dtype=np.int16)) + b"LIST\x04\x00\x00\x00INFO"
    got, rate = decode_wav(extra)
    assert (got == [1, 2, 3]).all() and rate == 16000
    with pytest.raises(ValueError, match="WAVE"):
        decode_wav(b"nonsense")
    # a truncated chunk raises instead of under-decoding (like decode_rvid)
    whole = encode_wav(np.arange(1024, dtype=np.int16), 22050)
    with pytest.raises(ValueError, match="truncated"):
        decode_wav(whole[:-100])  # data chunk declares more bytes than remain
    short_fmt = (b"RIFF" + (36).to_bytes(4, "little") + b"WAVE"
                 + b"fmt " + (8).to_bytes(4, "little") + b"\x01\x00\x01\x00\x22\x56\x00\x00"
                 + b"data" + (16).to_bytes(4, "little") + bytes(16))
    with pytest.raises(ValueError, match="truncated"):
        decode_wav(short_fmt)  # fmt body too short for its fields

    ids = [f"clip-{i}" for i in range(5)]
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    out = collect(audio_stats(attach_gradient_audio(docs), concurrency=2, batch_size=2))
    rows = {r["media_id"]: r for r in out.to_pylist()}
    for i in ids:
        seed = hashlib.md5(i.encode()).digest()
        n, s = 1000 + seed[0] * 4, seed[1] * 16
        samples = s + np.arange(n, dtype=np.int64)
        r = rows[i]
        assert r["n_samples"] == n and r["sample_rate"] == 16000
        assert r["sum_amp"] == samples.sum()
        assert r["sumsq_amp"] == (samples * samples).sum()
        assert r["mean_amp"] == samples.sum() / n
