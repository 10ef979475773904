"""Vectorized text-hashing primitives shared by the dedup and text
stages: whitespace/word tokenization via Arrow kernels, flat 64-bit word
hashing via pandas' keyed siphash (C speed, deterministic across
processes), ragged k-gram rolling hashes and minhash/simhash signatures
via numpy over the *flattened* word stream with per-doc offsets.

These replace the round-1 per-row / per-word Python ``hashlib.md5``
loops (the 100-TB kernel gap): every hot operation below is one Arrow
kernel call or one numpy pass over a flat array; Python loops survive
only for the rare short-document fallback.

Reference analog for determinism requirements: the MD5-derived
pseudo-identities (``IdentityEntry.java:28-41``) — same input must hash
identically on any worker, batch, or cluster size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raycdc.util import splitmix64, str_hash_u64

MERSENNE61 = (1 << 61) - 1


def word_hash_flat(
    texts, pattern: str | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize a string column and hash every word to uint64.

    Returns ``(flat_hashes, offsets)`` where ``offsets`` has
    ``n_docs + 1`` entries delimiting each document's span in
    ``flat_hashes``. ``pattern=None`` splits on whitespace (Arrow
    kernel); otherwise ``pattern`` is an RE2 *separator* regex (e.g.
    ``r"[^a-z0-9]+"`` for word-ish tokens), with empty tokens dropped.
    """
    lower = pc.utf8_lower(texts)
    if pattern is None:
        words = pc.utf8_split_whitespace(lower)
    else:
        words = pc.split_pattern_regex(lower, pattern=pattern)
    la = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    if pattern is not None:
        # drop empty tokens produced by leading/trailing separators
        flat = la.flatten()
        keep = pc.invert(pc.equal(flat, ""))
        lens = np.asarray(
            pc.list_value_length(la).fill_null(0).to_numpy(zero_copy_only=False), dtype=np.int64
        )
        keep_np = np.asarray(keep.to_numpy(zero_copy_only=False), dtype=bool)
        doc_of = np.repeat(np.arange(len(la)), lens)
        kept_per_doc = np.bincount(doc_of[keep_np], minlength=len(la))
        offsets = np.zeros(len(la) + 1, dtype=np.int64)
        np.cumsum(kept_per_doc, out=offsets[1:])
        flat = flat.filter(keep)
        if len(flat) == 0:
            return np.zeros(0, dtype=np.uint64), offsets
        return str_hash_u64(flat), offsets
    offsets = np.asarray(la.offsets).astype(np.int64)
    flat = la.flatten()
    if len(flat) == 0:
        return np.zeros(0, dtype=np.uint64), offsets
    return str_hash_u64(flat), offsets


def gram_hashes(
    fh: np.ndarray, offsets: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rolling k-gram hashes over a flat word-hash stream with document
    boundaries. A doc with ``n >= k`` words yields ``n - k + 1`` grams;
    a doc with ``0 < n < k`` words yields one gram over all its words
    (matching the classic shingling edge case); an empty doc yields none.

    Returns ``(flat_gram_hashes, gram_offsets)`` (``n_docs + 1`` offsets).
    All long-doc work is numpy; only sub-``k``-word docs take a Python
    fallback (bounded, rare).
    """
    T = len(fh)
    n_docs = len(offsets) - 1
    lens = np.diff(offsets)
    gc = np.where(lens >= k, lens - k + 1, np.where(lens > 0, 1, 0)).astype(np.int64)
    m = max(0, T - k + 1)
    acc = np.zeros(0, dtype=np.uint64)
    if m:
        acc = splitmix64(fh[:m])
        for j in range(1, k):
            acc = splitmix64(acc ^ fh[j : j + m])
    out_off = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(gc, out=out_off[1:])
    grams = np.zeros(int(out_off[-1]), dtype=np.uint64)
    long = lens >= k
    if long.any():
        reps = gc[long]
        pos = np.arange(int(reps.sum()), dtype=np.int64)
        local = pos - np.repeat(np.concatenate([[0], np.cumsum(reps[:-1])]), reps)
        dst = np.repeat(out_off[:-1][long], reps) + local
        src = np.repeat(offsets[:-1][long], reps) + local
        grams[dst] = acc[src]
    short = (lens > 0) & ~long
    for d in np.nonzero(short)[0]:
        seg = fh[offsets[d] : offsets[d + 1]]
        hh = splitmix64(seg[:1])
        for j in range(1, len(seg)):
            hh = splitmix64(hh ^ seg[j : j + 1])
        grams[out_off[d]] = hh[0]
    return grams, out_off


def minhash_signatures(
    grams: np.ndarray, gram_offsets: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(n_docs, num_perm) MinHash signature matrix: universal-hash each
    gram under every permutation and segment-min per doc
    (``np.minimum.reduceat`` — one pass, no Python). Empty docs get
    all-zero signatures."""
    num_perm = len(a)
    n_docs = len(gram_offsets) - 1
    gc = np.diff(gram_offsets)
    sig = np.zeros((n_docs, num_perm), dtype=np.uint64)
    ne = gc > 0
    if ne.any():
        V = (a[:, None] * grams[None, :] + b[:, None]) % np.uint64(MERSENNE61)
        mins = np.minimum.reduceat(V, gram_offsets[:-1][ne], axis=1)
        sig[ne] = mins.T
    return sig


def band_fold(sig: np.ndarray, bands: int) -> np.ndarray:
    """Fold a (n_docs, num_perm) signature matrix into (n_docs, bands)
    uint64 band keys (band index mixed in, so equal chunks in different
    bands never collide)."""
    n_docs, num_perm = sig.shape
    r = num_perm // bands
    S = sig.reshape(n_docs, bands, r)
    B = np.broadcast_to(splitmix64(np.arange(bands, dtype=np.uint64)), (n_docs, bands)).copy()
    for j in range(r):
        B = splitmix64(B ^ S[:, :, j])
    return B


def simhash_bits(fh: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """64-bit SimHash per doc over the word-hash multiset: per-bit ±1
    votes summed per doc (``np.add.reduceat``), sign → bit. Empty docs
    hash to 0."""
    n_docs = len(offsets) - 1
    lens = np.diff(offsets)
    out = np.zeros(n_docs, dtype=np.uint64)
    ne = lens > 0
    if not ne.any():
        return out
    bits = ((fh[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.int32
    )
    votes = np.add.reduceat(bits, offsets[:-1][ne], axis=0)  # (n_nonempty, 64)
    votes = 2 * votes - lens[ne][:, None].astype(np.int64)  # Σ(±1)
    set_bits = (votes > 0).astype(np.uint64)
    out[ne] = (set_bits << np.arange(64, dtype=np.uint64)[None, :]).sum(
        axis=1, dtype=np.uint64
    )
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between uint64 arrays via byte-view
    popcount (``np.unpackbits`` — no 64-iteration Python loop)."""
    x = (a.astype(np.uint64) ^ b.astype(np.uint64)).view(np.uint8)
    return np.unpackbits(x.reshape(len(a), 8), axis=1).sum(axis=1).astype(np.int64)
