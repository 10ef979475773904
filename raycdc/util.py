"""Deterministic, vectorized hashing / bucketing primitives.

These replace the reference's two key-derivation strategies:

* stateless deterministic remap (``UIDUtils.createNameBasedUID``,
  reference ``DeidentifyEncryptDICOM.java:313-327``) →
  :func:`raycdc.identity.name_based_uid`
* hash-partition bucketing that replaces the global-lock ``uid_map``
  single-writer (reference ``DeidentificationController.java:108-117``)
  → :func:`bucket_of` (one bucket == one logical single-writer partition).

All functions are pure and parallelism-independent: the same input value
produces the same output no matter which worker, batch, or cluster size
computed it — that property is what makes replay re-convergent
(reference analog: MD5 pseudo-identities, ``IdentityEntry.java:28-41``).
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

_ALLOC_TUNED = False


def tune_allocators(decay_ms: int = 10_000) -> None:
    """Per-worker allocator tuning for hosts with pathological first-touch
    page-population cost (see BASELINE.md): tell Arrow's jemalloc pool to
    KEEP freed pages for ``decay_ms`` instead of returning them to the OS
    (each return forces a slow re-fault on the next allocation). Idempotent
    and safe to call at the top of any hot batch fn — it runs once per
    worker process. Pair with ``MALLOC_MMAP_THRESHOLD_`` (env, set before
    worker spawn) for glibc/numpy allocations."""
    global _ALLOC_TUNED
    if _ALLOC_TUNED:
        return
    try:
        pa.jemalloc_set_decay_ms(decay_ms)
    except (ImportError, NotImplementedError, AttributeError):
        pass
    _ALLOC_TUNED = True


_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 ndarray (public PRNG mix).

    Two allocations total (output + one shift scratch, reused in-place)
    rather than one temp per op — fresh first-touch pages are the
    dominant cost on this class of host (BASELINE.md)."""
    z = np.add(np.asarray(x, dtype=np.uint64), _SPLITMIX_GAMMA)
    t = np.right_shift(z, np.uint64(30))
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def counter_rng_u64(seed: int, counters: np.ndarray) -> np.ndarray:
    """Counter-based deterministic random uint64 stream: f(seed, i).

    Counter-based (rather than sequential) generation is what makes
    synthesis independent of partitioning/parallelism (SURVEY.md §7.4).
    """
    return splitmix64(np.uint64(seed) ^ splitmix64(counters.astype(np.uint64)))


def str_hash_u64(values, seed: int = 0) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of a string column.

    Accepts a pyarrow Array/ChunkedArray, pandas Series, list, or ndarray.
    The kernel is polars' seeded vectorized hash (one C pass over the
    Arrow buffers, ~8 M rows/s — ~80x a pandas keyed-siphash path and
    ~8x a per-row C md5 loop; BASELINE.md kernel bench), finalized with
    splitmix so the published value never exposes the raw kernel. It is
    the only kernel: the hash is part of the lake's bucket layout, so a
    second one would silently route keys to other buckets. polars is a
    declared dependency, and ``tests/test_lake.py::
    test_bucket_of_values_are_pinned`` fails if a polars upgrade moves
    the values. A lake laid out under other values is refused on open
    (:func:`bucket_fingerprint`) and must be rebuilt.
    """
    if isinstance(values, pa.ChunkedArray):
        arr = values
    elif isinstance(values, pa.Array):
        arr = pa.chunked_array([values])
    elif isinstance(values, pd.Series):
        arr = pa.chunked_array([pa.Array.from_pandas(values)])
    else:
        arr = pa.chunked_array([pa.array(values)])
    import polars as pl

    if not pa.types.is_string(arr.type) and not pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.string())
    h = np.asarray(pl.from_arrow(arr).hash(seed=0).to_numpy(), dtype=np.uint64)
    return splitmix64(h ^ np.uint64(seed))


def bucket_of(keys, num_buckets: int) -> np.ndarray:
    """Hash-bucket assignment for a key column, or for a composite key
    given as a ``list`` of columns (int32 result).

    A one-column key is the lake's bucket layout. A composite key folds
    its columns as ``h = splitmix64(h ^ str_hash_u64(col_i, seed=i))``,
    so a one-element list buckets exactly like the bare column.
    """
    cols = keys if isinstance(keys, list) else [keys]
    h = str_hash_u64(cols[0])
    for i, col in enumerate(cols[1:], 1):
        h = splitmix64(h ^ str_hash_u64(col, seed=i))
    return (h % np.uint64(num_buckets)).astype(np.int32)


# the bucket fingerprint's probe keys: empty, non-ASCII, numeric-looking, integer
_PROBE_KEYS = (["", "doc-0001", "Zürich", "日本語テキスト", "0", "-7", "3.5"], [0, 42, -7, 1 << 40])


@functools.cache
def bucket_fingerprint() -> str:
    """A short digest of :func:`str_hash_u64` over fixed probe keys,
    computed once per process. A lake stores it and is refused where it
    differs: under a hash that moved, a key's updates would land in
    another bucket than its row, which would stay live beside them."""
    h = np.concatenate([str_hash_u64(pa.array(keys)) for keys in _PROBE_KEYS])
    return hashlib.sha256(h.astype("<u8").tobytes()).hexdigest()[:16]


def strip_schema_metadata(table: pa.Table) -> pa.Table:
    """Zero-copy drop of schema-level metadata (e.g. the ``pandas`` blob
    parquet writers attach). pyarrow 16 schemas WITH metadata are
    unhashable, which defeats Ray Data's block-schema dedup fast path and
    logs ``Failed to hash the schemas (for deduplication)`` on every
    multi-block read — strip it at the source instead."""
    return table.replace_schema_metadata(None) if table.schema.metadata else table


def read_parquet_clean(paths, *, columns=None, **kwargs):
    """``ray.data.read_parquet`` with schema metadata stripped.

    For a single parquet file whose schema carries metadata, the stripped
    (and column-projected) schema is passed straight to the read so even
    the read operator's internal schema unification sees hashable
    schemas — no extra stage at all. Directories / path lists (hive
    partition columns make a pre-derived schema unsafe) fall back to a
    fused zero-copy strip stage; metadata-free files read plain."""
    import ray.data

    if (
        isinstance(paths, str)
        and paths.endswith(".parquet")
        and os.path.isfile(paths)
        and "schema" not in kwargs
    ):
        import pyarrow.parquet as pq

        s = pq.read_schema(paths)
        if not s.metadata:
            return ray.data.read_parquet(paths, columns=columns, **kwargs)
        s = s.remove_metadata()
        if columns:
            s = pa.schema([s.field(c) for c in columns])
        return ray.data.read_parquet(paths, schema=s, columns=columns, **kwargs)
    return ray.data.read_parquet(paths, columns=columns, **kwargs).map_batches(
        strip_schema_metadata, batch_format="pyarrow"
    )
