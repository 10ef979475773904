"""Identity substitution: broadcast side-table lookup, deterministic
pseudo-identity, and stateless deterministic key remapping.

Reference semantics:
* **identity side table** — CSV loaded once into a shared map, then a
  per-record lookup drives a 3-way route: matched → substitute,
  unmatched+generate → deterministic pseudo-entry, unmatched → the
  ``not_matched`` relationship (``DeidentificationController.java:133-169``,
  ``DeidentifyDICOM.java:220-234``).
* **pseudo-identity** — MD5-derived, deterministic → idempotent under
  replay (``IdentityEntry.java:28-41``: ``"Anonymous^" + MD5(id)[0:10]`` etc.).
* **name-based deterministic UID remap** — stateless, consistent across
  nodes without shared state (``DeidentifyEncryptDICOM.java:313-327``).

Engine model: the side table is broadcast once (``ray.put`` on the
driver, ``ray.get`` in each actor's ``__init__``) — a broadcast hash
join, never a shuffle. Pseudo-identity is a pure vectorized hash column.
"""

from __future__ import annotations

import hashlib
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from raycdc.routing import ROUTE_COL, ROUTE_OK, ROUTE_ORPHAN

_NAMESPACE = uuid.UUID("6ba7b810-9dad-11d1-80b4-00c04fd430c8").bytes  # RFC 4122 DNS ns


def _per_distinct(values, fn, typ) -> pa.Array:
    """``fn`` over each DISTINCT non-null value, gathered back to row
    order: ``dictionary_encode`` → ``fn`` on the dictionary → ``take``.
    Exact for a pure ``fn``; NULL rows stay NULL. ``typ=None`` infers
    the output type from the mapped values (``null`` when there are
    none). The dictionary reaches ``fn`` through ``to_numpy``, which
    hands over Python strings without boxing an Arrow scalar per value
    (only a ``null``-typed input's dictionary holds a None)."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    elif not isinstance(values, pa.Array):
        values = pa.array(values, type=pa.string())
    enc = values.dictionary_encode()
    dist = enc.dictionary.to_numpy(zero_copy_only=False)
    mapped = [None if v is None else fn(v) for v in dist]
    return pa.array(mapped, type=typ).take(enc.indices)


def _pseudo(v: str) -> str:
    return "anon-" + hashlib.md5(v.encode()).hexdigest()[:16]


def pseudo_id(values) -> pa.Array:
    """Deterministic replacement id: ``anon-`` + md5(doc_id)[:16].
    Pure → replay-reconvergent (reference golden:
    ``DeidentifyDICOMTest.java:128-176``); each distinct id is hashed
    once per call."""
    return _per_distinct(values, _pseudo, pa.string())


def _uuid5(v: str) -> str:
    h = bytearray(hashlib.sha1(_NAMESPACE + v.encode()).digest()[:16])
    h[6] = (h[6] & 0x0F) | 0x50  # version 5
    h[8] = (h[8] & 0x3F) | 0x80  # RFC 4122 variant
    x = h.hex()
    return f"{x[:8]}-{x[8:12]}-{x[12:16]}-{x[16:20]}-{x[20:]}"


def name_based_uid(values) -> pa.Array:
    """Stateless deterministic remap — UUIDv5 over the original key
    (the ``createNameBasedUID`` analog). Keeps related keys consistent
    across nodes with zero shared state.

    Computes RFC-4122 v5 directly (sha1 + version/variant bits + hex
    slices): byte-identical to ``uuid.uuid5`` without a UUID object per
    value, and each distinct value is hashed once per call. The output
    type is inferred: ``null`` when no value is non-null."""
    return _per_distinct(values, _uuid5, None)


def load_identity_map(path_or_table) -> dict[str, tuple[str, str | None]]:
    """Side-table loader (CSV/Parquet/Arrow) → {doc_id: (new_doc_id,
    new_source)}. Rows with a null key are discarded (reference logs and
    skips them, ``DeidentificationController.java:141-151``)."""
    if isinstance(path_or_table, pa.Table):
        t = path_or_table
    elif str(path_or_table).endswith(".parquet"):
        import pyarrow.parquet as pq

        t = pq.read_table(path_or_table)
    else:
        import pyarrow.csv as pcsv

        t = pcsv.read_csv(path_or_table)
    out: dict[str, tuple[str, str | None]] = {}
    cols = t.column_names
    src = "new_source" in cols
    for row in t.to_pylist():
        k = row.get("doc_id")
        if k is None:
            continue
        out[k] = (row.get("new_doc_id"), row.get("new_source") if src else None)
    return out


class IdentitySubstitute:
    """Actor-pool stage: substitute identities from a broadcast map.

    ``__init__`` runs once per actor and pulls the broadcast side table
    out of the object store (broadcast hash join, small side), laying it
    out as parallel Arrow arrays. Per batch (``__call__``) the lookup is
    ``pc.index_in`` (Arrow's vectorized hash probe) + ``take`` +
    ``if_else`` — zero pandas/object-dtype round-trips on the flagship
    deid path (every byte stays in Arrow buffers).

    Routing (3-way, reference ``DeidentifyDICOM.java:220-234``):
    * matched            → substitute ``doc_id`` (and ``source`` if mapped)
    * unmatched & generate_unmatched → deterministic pseudo-identity
    * unmatched otherwise → ``_route = not_matched`` (orphan)
    The original key is preserved in ``orig_doc_id`` for lineage.
    """

    def __init__(self, map_ref, generate_unmatched: bool = True, key: str = "doc_id"):
        m = ray.get(map_ref) if isinstance(map_ref, ray.ObjectRef) else map_ref
        # side table as parallel Arrow arrays: probe with pc.index_in,
        # fetch with take — a null new_* value stays "no substitution"
        # (same semantics the old pandas map had via NaN)
        self.map_keys = pa.array(list(m.keys()), type=pa.string())
        self.map_new_id = pa.array([v[0] for v in m.values()], type=pa.string())
        self.map_new_source = pa.array([v[1] for v in m.values()], type=pa.string())
        self.generate_unmatched = generate_unmatched
        self.key = key

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key]
        pos = pc.index_in(keys, value_set=self.map_keys)
        mapped = pc.take(self.map_new_id, pos)
        matched = pc.is_valid(mapped)
        if self.generate_unmatched:
            new_ids = pc.if_else(matched, mapped, pseudo_id(keys))
            route = pa.array(np.full(len(batch), ROUTE_OK), type=pa.string())
        else:
            new_ids = pc.if_else(matched, mapped, keys)
            route = pc.if_else(matched, pa.scalar(ROUTE_OK, pa.string()),
                               pa.scalar(ROUTE_ORPHAN, pa.string()))

        t = batch
        if "orig_doc_id" not in t.column_names:
            t = t.append_column("orig_doc_id", t[self.key])
        t = t.set_column(t.column_names.index(self.key), self.key,
                         new_ids.cast(pa.string()))
        if "source" in t.column_names and self.map_new_source.null_count < len(self.map_new_source):
            src_mapped = pc.take(self.map_new_source, pos)
            src = pc.if_else(pc.is_valid(src_mapped), src_mapped, t["source"])
            t = t.set_column(t.column_names.index("source"), "source",
                             src.cast(pa.string()))
        if ROUTE_COL in t.column_names:
            # don't overwrite an existing dead_letter stamp
            prev = t[ROUTE_COL]
            route = pc.if_else(pc.equal(prev, ROUTE_OK), route, prev)
            t = t.set_column(t.column_names.index(ROUTE_COL), ROUTE_COL, route)
        else:
            t = t.append_column(ROUTE_COL, route)
        return t


def substitute_identities(
    ds: ray.data.Dataset,
    identity_map: dict,
    generate_unmatched: bool = True,
    key: str = "doc_id",
    concurrency: int | tuple[int, int] = (1, 4),
    batch_size: int = 65536,
) -> ray.data.Dataset:
    """Broadcast the side table once, then run the actor-pool stage."""
    ref = ray.put(identity_map)
    return ds.map_batches(
        IdentitySubstitute,
        fn_constructor_kwargs={"map_ref": ref, "generate_unmatched": generate_unmatched, "key": key},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
