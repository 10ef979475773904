"""Routing matrix + identity substitution (reference:
DeidentifyDICOM 3-way routing `DeidentifyDICOM.java:220-234`,
garbage routing `DeidentifyDICOMTest.java:178-195`,
pseudo-identity goldens `DeidentifyDICOMTest.java:128-176`)."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from raycdc.identity import (
    IdentitySubstitute,
    load_identity_map,
    name_based_uid,
    pseudo_id,
    substitute_identities,
)
from raycdc.routing import (
    ROUTE_COL,
    ROUTE_DEAD_LETTER,
    ROUTE_OK,
    ROUTE_ORPHAN,
    stamp_route,
)
from raycdc.synth import EventGenConfig, base_table, events_table, is_malformed_mask


def route_counts(t: pa.Table) -> Counter:
    return Counter(stamp_route(t, "doc_id")[ROUTE_COL].to_pylist())


def test_route_matrix_counts():
    cfg = EventGenConfig(n_events=1000, n_base=100, seed=13, pct_malformed=0.1, min_len=4, max_len=8)
    ev = events_table(cfg)
    n_bad = int(is_malformed_mask(ev).sum())
    counts = route_counts(ev)
    assert counts[ROUTE_DEAD_LETTER] == n_bad
    assert counts[ROUTE_OK] == 1000 - n_bad


def test_split_valid_roundtrip():
    cfg = EventGenConfig(n_events=500, n_base=50, seed=17, pct_malformed=0.2, min_len=4, max_len=8)
    ev = events_table(cfg)
    stamped = rd.from_arrow(ev).map_batches(stamp_route, fn_kwargs={"key": "doc_id"},
                                            batch_format="pyarrow", batch_size=64)

    def route(r):
        return stamped.map_batches(
            lambda t: t.filter(pc.equal(t[ROUTE_COL], r)).drop_columns([ROUTE_COL]),
            batch_format="pyarrow")

    ok, dead = route(ROUTE_OK), route(ROUTE_DEAD_LETTER)
    n_ok, n_dead = ok.count(), dead.count()
    assert n_ok + n_dead == 500
    # dead letters keep full payload for repair/re-submit
    assert set(dead.schema().names) == set(ev.column_names)


def test_bad_op_and_null_key_dead_lettered():
    t = pa.table(
        {
            "lsn": pa.array([1, 2, 3], type=pa.int64()),
            "op": ["upsert", "insert", "insert"],  # 'upsert' is unknown
            "doc_id": ["a", None, "c"],
            "tokens": pa.array([[1], [1], [1]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1, 1], type=pa.int32()),
            "source": ["web", "web", "web"],
        }
    )
    counts = route_counts(t)
    assert counts[ROUTE_DEAD_LETTER] == 2 and counts[ROUTE_OK] == 1


def test_pseudo_id_deterministic_golden():
    a = pseudo_id(pa.array(["doc-00000001"]))[0].as_py()
    b = pseudo_id(pa.array(["doc-00000001"]))[0].as_py()
    assert a == b and a.startswith("anon-") and len(a) == 5 + 16
    assert name_based_uid(pa.array(["x"]))[0].as_py() == name_based_uid(pa.array(["x"]))[0].as_py()
    assert name_based_uid(pa.array(["x"]))[0].as_py() != name_based_uid(pa.array(["y"]))[0].as_py()


def test_identity_functions_golden_values():
    """Literal outputs, so that the engine and the perfbench oracle
    (which pseudonymizes with these same functions) cannot drift
    together: repeats, NULLs, non-ASCII, chunked, all-NULL and empty
    inputs, each with its output type."""
    import hashlib
    import uuid

    vals = ["doc-00000001", "doc-00000001", None, "café", "数据", "x"]
    want_pid = ["anon-d82da37a38936cd5", "anon-d82da37a38936cd5", None,
                "anon-07117fe4a1ebd544", "anon-0d83078816aa273f", "anon-9dd4e461268c8034"]
    want_uid = ["e60fd665-a2e2-5668-ae32-6a4bd501c64f", "e60fd665-a2e2-5668-ae32-6a4bd501c64f",
                None, "5e2e2331-a683-5e18-b56d-666e31574b41",
                "f788f0ab-b768-5cda-8ea1-7b81c80979d9", "05b16a01-46c6-56dd-bd6e-c6dfb4a1427a"]
    assert want_pid == [None if v is None else "anon-" + hashlib.md5(v.encode()).hexdigest()[:16]
                        for v in vals]
    assert want_uid == [None if v is None else str(uuid.uuid5(uuid.NAMESPACE_DNS, v))
                        for v in vals]
    chunked = pa.chunked_array([vals[:2], vals[2:4], vals[4:]], pa.string())
    for inp in (pa.array(vals), chunked, vals):
        pid, uid = pseudo_id(inp), name_based_uid(inp)
        assert pid.type == pa.string() and pid.to_pylist() == want_pid
        assert uid.type == pa.string() and uid.to_pylist() == want_uid
    for inp in (pa.array([None, None], pa.string()), pa.array([], pa.string()), pa.nulls(2)):
        pid, uid = pseudo_id(inp), name_based_uid(inp)
        assert pid.type == pa.string() and pid.to_pylist() == [None] * len(inp)
        assert uid.type == pa.null() and uid.to_pylist() == [None] * len(inp)


def test_identity_functions_on_buffer_shapes():
    """The identity functions read their input's buffers: a slice (non-zero
    offset), a ``large_string`` array and a chunked input with an empty
    chunk and NULLs each give the per-value ``hashlib`` / ``uuid.uuid5``
    result."""
    import hashlib
    import uuid

    def ref_pid(vals):
        return [None if v is None else "anon-" + hashlib.md5(v.encode()).hexdigest()[:16]
                for v in vals]

    def ref_uid(vals):
        return [None if v is None else str(uuid.uuid5(uuid.NAMESPACE_DNS, v)) for v in vals]

    vals = [f"doc-{i % 7}" for i in range(20)] + [None, "é", "数据", ""]
    shapes = [
        pa.array(vals).slice(3, 17),
        pa.array(vals, pa.large_string()),
        pa.array(vals, pa.large_string()).slice(5),
        pa.chunked_array([vals[:4], [], vals[4:9], [None, None], vals[9:]], pa.string()),
    ]
    for inp in shapes:
        want = inp.to_pylist()
        assert pseudo_id(inp).to_pylist() == ref_pid(want)
        assert name_based_uid(inp).to_pylist() == ref_uid(want)


def test_identity_substitute_matched_and_generated():
    base = base_table(10, seed=7, min_len=4, max_len=8)
    ids = base["doc_id"].to_pylist()
    imap = {ids[0]: ("mapped-0", "books"), ids[1]: ("mapped-1", None)}
    stage = IdentitySubstitute(imap, generate_unmatched=True)
    out = stage(base)
    got = dict(zip(out["orig_doc_id"].to_pylist(), out["doc_id"].to_pylist()))
    assert got[ids[0]] == "mapped-0" and got[ids[1]] == "mapped-1"
    # unmatched got deterministic pseudo ids
    assert got[ids[2]] == pseudo_id(pa.array([ids[2]]))[0].as_py()
    # mapped source substitution only where provided
    src = dict(zip(out["orig_doc_id"].to_pylist(), out["source"].to_pylist()))
    assert src[ids[0]] == "books"
    assert src[ids[1]] == base["source"].to_pylist()[1]
    assert set(out[ROUTE_COL].to_pylist()) == {ROUTE_OK}


def test_identity_substitute_orphan_route():
    base = base_table(6, seed=7, min_len=4, max_len=8)
    ids = base["doc_id"].to_pylist()
    imap = {ids[0]: ("m0", None)}
    out = IdentitySubstitute(imap, generate_unmatched=False)(base)
    routes = dict(zip(out["orig_doc_id"].to_pylist(), out[ROUTE_COL].to_pylist()))
    assert routes[ids[0]] == ROUTE_OK
    assert all(routes[i] == ROUTE_ORPHAN for i in ids[1:])
    # orphans keep their original key (no substitution)
    got = dict(zip(out["orig_doc_id"].to_pylist(), out["doc_id"].to_pylist()))
    assert all(got[i] == i for i in ids[1:])


def test_identity_substitute_distributed_broadcast():
    base = base_table(100, seed=7, min_len=4, max_len=8)
    ids = base["doc_id"].to_pylist()
    imap = {i: ("m-" + i, None) for i in ids[:50]}
    ds = substitute_identities(rd.from_arrow(base).repartition(4), imap, concurrency=2, batch_size=32)
    out = {r["orig_doc_id"]: r["doc_id"] for r in ds.take_all()}
    assert all(out[i] == "m-" + i for i in ids[:50])
    assert all(out[i].startswith("anon-") for i in ids[50:])


def test_load_identity_map_skips_null_keys(tmp_path):
    t = pa.table({"doc_id": ["a", None], "new_doc_id": ["x", "y"], "new_source": ["s", None]})
    import pyarrow.parquet as pq

    p = str(tmp_path / "m.parquet")
    pq.write_table(t, p)
    m = load_identity_map(p)
    assert m == {"a": ("x", "s")}


def test_validate_schema_tolerant():
    """code-review regression: validation must not assume the tokens
    payload columns (generic CDC streams may lack them)."""
    t = pa.table(
        {
            "lsn": pa.array([1, 2], type=pa.int64()),
            "op": ["insert", "bogus"],
            "doc_id": ["a", "b"],
            "value": [1.0, 2.0],
        }
    )
    assert route_counts(t) == {ROUTE_OK: 1, ROUTE_DEAD_LETTER: 1}


def test_dead_letter_file_named_from_content(tmp_path):
    """A retried validate task rewrites its dead letters under the same
    content-derived name instead of adding a duplicate file."""
    import os

    import pyarrow.parquet as pq

    from raycdc.routing import make_validator

    cfg = EventGenConfig(n_events=200, n_base=20, seed=5, pct_malformed=0.2, min_len=4, max_len=8)
    ev = events_table(cfg)
    n_bad = int(is_malformed_mask(ev).sum())
    dl = str(tmp_path / "dead")
    validator = make_validator("doc_id", dl)
    for _ in range(2):  # the original attempt and its retry
        stamped = validator(ev)
    # every row comes back, stamped: the lake's run writer drops the dead ones
    assert stamped.num_rows == 200
    routes = stamped[ROUTE_COL].to_pylist()
    assert routes.count(ROUTE_OK) == 200 - n_bad
    assert routes.count(ROUTE_DEAD_LETTER) == n_bad
    assert [r == ROUTE_DEAD_LETTER for r in routes] == is_malformed_mask(ev).tolist()
    assert len(os.listdir(dl)) == 1
    assert pq.read_table(dl).num_rows == n_bad


def test_malformed_mask_on_chunked_tokens():
    """``is_malformed_mask`` reads list lengths off a multi-chunk
    ``tokens`` column as given and equals the per-chunk masks, concatenated."""
    cfg = EventGenConfig(n_events=300, n_base=20, seed=9, pct_malformed=0.2, min_len=4, max_len=8)
    parts = [events_table(cfg, lo, lo + 100) for lo in (1, 101, 201)]
    chunked = pa.concat_tables(parts)
    assert chunked["tokens"].num_chunks == 3
    want = np.concatenate([is_malformed_mask(p) for p in parts])
    assert 0 < want.sum() < 300
    assert is_malformed_mask(chunked).tolist() == want.tolist()
    assert is_malformed_mask(chunked.combine_chunks()).tolist() == want.tolist()


def test_dead_letter_write_is_atomic(tmp_path, monkeypatch):
    """A write that dies after creating its output file leaves no torn
    ``dead-*.parquet`` under the final name: dead letters go through
    tmp+fsync+rename like every other lake file."""
    import glob

    import pyarrow.parquet as pq
    import pytest

    from raycdc.routing import make_validator

    def torn_write(table, where, **kw):
        with open(where, "wb") as f:
            f.write(b"PAR1")  # a partial file, then the crash
        raise OSError("disk full")

    monkeypatch.setattr(pq, "write_table", torn_write)
    cfg = EventGenConfig(n_events=200, n_base=20, seed=5, pct_malformed=0.2, min_len=4, max_len=8)
    dl = str(tmp_path / "dead")
    with pytest.raises(OSError, match="disk full"):
        make_validator("doc_id", dl)(events_table(cfg))
    assert glob.glob(str(tmp_path / "dead" / "dead-*.parquet")) == []
