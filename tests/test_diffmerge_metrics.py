"""Round-trip diff/merge + envelope + conflict policy + metrics actor.

Reference analogs: round-trip inverse property
(`DeidentifyEncryptDICOMTest.java:97-123`), envelope decryptability
(`:38-95`), conflict policy (`:125-158`), cache-stats JSON
(`LogCacheStatistics.java:49-61`).
"""

import hashlib

import pyarrow as pa
import ray.data as rd

from raycdc.diffmerge import (
    CHANGESET_COL,
    ROUTE_NOT_DECRYPTED,
    DecryptReidentify,
    DeidentifyEncrypt,
    apply_changeset,
    compute_changeset,
    seal,
    unseal,
)
from raycdc.metrics import Metrics, count_rows
from raycdc.rules import RuleSet
from raycdc.routing import ROUTE_OK
from raycdc.synth import base_table


RULES = RuleSet.from_config(
    {
        "rules": [
            {"column": "source", "action": "replace", "value": "redacted"},
            {"column": "tokens", "action": "map", "fn": "drop_first_k", "k": 2},
            {"column": "n_tok", "action": "derive", "fn": "recompute_len", "on": "tokens"},
        ]
    }
)


def test_seal_unseal_roundtrip_and_determinism():
    blob = seal(b"payload", "pw", iterations=10)
    assert unseal(blob, "pw", iterations=10) == b"payload"
    assert unseal(blob, "WRONG", iterations=10) is None  # not-decrypted route
    assert seal(b"payload", "pw", iterations=10) == blob  # replay-stable


def test_sealer_matches_the_standard_library():
    """The sealer's nonce from precomputed SHA-256 pad states is exactly
    ``hmac.new(key, payload, sha256).digest()[:12]``; the payload lengths
    cross SHA-256's block (64) and padding (55/56, 119/120) boundaries."""
    import hmac
    import random

    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    from raycdc.diffmerge import _derive_key, _sealer

    rng = random.Random(5)
    keys = [_derive_key("pw", 10), bytes(32), b"\xff" * 32,
            *(rng.randbytes(32) for _ in range(3))]
    for key in keys:
        seal_one = _sealer(key)
        for n in (0, 1, 55, 56, 63, 64, 65, 119, 120, 1000):
            p = rng.randbytes(n)
            nonce = hmac.new(key, p, hashlib.sha256).digest()[:12]
            assert seal_one(p) == nonce + AESGCM(key).encrypt(nonce, p, None)
    assert seal(b"payload", "pw", iterations=10) == _sealer(_derive_key("pw", 10))(b"payload")


def test_changeset_roundtrip_plain():
    base = base_table(20, seed=6, min_len=4, max_len=8)
    enc = compute_changeset(base, RULES(base))
    assert CHANGESET_COL in enc.column_names
    # transformed values actually differ
    assert set(enc["source"].to_pylist()) == {"redacted"}
    dec = apply_changeset(enc)
    assert set(dec["_route"].to_pylist()) == {ROUTE_OK}
    restored = dec.select(base.column_names).cast(base.schema).sort_by("doc_id")
    assert restored.equals(base.sort_by("doc_id"))


def test_changeset_roundtrip_sealed_distributed():
    base = base_table(30, seed=8, min_len=4, max_len=8)
    ds = rd.from_arrow(base).map_batches(
        DeidentifyEncrypt,
        fn_constructor_kwargs={"ruleset": RULES, "password": "pw", "iterations": 10},
        batch_format="pyarrow",
        batch_size=8,
        concurrency=2,
    )
    dec = ds.map_batches(
        DecryptReidentify,
        fn_constructor_kwargs={"password": "pw", "iterations": 10},
        batch_format="pyarrow",
        batch_size=8,
        concurrency=2,
    )
    out = pa.concat_tables(
        list(dec.iter_batches(batch_size=None, batch_format="pyarrow")),
        promote_options="permissive",
    )
    assert set(out["_route"].to_pylist()) == {ROUTE_OK}
    restored = out.select(base.column_names).cast(base.schema).sort_by("doc_id")
    assert restored.equals(base.sort_by("doc_id"))


def test_wrong_password_routes_not_decrypted():
    base = base_table(5, seed=9, min_len=4, max_len=8)
    enc = compute_changeset(base, RULES(base), password="pw", iterations=10)
    dec = apply_changeset(enc, password="nope", iterations=10)
    assert set(dec["_route"].to_pylist()) == {ROUTE_NOT_DECRYPTED}
    # payload left as-is (still deidentified)
    assert set(dec["source"].to_pylist()) == {"redacted"}


def test_conflict_policy_reject_vs_accept_new():
    base = base_table(4, seed=10, min_len=4, max_len=8)
    enc = compute_changeset(base, RULES(base))
    # mutate the key after sealing (the new-series scenario)
    i = enc.column_names.index("doc_id")
    enc2 = enc.set_column(i, "doc_id", pa.array([f"moved-{k}" for k in range(enc.num_rows)]))
    rej = apply_changeset(enc2, accept_new=False)
    assert set(rej["_route"].to_pylist()) == {ROUTE_NOT_DECRYPTED}
    acc = apply_changeset(enc2, accept_new=True)
    assert set(acc["_route"].to_pylist()) == {ROUTE_OK}
    # accept-as-new preserves the CURRENT keys but restores payload
    assert acc["doc_id"].to_pylist() == [f"moved-{k}" for k in range(enc.num_rows)]
    assert acc.select(["tokens"]).cast(pa.schema([("tokens", pa.list_(pa.int32()))]))[
        "tokens"
    ].to_pylist() == base["tokens"].to_pylist()


def _adversarial_pair():
    """One batch and its transform: escape-needing, control, DEL,
    non-ASCII and NULL strings, a 2**40 int, NaN / 1e20 / -0.0 floats,
    lists, bools, a key changed to NULL, and a last row the transform
    leaves as it was."""
    src = ["web", 'q"uote', "back\\slash", "ctl\x01", "del\x7f", "café",
           "数据", "tab\there", None, "plain"]
    orig = pa.table({
        "doc_id": [f"doc-{i}" for i in range(10)],
        "source": src,
        "n_tok": pa.array([2**40, -7, None, 0, 1, 2, 3, 4, 5, 6], pa.int64()),
        "score": pa.array([float("nan"), 1e20, None, 1.5, -0.0, 2.0, 3.25, 4.0, 5.0, 6.0]),
        "tokens": pa.array([[1, 2], [3], [], None, [4], [5], [6], [7], [8], [9]],
                           pa.list_(pa.int32())),
        "flag": pa.array([True, False, None, True, False, True, False, True, False, True]),
        "extra": ["x0", None, "ü", "\n", "e4", "e5", "e6", "e7", "e8", "e9"],
    })
    keep = orig.num_rows - 1

    def alt(col, new):
        old = orig[col].to_pylist()
        return pa.array(new[:keep] + old[keep:], orig[col].type)

    trans = pa.table({
        "doc_id": alt("doc_id", ["anon-0", "anon-1", "ä-2", 'anon-"3', "anon-4",
                                 "anon-5", "anon-6", "anon-7", None]),
        "source": alt("source", ["redacted"] * keep),
        "n_tok": alt("n_tok", [1, -6, 5, 1, 2, 3, 4, 5, 6]),
        "score": alt("score", [0.5] * keep),
        "tokens": alt("tokens", [[2], [], [7], [1], [], [], [], [], []]),
        "flag": alt("flag", [False, True, True, False, True, False, True, False, True]),
        "extra": orig["extra"],
    })
    return orig, trans


def _adversarial_blobs(password, kdf):
    """Three calls: a removed column, every column kept (the last row
    unchanged), and a ``key`` the transformed table lacks."""
    orig, trans = _adversarial_pair()
    removed = trans.drop_columns(["extra"])
    out = []
    for t, key in ((removed, "doc_id"), (trans, "doc_id"), (removed, "nope")):
        out += compute_changeset(orig, t, key=key, password=password,
                                 iterations=10, kdf=kdf)[CHANGESET_COL].to_pylist()
    return out


def _reference_blobs():
    """The per-row reference: one patch dict per row, one ``json.dumps``."""
    import json

    orig, trans = _adversarial_pair()
    o = orig.to_pylist()
    out = []
    for t, key in ((trans.drop_columns(["extra"]), "doc_id"), (trans, "doc_id"),
                   (trans.drop_columns(["extra"]), "nope")):
        for ro, rt in zip(o, t.to_pylist()):
            restore = {c: v for c, v in ro.items() if c not in rt or v != rt[c]}
            patch = {"expect": {key: rt.get(key)}, "restore": restore}
            out.append(json.dumps(patch, sort_keys=True, separators=(",", ":")).encode())
    return out


def _sha256_of(blobs):
    h = hashlib.sha256()
    for b in blobs:
        h.update(len(b).to_bytes(4, "big") + b)
    return h.hexdigest()


def test_changeset_bytes_are_pinned():
    """Replay reconverges only if a record seals to the same bytes on
    every run and engine version: these values were computed before the
    columnar envelope build and must never move."""
    plain = _adversarial_blobs(None, "batch")
    assert plain[0] == (
        b'{"expect":{"doc_id":"anon-0"},"restore":{"doc_id":"doc-0","extra":"x0",'
        b'"flag":true,"n_tok":1099511627776,"score":NaN,"source":"web","tokens":[1,2]}}'
    )
    assert plain[2] == (
        b'{"expect":{"doc_id":"\\u00e4-2"},"restore":{"doc_id":"doc-2","extra":"\\u00fc",'
        b'"flag":null,"n_tok":null,"score":null,"source":"back\\\\slash","tokens":[]}}'
    )
    assert plain[19] == b'{"expect":{"doc_id":"doc-9"},"restore":{}}'
    assert plain[29] == b'{"expect":{"nope":null},"restore":{"extra":"e9"}}'
    assert _sha256_of(plain) == "cf5cbe31ea1b7ae2a99affd9a976be83a3614e06d54fee1ccbdcbde43a54721a"
    assert plain == _reference_blobs()
    sealed = _adversarial_blobs("pw", "batch")
    assert _sha256_of(sealed) == "3c7f69350eea5d352647847cee41174360d1bbd6e0b8ee94716f592db0253e57"
    # kdf only changes the cost model, never a byte
    assert _adversarial_blobs("pw", "row") == sealed
    assert [unseal(b, "pw", iterations=10) for b in sealed] == plain


def test_metrics_actor_counts_rows():
    m = Metrics("test_metrics")
    m.reset()
    ds = rd.from_arrow(base_table(100, seed=12, min_len=4, max_len=8))
    ds = count_rows(ds, "seen", metrics_name="test_metrics", batch_size=32)
    assert ds.count() == 100
    stats = m.stats()
    assert stats.get("seen") == 100


def test_apply_changeset_empty_batch_keeps_schema():
    # code-review regression: from_pylist([]) collapses the schema
    base = base_table(3, seed=6, min_len=4, max_len=8)
    enc = compute_changeset(base, RULES(base)).slice(0, 0)
    out = apply_changeset(enc)
    assert out.num_rows == 0
    assert set(out.column_names) == set(base.column_names) | {"_route"}


def test_lww_apply_publishes_index_counters():
    """LogCacheStatistics parity (DeidentificationController.java:102,171-174):
    a metered lww_apply publishes partial/fold/keys/superseded/tombstone
    counters whose invariants are checkable exactly on a fixture replay."""
    from raycdc.apply import lww_apply

    keys = [f"k{i}" for i in range(10)]
    rows = {"doc_id": [], "lsn": [], "op": [], "v": []}
    for k in keys:
        for lsn in (1, 2, 3):
            rows["doc_id"].append(k)
            rows["lsn"].append(lsn)
            rows["op"].append("upsert")
            rows["v"].append(f"{k}@{lsn}")
    for k in keys[:2]:  # tombstone is the global last writer for k0, k1
        rows["doc_id"].append(k)
        rows["lsn"].append(4)
        rows["op"].append("delete")
        rows["v"].append("")
    ev = pa.table({"doc_id": rows["doc_id"],
                   "lsn": pa.array(rows["lsn"], type=pa.int64()),
                   "op": rows["op"], "v": rows["v"]})

    m = Metrics("test_apply_metrics")
    m.reset()
    out = lww_apply(rd.from_arrow(ev), key="doc_id", num_buckets=4,
                    metrics_name="test_apply_metrics")
    assert out.count() == 8  # 10 keys - 2 tombstoned
    s = m.stats_stable()
    assert s["apply.partial_rows_in"] == 32
    # level-1 output == level-2 input (the bucket stamp adds no rows)
    assert s["apply.partial_rows_out"] == s["apply.fold_rows_in"]
    assert s["apply.keys_out"] == 8
    assert s["apply.tombstones_dropped"] == 2
    # winners = keys_out + tombstones; everything else was superseded
    winners = s["apply.fold_rows_in"] - s["apply.rows_superseded"]
    assert winners == 10
    assert s["apply.buckets_folded"] >= 1


def test_lake_apply_publishes_epoch_counters(tmp_path):
    """The lake's epoch counters live in the manifest history, one entry
    per committed epoch, written from stats already in hand at commit."""
    from raycdc.apply import base_as_inserts
    from raycdc.lake import LakeTable

    lake = LakeTable(str(tmp_path / "lake"), num_partitions=4)
    lake.init()
    base = base_table(50, seed=3, min_len=4, max_len=8)
    lake.apply(base_as_inserts(rd.from_arrow(base)), ["__base__"])
    history = lake.manifest()["history"]
    assert len(history) == 1  # one epoch committed
    assert history[0]["events_after_reduce"] == 50
    assert history[0]["l0_runs"] == 1  # one input block → one run
