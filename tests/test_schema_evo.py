"""Schema evolution: add / widen via unification at batch boundaries,
rename via rules; end-to-end through the lake (FIXTURES.md F6)."""

import pyarrow as pa
import ray.data as rd

from raycdc.apply import base_as_inserts
from raycdc.lake import LakeTable
from raycdc.rules import RuleSet
from raycdc.schema_evo import conform_to, schema_from_str, schema_to_str, unify
from raycdc.synth import base_table


def test_unify_add_and_widen():
    s1 = pa.schema([("a", pa.int32()), ("b", pa.string())])
    s2 = pa.schema([("a", pa.int64()), ("c", pa.float32())])
    u = unify([s1, s2])
    assert u.field("a").type == pa.int64()  # widened
    assert set(u.names) == {"a", "b", "c"}  # added


def test_conform_to_backfills_and_casts():
    target = pa.schema([("a", pa.int64()), ("b", pa.string()), ("lang", pa.string())])
    t = pa.table({"a": pa.array([1, 2], type=pa.int32()), "b": ["x", "y"], "extra": [0, 0]})
    out = conform_to(target)(t)
    assert out.schema.equals(target)
    assert out["lang"].null_count == 2
    assert "extra" not in out.column_names


def test_schema_roundtrip_serialization():
    s = pa.schema([("tokens", pa.list_(pa.int32())), ("doc_id", pa.string())])
    assert schema_from_str(schema_to_str(s)).equals(s)


import pytest


@pytest.fixture(params=["l0"])
def commit_mode(request):
    return request.param


def test_lake_schema_evolution_add_column(tmp_path, commit_mode):
    """Events gain a `lang` column mid-stream: older state rows backfill
    with nulls; the manifest schema evolves; read() is uniform."""
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=4, commit_mode=commit_mode)
    lk.init()
    base = base_table(50, seed=2, min_len=4, max_len=8)
    lk.apply(base_as_inserts(rd.from_arrow(base)), ["__base__"])

    evolved = pa.table(
        {
            "lsn": pa.array([1000, 1001], type=pa.int64()),
            "op": ["insert", "update"],
            "doc_id": ["doc-new-x", base["doc_id"][0].as_py()],
            "tokens": pa.array([[1], [2, 2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1, 2], type=pa.int32()),
            "source": ["web", "web"],
            "lang": ["en", "fr"],  # NEW column
        }
    )
    lk.apply(rd.from_arrow(evolved), ["seg-evolved"])
    out = pa.concat_tables(
        list(lk.read().iter_batches(batch_size=None, batch_format="pyarrow")),
        promote_options="permissive",
    )
    assert "lang" in out.column_names
    by_id = {r["doc_id"]: r for r in out.to_pylist()}
    assert by_id["doc-new-x"]["lang"] == "en"
    assert by_id[base["doc_id"][0].as_py()]["lang"] == "fr"
    # an untouched base row backfills null
    assert by_id[base["doc_id"][5].as_py()]["lang"] is None
    assert out.num_rows == 51
    # compaction folds the evolved L0 runs into new bases without losing
    # the evolved schema or any rows
    lk.compact()
    out2 = pa.concat_tables(
        list(lk.read().iter_batches(batch_size=None, batch_format="pyarrow")),
        promote_options="permissive",
    )
    assert out2.num_rows == 51 and "lang" in out2.column_names
    by_id2 = {r["doc_id"]: r for r in out2.to_pylist()}
    assert by_id2["doc-new-x"]["lang"] == "en"


def test_lake_schema_evolution_widen(tmp_path, commit_mode):
    lk = LakeTable(str(tmp_path / "lake"), num_partitions=2, commit_mode=commit_mode)
    lk.init()
    base = base_table(10, seed=4, min_len=4, max_len=8)
    lk.apply(base_as_inserts(rd.from_arrow(base)), ["__base__"])
    widened = pa.table(
        {
            "lsn": pa.array([500], type=pa.int64()),
            "op": ["insert"],
            "doc_id": ["doc-new-w"],
            "tokens": pa.array([[3]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1], type=pa.int64()),  # int32 → int64
            "source": ["web"],
        }
    )
    lk.apply(rd.from_arrow(widened), ["seg-widen"])
    out = pa.concat_tables(
        list(lk.read().iter_batches(batch_size=None, batch_format="pyarrow")),
        promote_options="permissive",
    )
    assert out.schema.field("n_tok").type == pa.int64()
    assert out.num_rows == 11


def test_rename_via_rule_then_evolve():
    rs = RuleSet.from_config({"rules": [{"column": "source", "action": "rename", "value": "origin"}]})
    t = rs(base_table(5, seed=1, min_len=4, max_len=8))
    assert "origin" in t.column_names and "source" not in t.column_names
    u = unify([pa.schema([("origin", pa.string())]), t.schema])
    assert "origin" in u.names
