"""Hypothesis property tests for the lake's stored form of fixed-width
list columns (``lake._encode_stored`` / ``lake._decode_stored``): the
``binary`` view must decode to the logical column bit for bit — null
rows, empty lists, sliced and multi-chunk input, every element width —
and must leave every other column as it is. No Ray in the loop."""

import io
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from hypothesis import given, settings
from hypothesis import strategies as st

import raycdc.lake as lake_mod
from raycdc.lake import _decode_stored, _encode_stored, _leaf_paths

ELEMENTS = {  # logical element type -> the unsigned type of the same width
    "int8": (pa.int8(), pa.uint8()),
    "int16": (pa.int16(), pa.uint16()),
    "int32": (pa.int32(), pa.uint32()),
    "int64": (pa.int64(), pa.uint64()),
    "float32": (pa.float32(), pa.uint32()),
    "float64": (pa.float64(), pa.uint64()),
}
# bit patterns every float width must carry unchanged: -0.0, NaN, a NaN
# with a payload, -inf
SPECIALS = {
    4: [0x8000_0000, 0x7FC0_0000, 0x7FC0_0001, 0xFF80_0000],
    8: [1 << 63, 0x7FF8 << 48, (0x7FF8 << 48) | 1, 0xFFF << 52],
}


@st.composite
def list_columns(draw):
    """(element name, chunked column, raw rows): each chunk is cut from a
    larger array whose child is itself a slice, so both offsets can be
    non-zero; a raw row is None or its elements' unsigned bit patterns."""
    name = draw(st.sampled_from(sorted(ELEMENTS)))
    logical, bits = ELEMENTS[name]
    width = bits.bit_width // 8
    value = st.one_of(st.integers(0, (1 << bits.bit_width) - 1),
                      st.sampled_from(SPECIALS.get(width, [0])))
    row = st.one_of(st.none(), st.lists(value, max_size=6))
    list_of, array_of, otype = draw(st.sampled_from(
        [(pa.list_, pa.ListArray, np.int32), (pa.large_list, pa.LargeListArray, np.int64)]))
    chunks, raw = [], []
    for _ in range(draw(st.integers(1, 3))):
        pre, rows, post, pad = (draw(st.lists(row, max_size=4)), draw(st.lists(row, max_size=8)),
                                draw(st.lists(row, max_size=3)), draw(st.lists(value, max_size=3)))
        every = pre + rows + post
        offsets = np.cumsum([0] + [len(r or []) for r in every]).astype(otype)
        child = pa.array(pad + [v for r in every for v in r or []], bits).slice(len(pad))
        whole = array_of.from_arrays(offsets, child, mask=pa.array([r is None for r in every], pa.bool_()))
        chunks.append(whole.view(list_of(logical)).slice(len(pre), len(rows)))
        raw += rows
    return name, pa.chunked_array(chunks, list_of(logical)), raw


def _bits(col: pa.ChunkedArray, bits: pa.DataType) -> list:
    """Each row's elements as unsigned bit patterns (None for a null row)."""
    return col.cast(pa.list_(col.type.value_type)).combine_chunks() \
        .view(pa.list_(bits)).to_pylist()


@settings(max_examples=120, deadline=None)
@given(list_columns(), st.booleans())
def test_stored_form_round_trips_bit_exact(column, large):
    name, col, raw = column
    logical, bits = ELEMENTS[name]
    width = bits.bit_width // 8
    t = pa.table({"tokens": col, "key": pa.array([str(i) for i in range(len(raw))])})
    saved = lake_mod._MAX_BINARY
    lake_mod._MAX_BINARY = 0 if large else saved
    try:
        enc = _encode_stored(t)
    finally:
        lake_mod._MAX_BINARY = saved
    f = enc.schema.field("tokens")
    assert f.type == (pa.large_binary() if large and any(raw) else pa.binary())
    assert f.metadata[b"raycdc.byte_order"] == sys.byteorder.encode()
    assert enc.schema.field("key") == t.schema.field("key")
    assert enc.column("tokens").num_chunks == sum(1 for c in col.chunks if len(c))
    dt = np.dtype(f"<u{width}")
    assert enc.column("tokens").to_pylist() == [
        None if r is None else np.asarray(r, dtype=dt).tobytes() for r in raw]
    buf = io.BytesIO()
    pq.write_table(enc, buf)
    for stored in (enc, pq.read_table(io.BytesIO(buf.getvalue()))):
        dec = _decode_stored(stored)
        assert dec.schema == t.schema
        assert _bits(dec.column("tokens"), bits) == raw
        assert pc.is_valid(dec.column("tokens")).equals(pc.is_valid(col))
        if name.startswith("int"):
            assert dec.column("tokens").equals(col)


def test_stored_form_leaves_other_columns_alone():
    """A child with nulls stays ``list``; nested lists, structs, booleans,
    strings and existing ``binary`` columns are untouched, and decode
    passes a table without stored columns (a list-form file) through."""
    t = pa.table({
        "child_nulls": pa.array([[1, None], [2]], pa.list_(pa.int32())),
        "nested": pa.array([[[1]], [[2, 3]]], pa.list_(pa.list_(pa.int32()))),
        "st": pa.array([{"a": 1}, {"a": 2}], pa.struct([("a", pa.int64())])),
        "flags": pa.array([[True], [False]], pa.list_(pa.bool_())),
        "strs": pa.array([["x"], []], pa.list_(pa.string())),
        "bin": pa.array([b"\x00\x01", b""], pa.binary()),
        "s": pa.array(["a", "b"]),
    })
    assert _encode_stored(t).equals(t, check_metadata=True)
    assert _decode_stored(t).equals(t, check_metadata=True)


def test_leaf_paths_match_parquet_column_paths():
    """``_leaf_paths`` names the Parquet leaves the way pyarrow writes
    them, so ``write_statistics`` reaches every column that is not stored
    as binary."""
    t = pa.table({
        "k": pa.array([1]),
        "l": pa.array([[1]], pa.list_(pa.int32())),
        "ll": pa.array([[[1.0]]], pa.large_list(pa.list_(pa.float64()))),
        "st": pa.array([{"a": [1], "m": {"x": 1}}],
                       pa.struct([("a", pa.list_(pa.int64())), ("m", pa.map_(pa.string(), pa.int8()))])),
    })
    buf = io.BytesIO()
    pq.write_table(t, buf)
    schema = pq.ParquetFile(io.BytesIO(buf.getvalue())).schema
    assert [p for f in t.schema for p in _leaf_paths(f)] == \
        [schema.column(i).path for i in range(len(schema))]
