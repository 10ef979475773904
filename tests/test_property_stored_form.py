"""Hypothesis property tests for the lake's stored form of fixed-width
list columns (``lake._encode_stored`` / ``lake._decode_stored``): the
``binary`` view must decode to the logical column bit for bit — null
rows, empty lists, sliced and multi-chunk input, every element width,
integer elements packed at every narrower width — and must leave every
other column as it is. No Ray in the loop."""

import io
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raycdc.lake as lake_mod
from raycdc.lake import _decode_stored, _encode_stored, _leaf_paths

ELEMENTS = {  # logical element type -> the unsigned type of the same width
    "int8": (pa.int8(), pa.uint8()),
    "int16": (pa.int16(), pa.uint16()),
    "int32": (pa.int32(), pa.uint32()),
    "int64": (pa.int64(), pa.uint64()),
    "uint8": (pa.uint8(), pa.uint8()),
    "uint16": (pa.uint16(), pa.uint16()),
    "uint32": (pa.uint32(), pa.uint32()),
    "uint64": (pa.uint64(), pa.uint64()),
    "float32": (pa.float32(), pa.uint32()),
    "float64": (pa.float64(), pa.uint64()),
}
# bit patterns every float width must carry unchanged: -0.0, NaN, a NaN
# with a payload, -inf
SPECIALS = {
    4: [0x8000_0000, 0x7FC0_0000, 0x7FC0_0001, 0xFF80_0000],
    8: [1 << 63, 0x7FF8 << 48, (0x7FF8 << 48) | 1, 0xFFF << 52],
}
# the largest magnitude a chunk's integers reach: every packed width's edge
BOUNDS = [0, 1, 127, 128, 255, 256, 32767, 32768, 65535, 65536,
          (1 << 31) - 1, 1 << 31, (1 << 32) - 1, 1 << 32, (1 << 63) - 1, (1 << 64) - 1]


def stored_type(logical: pa.DataType, values: list) -> str | None:
    """The packed element type the stored form must choose for a column
    of ``values``: the narrowest of 8, 16, 32 and 64 bits, unsigned when
    no value is negative; None (the logical elements, no stored-type
    key) when that is the logical width, for floats and with no element."""
    if not pa.types.is_integer(logical) or not values:
        return None
    lo, hi = min(values), max(values)
    for bits in (8, 16, 32, 64):
        if bits >= logical.bit_width:
            return None
        if 0 <= lo and hi < 1 << bits:
            return f"uint{bits}"
        if -(1 << bits - 1) <= lo and hi < 1 << bits - 1:
            return f"int{bits}"


@st.composite
def list_columns(draw):
    """(element name, chunked column, raw rows): each chunk is cut from a
    larger array whose child is itself a slice, so both offsets can be
    non-zero; a raw row is None or its elements' unsigned bit patterns.
    Each chunk's integers lie in a range of their own, drawn around a
    packed width's edge; the rows cut away and the child's padding take
    any value, which the packed width must not depend on."""
    name = draw(st.sampled_from(sorted(ELEMENTS)))
    logical, bits = ELEMENTS[name]
    width, mask = bits.bit_width // 8, (1 << bits.bit_width) - 1
    anything = st.one_of(st.integers(0, mask), st.sampled_from(SPECIALS.get(width, [0])))
    list_of, array_of, otype = draw(st.sampled_from(
        [(pa.list_, pa.ListArray, np.int32), (pa.large_list, pa.LargeListArray, np.int64)]))
    chunks, raw = [], []
    for _ in range(draw(st.integers(1, 3))):
        value = anything
        if pa.types.is_integer(logical):
            info = np.iinfo(logical.to_pandas_dtype())
            bound = draw(st.sampled_from(BOUNDS))
            lo = max(int(info.min), -bound - 1 if draw(st.booleans()) else 0)
            hi = min(int(info.max), bound)
            value = st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi])).map(lambda v: v & mask)
        row = st.one_of(st.none(), st.lists(value, max_size=6))
        cut = st.one_of(st.none(), st.lists(anything, max_size=6))
        pre, rows, post, pad = (draw(st.lists(cut, max_size=4)), draw(st.lists(row, max_size=8)),
                                draw(st.lists(cut, max_size=3)), draw(st.lists(anything, max_size=3)))
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


def _packed_rows(col: pa.ChunkedArray, raw: list, width: int, packed: str | None) -> list:
    """The stored form's values: each row's elements as ``packed``
    little-endian integers, or their logical bit patterns when None."""
    if packed is None:
        return [None if r is None else np.asarray(r, dtype=f"<u{width}").tobytes() for r in raw]
    dt = np.dtype(packed).newbyteorder("<")
    return [None if r is None else np.asarray(r, dtype=dt).tobytes()
            for r in col.cast(pa.list_(col.type.value_type)).to_pylist()]


def _round_trips(t: pa.Table, enc: pa.Table, bits: pa.DataType, raw: list) -> None:
    """``enc`` decodes to ``t`` bit for bit, in memory and through Parquet."""
    buf = io.BytesIO()
    pq.write_table(enc, buf)
    for stored in (enc, pq.read_table(io.BytesIO(buf.getvalue()))):
        dec = _decode_stored(stored)
        assert dec.schema == t.schema
        assert _bits(dec.column("tokens"), bits) == raw
        assert pc.is_valid(dec.column("tokens")).equals(pc.is_valid(t.column("tokens")))
        if pa.types.is_integer(t.schema.field("tokens").type.value_type):
            assert dec.column("tokens").equals(t.column("tokens"))


@settings(max_examples=200, deadline=None)
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
    packed = stored_type(logical, [v for r in col.to_pylist() for v in r or []])
    assert f.metadata.get(b"raycdc.stored_type") == (packed and packed.encode())
    assert enc.schema.field("key") == t.schema.field("key")
    assert enc.column("tokens").num_chunks == sum(1 for c in col.chunks if len(c))
    assert enc.column("tokens").to_pylist() == _packed_rows(col, raw, width, packed)
    _round_trips(t, enc, bits, raw)


I64 = (-(1 << 63), (1 << 63) - 1)
EDGES = [  # (logical element type, chunks of rows, the packed type chosen)
    (pa.int32(), [[[0, 127]]], "uint8"),
    (pa.int32(), [[[0, 255]]], "uint8"),
    (pa.int32(), [[[0, 256]]], "uint16"),
    (pa.int32(), [[[-1, 127]]], "int8"),
    (pa.int32(), [[[-1, 128]]], "int16"),
    (pa.int32(), [[[-128]]], "int8"),
    (pa.int32(), [[[-129]]], "int16"),
    (pa.int32(), [[[49_999, 0]]], "uint16"),
    (pa.int32(), [[[65_535]]], "uint16"),
    (pa.int32(), [[[65_536]]], None),
    (pa.int32(), [[[-1, 32_767]]], "int16"),
    (pa.int32(), [[[-1, 32_768]]], None),
    (pa.int32(), [[[-32_768]]], "int16"),
    (pa.int32(), [[[-32_769]]], None),
    (pa.int64(), [[[65_536]]], "uint32"),
    (pa.int64(), [[[-1, 32_768]]], "int32"),
    (pa.int64(), [[[(1 << 32) - 1]]], "uint32"),
    (pa.int64(), [[[1 << 32]]], None),
    (pa.int64(), [[[I64[0]]]], None),
    (pa.int64(), [[[I64[1]]]], None),
    (pa.int64(), [[list(I64)]], None),
    (pa.int64(), [[[-(1 << 31), (1 << 31) - 1]]], "int32"),
    (pa.uint64(), [[[(1 << 64) - 1]]], None),
    (pa.uint64(), [[[1 << 63]]], None),
    (pa.uint64(), [[[255]]], "uint8"),
    (pa.uint16(), [[[255]]], "uint8"),
    (pa.uint16(), [[[256]]], None),
    (pa.int8(), [[[127, 0]]], None),  # uint8 is the logical width
    (pa.int8(), [[[-128, 127]]], None),
    (pa.int16(), [[[-1, 127]]], "int8"),
    (pa.int16(), [[[0, 255]]], "uint8"),
    (pa.int32(), [[None, [], [7], None]], "uint8"),  # null and empty lists
    (pa.int32(), [[None, []], [None]], None),  # no element at all
    (pa.int32(), [[[0, 200]], [[-5, 3]], [[40_000]]], None),  # chunks span different ranges
    (pa.int64(), [[[0, 200]], [[-5, 3]], [[40_000]]], "int32"),
    (pa.int32(), [[[0, 200]], [], [[-5, 3], None]], "int16"),
    (pa.int64(), [[[-3]], [[0, 255]], [None, [60_000]]], "int32"),
    (pa.int16(), [[[3]], [[255]], [[]]], "uint8"),
]


@pytest.mark.parametrize("value_type, chunks, packed", EDGES)
def test_stored_form_packs_at_the_narrowest_width(value_type, chunks, packed):
    """The packed element type at each width's edge, the int64 extremes,
    null and empty lists and multi-chunk input whose chunks span
    different ranges — each chunk a slice of a larger list array whose
    cut rows hold values outside every packed range."""
    typ = pa.list_(value_type)
    info = np.iinfo(value_type.to_pandas_dtype())
    wide = [[int(info.min), int(info.max)]]
    col = pa.chunked_array([pa.array(wide + rows + wide, typ).slice(1, len(rows))
                            for rows in chunks], typ)
    t = pa.table({"tokens": col})
    enc = _encode_stored(t)
    f = enc.schema.field("tokens")
    assert f.metadata.get(b"raycdc.stored_type") == (packed and packed.encode())
    rows = [r for c in chunks for r in c]
    width = value_type.bit_width // 8
    raw = [None if r is None else [v & (1 << 8 * width) - 1 for v in r] for r in rows]
    assert enc.column("tokens").to_pylist() == _packed_rows(col, raw, width, packed)
    _round_trips(t, enc, pa.type_for_alias(f"uint{8 * width}"), raw)


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
