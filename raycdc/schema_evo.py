"""Schema evolution: Arrow schema unification at batch boundaries.

Reference behavior being generalized: every operator tolerates absent /
extra tags — rules are present-only no-ops and records carry their own
tag sets (SURVEY.md §1.2, ``ClinicalTrialsAttributes.java`` rule
application). The engine's contract (north rule):

* **column add**    → older rows/batches backfill with nulls
* **column rename** → rule-driven (see rules.py ``action: rename``)
* **type widen**    → int32→int64, float32→float64, int→float promote

Unification happens in two places: ``pa.concat_tables(...,
promote_options="permissive")`` inside the lake merge (state ⊔ events),
and :func:`conform_to` as an explicit ``map_batches`` stage when a
pipeline needs one fixed output schema.
"""

from __future__ import annotations

import base64

import pyarrow as pa
import pyarrow.ipc


def unify(schemas: list[pa.Schema]) -> pa.Schema:
    """Permissive unification (null-fill + numeric widening)."""
    return pa.unify_schemas(schemas, promote_options="permissive")


def conform_to(schema: pa.Schema):
    """A vectorized batch fn that reshapes any batch to ``schema``:
    missing columns become null, extra columns are dropped, promotable
    types are cast. Use as ``ds.map_batches(conform_to(s),
    batch_format="pyarrow")``."""

    def fn(t: pa.Table) -> pa.Table:
        cols = []
        for f in schema:
            if f.name in t.column_names:
                c = t.column(f.name)
                if c.type != f.type:
                    c = c.cast(f.type)
                cols.append(c)
            else:
                cols.append(pa.nulls(t.num_rows, type=f.type))
        return pa.Table.from_arrays(cols, schema=schema)

    return fn


# ------------------------------------------------- manifest (de)serialization
def schema_to_str(schema: pa.Schema) -> str:
    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def schema_from_str(s: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(s)))
