"""Independent correctness oracle: last-writer-wins in DuckDB SQL over
the generated base and change segments, compared with the lake.

The rules are restated here rather than imported from ``raycdc``: a
change row is malformed when it is not a delete and its payload is
missing or its ``n_tok`` disagrees with the token count; the highest
``lsn`` per ``doc_id`` wins (base rows sit at ``lsn = -1``); a winning
delete removes the key.
"""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa

COLUMNS = ["doc_id", "tokens", "n_tok", "source"]
TOKENS = pa.list_(pa.int32())

LWW_SQL = """
WITH changes AS (
    SELECT lsn, op, doc_id, tokens, n_tok, source FROM events
    WHERE doc_id IS NOT NULL AND lsn IS NOT NULL
      AND op IN ('insert', 'update', 'delete')
      AND (op = 'delete' OR (tokens IS NOT NULL AND n_tok = len(tokens)))
    UNION ALL
    SELECT -1 AS lsn, 'insert' AS op, doc_id, tokens, n_tok, source FROM base
),
winners AS (
    SELECT * FROM changes
    QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY lsn DESC) = 1
)
SELECT doc_id, tokens, n_tok, source FROM winners WHERE op <> 'delete'
ORDER BY doc_id
"""


def expected(base: pa.Table, events: pa.Table) -> pa.Table:
    """The converged table, sorted by ``doc_id``."""
    con = duckdb.connect()
    try:
        con.execute(f"SET threads = {len(os.sched_getaffinity(0))}")
        con.register("base", base)
        con.register("events", events)
        return con.execute(LWW_SQL).fetch_arrow_table()
    finally:
        con.close()


def pseudonymize(table: pa.Table) -> pa.Table:
    """Map keys and sources the way the de-identification stage does,
    then restore ``doc_id`` order."""
    from raycdc.identity import name_based_uid, pseudo_id

    t = table.set_column(0, "doc_id", pseudo_id(table["doc_id"]))
    t = t.set_column(3, "source", name_based_uid(table["source"]))
    return t.sort_by("doc_id")


def _normal(t: pa.Table) -> pa.Table:
    t = t.select(COLUMNS).sort_by("doc_id")
    return pa.table({
        "doc_id": t["doc_id"].cast(pa.string()),
        "tokens": t["tokens"].cast(TOKENS),
        "n_tok": t["n_tok"].cast(pa.int32()),
        "source": t["source"].cast(pa.string()),
    }).combine_chunks()


def mismatch(lake_rows: pa.Table, want: pa.Table) -> str | None:
    """None when the lake equals the oracle, else what differs."""
    got, want = _normal(lake_rows), _normal(want)
    if got.num_rows != want.num_rows:
        return f"row count {got.num_rows} != oracle {want.num_rows}"
    for c in COLUMNS:
        if not got[c].equals(want[c]):
            return f"column {c} differs from the oracle"
    return None
