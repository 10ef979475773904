"""Validation + multi-way routing — the Relationship model of the
reference re-expressed as a route column plus predicate splits.

Reference: every processor routes each record to exactly one of
success / failure / not_matched / reject / "not decrypted"
(``DeidentifyDICOM.java:56-61``, ``PutDICOM.java:81-88``,
``DecryptReidentifyDICOM.java:48-53``); malformed input is detected by a
parse attempt whose failure diverts the record
(``DeidentifyDICOMTest.java:178-195``: 2 success + 1 reject).

Engine model: a vectorized validation stage stamps a ``_route`` column
against the change-event contract of :mod:`raycdc.apply`; downstream
consumers select one route (streaming-friendly, no materialization).
The dead-letter dataset IS a first-class output, mirroring the
failure-relationship loop-back being "usually looped back" for retry
(``PutDICOM.java:83-86``) — dead-lettered events keep full payload so
they can be re-submitted after repair.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raycdc.apply import LSN, OP, OPS
from raycdc.synth import is_malformed_mask

ROUTE_COL = "_route"
ROUTE_OK = "ok"
ROUTE_DEAD_LETTER = "dead_letter"
ROUTE_ORPHAN = "not_matched"


def stamp_route(batch: pa.Table, key: str) -> pa.Table:
    """Validation map: ok | dead_letter. Checks (all pyarrow.compute
    vectorized, no Python-object conversion): n_tok/token-length
    consistency, payload presence for non-deletes, known op, non-null
    ``key``, non-null lsn. A batch without the ``key``, lsn or op column
    is dead-lettered whole: no row of it can be folded."""
    if any(c not in batch.column_names for c in (key, LSN, OP)):
        bad = np.ones(batch.num_rows, dtype=bool)
    else:
        bad = is_malformed_mask(batch)
        known = pc.is_in(batch[OP], value_set=pa.array(OPS))
        bad |= pc.invert(pc.fill_null(known, False)).to_numpy(zero_copy_only=False)
        for col in (key, LSN):
            bad |= pc.is_null(batch[col]).to_numpy(zero_copy_only=False)
    route = pc.if_else(
        pa.array(bad), pa.scalar(ROUTE_DEAD_LETTER), pa.scalar(ROUTE_OK)
    )
    if ROUTE_COL in batch.column_names:
        return batch.set_column(batch.column_names.index(ROUTE_COL), ROUTE_COL, route)
    return batch.append_column(ROUTE_COL, route)


def make_validator(key: str, dead_letter_dir: str | None = None):
    """Single-pass validation as a plain batch fn for ``map_batches``:
    every row is stamped with its ``_route`` by :func:`stamp_route` on
    ``key`` — the lake's own key, so a null-key event is dead-lettered
    whatever the lake is keyed by — and dead-lettered rows are
    written to parquet side-files as they stream by. The batch comes back
    whole and stamped, not filtered: ``LakeTable.apply`` folds only the
    ``ok`` rows (``_route`` is its selection vector, read by
    ``lake.ok_lww_order``), so the payload is copied once, by the run
    writer's take. A transform in ``tail_once`` sees only the ``ok`` LWW
    winners, taken through the same selection (``tailer.ok_winners``).
    One pass over the input.

    Dead-letter files are named from their rows' content, as L0 runs
    are, so a retried task rewrites the identical file instead of adding
    a duplicate — the reference's failure-relationship loop-back
    (``PutDICOM.java:83-86``) without double-counted failures.

    Stateless by design: task stages FUSE with adjacent task stages and
    use every core, while a callable class would force an actor pool
    (bounded concurrency + per-actor warmup and no fusion with the
    neighboring reduce stage)."""
    if dead_letter_dir:
        os.makedirs(dead_letter_dir, exist_ok=True)

    def validate_divert(batch: pa.Table) -> pa.Table:
        from raycdc.util import tune_allocators

        tune_allocators()
        stamped = stamp_route(batch, key)
        dead_mask = pc.equal(stamped[ROUTE_COL], ROUTE_DEAD_LETTER)
        if dead_letter_dir and pc.any(dead_mask).as_py():
            import hashlib

            import polars as pl

            from raycdc.lake import _atomic_write_parquet

            os.makedirs(dead_letter_dir, exist_ok=True)  # remote worker may not have it
            dead = stamped.filter(dead_mask)
            # content-derived name over every column (dead rows may lack a
            # key or lsn, so those alone could collide): a retried task
            # rewrites the identical file; durable (tmp+fsync+rename) before
            # the epoch that dead-lettered these rows can commit
            rows_h = pl.from_arrow(dead).hash_rows(seed=0).to_numpy()
            digest = hashlib.md5(rows_h.tobytes()).hexdigest()[:16]
            _atomic_write_parquet(os.path.join(dead_letter_dir, f"dead-{digest}.parquet"), dead)
        return stamped

    return validate_divert
