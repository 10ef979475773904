"""The Parquet lake: partitioned converged state with an exactly-once
epoch/manifest commit protocol, **shuffle-free L0-run commits with
merge-on-read**, threshold compaction, and checkpoint-resume.

Reference capabilities re-expressed (SURVEY.md §2.1 S2/S5, §2.7 W4/W5):

* ``ProcessSession.commitAsync()`` atomic publish + the durable Derby
  ``uid_map`` (``DeidentifyDICOM.java:192``,
  ``DeidentificationController.java:93-99``) → **two-phase commit**:
  the epoch's run files are written first (to temp names, then
  atomically renamed), and creating the epoch's snapshot
  ``manifests/manifest-eNNNNNN.json`` put-if-absent is the only commit
  point. A crash before it leaves the lake at the previous epoch;
  re-running the apply regenerates byte-identical epoch content and
  commits — replay reconverges (north rule exactly-once).
* ``PutDICOM`` retry-by-requeue (``PutDICOM.java:83-86``) → Ray task
  retries are safe because every write is tmp+rename idempotent and the
  merge is deterministic.
* Flyway bootstrap (``V1.0__create.sql``) → :meth:`LakeTable.init`
  (idempotent manifest v0).

**One kind of state file.** Every state file is a *run*: rows folded to
one per key, in ascending ``_bucket`` order, written by
:meth:`LakeTable._write_run` and listed, oldest first, in the manifest's
``l0`` list with its bucket metadata. Ingest writes runs spanning many
buckets; compaction writes one-bucket runs (``part-PPPPP-<digest>``), whose
entries also carry ``live_rows``. An entry without ``live_rows`` is
*pending*.

**Write-amplification design (the 100-TB property).** An epoch writes
only that epoch's (LWW-reduced) events — bytes written are proportional
to events applied, NOT to state size — and needs **no shuffle at all**:
each ingest task writes one bucket-SORTED run file with ~P row groups;
range reads prune to their own row groups via parquet statistics
(``filters=``). The apply epoch is a map-only pass — on a multi-node
cluster every write is node-local and zero bytes cross the network, so
ingest scales linearly with nodes; merge cost moves to read/compaction
(LSM level-0 / Hudi merge-on-read shape). Auto-compaction rewrites the
state as one-bucket runs once more than ``l0_compact_files`` runs are
pending.

``read()`` is merge-on-read and compaction writes the same merge back:
one Ray task per contiguous bucket range (:func:`_ranges`) reads each
run that meets it once and folds them (per-key LWW) in one pass; a range
where no two runs can hold the same bucket needs no fold.

State model: state files hold the converged rows PLUS their winning
``lsn`` and ``op`` — including **delete tombstones**. Tombstones are
what make at-least-once replay safe: a re-delivered older insert loses
the LWW fold against the tombstone instead of resurrecting a deleted
row. ``read()`` filters tombstones out; ``compact(drop_tombs=True)``
drops them permanently once upstream segments can no longer be replayed.
Runs hold the rows in a *stored form* (:func:`_encode_stored`): a
``list`` column of ints or floats with no null element is ``binary``,
each value its row's packed elements, and its field metadata names the
logical type and the byte order. Integer elements are packed at the
narrowest width that holds every element of the column in that file
(``uint16`` for a 50,000-token vocabulary), and the metadata names that
type too. The run writer's payload take, the fold and compaction move
those bytes, never list structure; ``read()`` returns the logical form,
and the manifest ``schema`` is the logical one. A list column whose
child holds a null stays in the list form.

Format: the manifest's ``version`` is the lake format (:data:`FORMAT`),
and its ``fingerprint`` names the bucket hash that laid the lake out
(:func:`~raycdc.util.bucket_fingerprint`). A lake that differs in either
is refused on open, not read with an older reader: the lake is derived
state, so it is rebuilt by replaying its changelog into a fresh one.

Concurrency: the commit is its own compare-and-swap, with no lock. A
writer that read epoch N commits with one durable write, ``os.link``-ing
a fsynced temp file to the snapshot name of N + 1, which fails if the
name exists: of two writers from one epoch exactly one commits, the
other gets ``ConcurrentWriterError``. The newest snapshot is the current
manifest. :meth:`LakeTable.vacuum` never touches a newer epoch's files,
which may belong to an apply or compaction still in flight.

Scale: a read or compaction task folds one range of at most about
``RANGE_ROWS`` rows (or one partition), and an ingest task one group of
an epoch's segments of at most ``RANGE_ROWS`` rows (or one larger
segment); output is partitioned parquet so a failed run resumes by
skipping committed epochs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from raycdc.apply import LSN, OP, drop_tombstones, last_writer_per_key, lww_order
from raycdc.routing import ROUTE_COL, ROUTE_OK
from raycdc.schema_evo import conform_to, schema_from_str, schema_to_str, unify
from raycdc.util import bucket_fingerprint, bucket_of, str_hash_u64

# the lake format this engine writes and reads: the manifest's "version"
FORMAT = 4
# rows one merge-on-read / compaction / ingest task folds at most
# (beyond one task per cluster CPU): bounds a fold task's memory
RANGE_ROWS = 1 << 18


def _fsync_dir(path: str) -> None:
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _publish(path: str, write, exclusive: bool = False) -> None:
    """The one durable publish of every file the engine makes visible:
    ``write(tmp)`` fills a temp file beside ``path`` (its name never ends
    in ``.parquet``, so no listing picks it up), the file is fsynced and
    renamed onto ``path`` — or, ``exclusive``, created put-if-absent:
    ``os.link`` raises ``FileExistsError`` if the name exists — and the
    directory is fsynced. The temp file never outlives the call, so a
    reader sees the whole file or none."""
    tmp = f"{path}.tmp.{uuid.uuid4().hex[:8]}"
    try:
        write(tmp)
        fd = os.open(tmp, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        (os.link if exclusive else os.replace)(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)  # a failed write's remains, or the link's second name
    _fsync_dir(path)


def _atomic_write_json(path: str, obj: dict, exclusive: bool = False) -> None:
    """Publish ``obj`` as JSON at ``path`` (:func:`_publish`)."""
    def write(tmp: str) -> None:
        with open(tmp, "w") as f:
            json.dump(obj, f, indent=1, sort_keys=True)

    _publish(path, write, exclusive)


def _load(path: str) -> dict | None:
    """The JSON object at ``path``; None when there is no such file."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


# The stored form of runs: a ``list`` column of ints or floats
# whose child holds no null is written as ``binary``, each value the
# row's packed elements. Its field metadata keeps the logical field and
# the byte order of the packed elements and, when integer elements are
# packed narrower than the logical type, the type they are packed as.
_LOGICAL_FIELD = b"raycdc.logical_field"
_BYTE_ORDER = b"raycdc.byte_order"
_STORED_TYPE = b"raycdc.stored_type"
_MAX_BINARY = (1 << 31) - 1  # bytes a ``binary`` column's int32 offsets address
# the packed integer types, narrowest first: (unsigned, signed)
_PACKED = [(pa.uint8(), pa.int8()), (pa.uint16(), pa.int16()),
           (pa.uint32(), pa.int32()), (pa.uint64(), pa.int64())]


def _element_width(f: pa.Field) -> int:
    """Byte width of the elements of a ``list``/``large_list`` of ints or
    floats; 0 for any other field."""
    t = f.type
    if not (pa.types.is_list(t) or pa.types.is_large_list(t)):
        return 0
    v = t.value_type
    return v.bit_width // 8 if pa.types.is_integer(v) or pa.types.is_floating(v) else 0


def _narrowest(lo: int, hi: int) -> pa.DataType:
    """The narrowest packed type that holds every integer in ``[lo, hi]``:
    unsigned when ``lo >= 0``, signed otherwise."""
    for t in (u if lo >= 0 else s for u, s in _PACKED):
        info = np.iinfo(t.to_pandas_dtype())
        if info.min <= lo and hi <= info.max:
            return t


def _validity(a: pa.Array) -> pa.Buffer | None:
    """``a``'s validity bitmap, starting at its first row."""
    return pc.is_valid(a).buffers()[1] if a.null_count else None


def _kept_values(parts: list[tuple[pa.Array, np.ndarray]], keep: np.ndarray) -> list[pa.Array]:
    """The elements of the rows ``keep`` marks, as zero-copy slices of
    each chunk's child values: one per run of consecutive kept rows.
    ``parts`` are the non-empty chunks with their offsets."""
    out, base = [], 0
    for c, o in parts:
        k = keep[base:base + len(c)]
        base += len(c)
        edges = np.flatnonzero(np.diff(np.concatenate([[False], k, [False]])))
        out += [c.values.slice(int(o[a]), int(o[b] - o[a])) for a, b in edges.reshape(-1, 2)]
    return out


def _encode_stored(t: pa.Table, rows: np.ndarray | pa.Array | None = None) -> pa.Table:
    """The stored form of ``t``: each ``list<fixed-width>`` column whose
    child holds no null becomes a ``binary`` column, each value its row's
    packed elements; offsets are the list offsets × packed width.
    Integer elements are packed at the narrowest type that holds every
    element of the column (:func:`_narrowest`) — of its ``rows``, when
    given: the rows the caller writes, so a row it leaves out, such as a
    dead-lettered one, cannot widen the others — one cast per chunk, and
    the field metadata names that type. A float column, a column that
    needs its logical width and one with no element share the child's
    values buffer, zero-copy, and name no packed type. The column is
    ``large_binary`` when its packed bytes would pass 2 GiB, so a take
    over all its chunks cannot overflow. Every other column is
    untouched."""
    keep = None
    if rows is not None:
        keep = np.zeros(t.num_rows, dtype=bool)
        keep[np.asarray(rows)] = True
        keep = None if keep.all() else keep
    for i, f in enumerate(t.schema):
        w = _element_width(f)
        col = t.column(i)
        if not w or any(c.values.null_count for c in col.chunks):
            continue
        # empty chunks are dropped: Arrow lets them go without buffers
        parts = [(c, np.asarray(c.offsets)) for c in col.chunks if len(c)]  # slice-aware
        vals = [c.values.slice(int(o[0]), int(o[-1] - o[0])) for c, o in parts]
        meta = {_LOGICAL_FIELD: schema_to_str(pa.schema([f])), _BYTE_ORDER: sys.byteorder}
        vt = f.type.value_type
        if pa.types.is_integer(vt) and vals:
            sel = vals if keep is None else _kept_values(parts, keep)
            lo, hi = pc.min_max(pa.chunked_array(sel, vt)).values()
            packed = vt if lo.as_py() is None else _narrowest(lo.as_py(), hi.as_py())
            if packed.bit_width < vt.bit_width:  # numpy's astype: 3x pc.cast's speed
                vals = [pa.array(np.asarray(v).astype(packed.to_pandas_dtype())) for v in vals]
                w, meta[_STORED_TYPE] = packed.bit_width // 8, str(packed)
        large = sum(len(v) for v in vals) * w > _MAX_BINARY
        btype, otype = (pa.large_binary(), np.int64) if large else (pa.binary(), np.int32)
        chunks = []
        for (c, o), v in zip(parts, vals):
            data = (v.buffers()[1] or pa.py_buffer(b"")).slice(v.offset * w, len(v) * w)
            offsets = pa.py_buffer(((o - o[0]) * w).astype(otype))
            chunks.append(pa.Array.from_buffers(btype, len(c), [_validity(c), offsets, data],
                                                null_count=c.null_count))
        t = t.set_column(i, pa.field(f.name, btype, f.nullable, meta),
                         pa.chunked_array(chunks, btype))
    return t


def _decode_stored(t: pa.Table) -> pa.Table:
    """The logical form of a stored table, the exact inverse of
    :func:`_encode_stored`: elements packed narrower than the logical
    type are widened back with one cast per chunk; otherwise only the
    offsets are rewritten and the values buffer is shared (elements that
    need the logical width name no packed type). A column without its
    metadata (a list whose child holds a null) is returned as it is."""
    for i, f in enumerate(t.schema):
        meta = f.metadata or {}
        if _LOGICAL_FIELD not in meta:
            continue
        if meta.get(_BYTE_ORDER) != sys.byteorder.encode():
            raise ValueError(f"column {f.name!r} holds {meta.get(_BYTE_ORDER)!r}-endian "
                             f"elements; this host is {sys.byteorder}-endian")
        logical = schema_from_str(meta[_LOGICAL_FIELD].decode()).field(0)
        vt = logical.type.value_type
        packed = pa.type_for_alias(meta[_STORED_TYPE].decode()) if _STORED_TYPE in meta else vt
        w = packed.bit_width // 8
        btype = np.int64 if pa.types.is_large_binary(f.type) else np.int32
        otype = np.int64 if pa.types.is_large_list(logical.type) else np.int32
        chunks = []
        for c in t.column(i).chunks:
            if not len(c):
                continue
            _, offsets, data = c.buffers()
            o = np.frombuffer(offsets, btype)[c.offset:c.offset + len(c) + 1]
            data = (data or pa.py_buffer(b"")).slice(int(o[0]), int(o[-1] - o[0]))
            child = pa.Array.from_buffers(packed, len(data) // w, [None, data])
            if packed != vt:
                child = pa.array(np.asarray(child).astype(vt.to_pandas_dtype()))
            offsets = pa.py_buffer(((o - o[0]) // w).astype(otype))
            chunks.append(pa.Array.from_buffers(logical.type, len(c), [_validity(c), offsets],
                                                null_count=c.null_count, children=[child]))
        t = t.set_column(i, logical, pa.chunked_array(chunks, logical.type))
    return t


def _leaf_paths(f: pa.Field, prefix: str = "") -> list[str]:
    """The Parquet column paths of ``f``'s leaves, as pyarrow names them."""
    p, t = prefix + f.name, f.type
    if pa.types.is_struct(t):
        return [q for j in range(t.num_fields) for q in _leaf_paths(t.field(j), p + ".")]
    if pa.types.is_map(t):
        return _leaf_paths(t.key_field, p + ".key_value.") + _leaf_paths(t.item_field, p + ".key_value.")
    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_fixed_size_list(t):
        return _leaf_paths(pa.field("element", t.value_type), p + ".list.")
    return [p]


def _write_options(table: pa.Table) -> dict:
    """``pq.write_table`` options of every run, dead-letter and MV state
    file: zstd, no dictionary pages — dictionary-encoding the token
    payload (a large vocabulary) cost ~40% of encode time and made files
    larger. A column in the stored form (:func:`_encode_stored`) gets no
    statistics: byte-order min/max of packed elements prunes nothing.
    Its elements come packed at the narrowest width, so zstd is not left
    to squeeze out their high zero bytes. Every other column keeps its
    statistics, ``_bucket`` row-group pruning included."""
    encoded = {f.name for f in table.schema if _LOGICAL_FIELD in (f.metadata or {})}
    stats = [p for f in table.schema if f.name not in encoded
             for p in _leaf_paths(f)] if encoded else True
    return {"use_dictionary": False, "compression": "zstd", "write_statistics": stats}


def _atomic_write_parquet(path: str, table: pa.Table,
                          row_group_size: int | None = None) -> None:
    """Publish ``table`` with the run write options (:func:`_publish`):
    the snapshot create is only a valid commit point if the epoch files
    it references are already on stable storage. Runs come in their
    stored form, whose binary payload skips Parquet's list encoding;
    dead letters and MV state in their logical one."""
    _publish(path, lambda tmp: pq.write_table(
        table, tmp, row_group_size=row_group_size, **_write_options(table)))


def _pending(runs: list[dict]) -> list[dict]:
    """The runs no compaction wrote: entries without ``live_rows``."""
    return [e for e in runs if "live_rows" not in e]


def _live_rows(runs: list[dict]) -> int | None:
    """Live rows from run entries alone; None while one is pending."""
    return None if _pending(runs) else sum(e["live_rows"] for e in runs)


def _buckets(ent: dict) -> list[int] | range:
    """The buckets a run's entry admits: its ``buckets``, or the span
    ``bmin``..``bmax`` of a run over more than 64 buckets."""
    return ent["buckets"] if ent["buckets"] is not None else range(ent["bmin"], ent["bmax"] + 1)


def _pids(m: dict) -> list[int]:
    """The partition ids with state: the buckets a run's metadata admits."""
    return sorted({b for e in m["l0"] for b in _buckets(e)})


def _range(m: dict, lo: int, hi: int) -> dict:
    """The fold unit ``[lo, hi)``: ``runs``, the runs whose buckets meet
    it, oldest first, each as ``(file, whole)``; and ``fold``, false when
    no two of them can hold the same bucket. A run is read ``whole`` when
    all its buckets lie in the range, else with a ``_bucket`` filter."""
    runs, held = [], []
    for e in m["l0"]:
        bs = _buckets(e)
        mine = [b for b in bs if lo <= b < hi]
        if mine:
            runs.append((e["file"], len(mine) == len(bs)))
            held += mine
    return {"lo": lo, "hi": hi, "runs": runs, "fold": len(held) > len(set(held))}


def fold_tasks(units: int, rows: int) -> int:
    """How many fold tasks share ``units`` contiguous fold units (a read's
    partitions, an epoch's segments) that hold ``rows`` rows: one per
    cluster CPU, more when they hold over ``RANGE_ROWS`` rows per CPU,
    never more than ``units``."""
    cpus = int(ray.cluster_resources().get("CPU", 1)) if ray.is_initialized() else os.cpu_count()
    return min(units, max(cpus, -(-rows // RANGE_ROWS)))


def _ranges(m: dict) -> list[dict]:
    """``_pids(m)`` cut into :func:`fold_tasks` contiguous ranges, by
    partition count."""
    pids = _pids(m)
    if not pids:
        return []
    rows = sum(e["rows"] for e in m["l0"])
    chunks = np.array_split(np.asarray(pids), fold_tasks(len(pids), rows))
    his = [int(c[0]) for c in chunks[1:]] + [pids[-1] + 1]
    return [_range(m, int(c[0]), hi) for c, hi in zip(chunks, his)]


def ok_lww_order(t: pa.Table, key: str,
                 num_buckets: int | None = None) -> tuple[pa.Table, pa.Array]:
    """The one selection of every fold over validated rows: the ``ok``
    rows of ``t`` in :func:`~raycdc.apply.lww_order`, as row indices of
    the returned table. The validator's ``_route`` stamp is a selection
    vector (every row is ok without it) and the returned table drops it.
    Only the selected rows' key columns are hashed and sorted; the
    payload stays in place for the caller's one copy. With
    ``num_buckets`` the table first gains the lake's ``_bucket`` column
    (0 on the rows left out; not added when no row is ok), so the order
    is an L0 run's (bucket, key, lsn) row-group layout. With no ok row
    the order is empty and the key columns are not read: a batch
    without the key column is all dead."""
    rows = np.arange(t.num_rows)
    if ROUTE_COL in t.column_names:
        rows = np.flatnonzero(pc.equal(t.column(ROUTE_COL), ROUTE_OK))
        t = t.drop_columns([ROUTE_COL])
    if not len(rows):
        return t, pa.array(rows)
    if num_buckets is not None:
        b = np.zeros(t.num_rows, dtype=np.int32)
        b[rows] = bucket_of(t.column(key).take(rows), num_buckets)
        t = t.append_column("_bucket", pa.array(b))
    keys = t.select([c for c in ("_bucket", key, LSN) if c in t.column_names]).take(rows)
    return t, pa.array(rows).take(lww_order(keys, key))


class ConcurrentWriterError(RuntimeError):
    """Another writer committed the epoch this one meant to commit."""


class LakeTable:
    """A key-partitioned, epoch-versioned Parquet table with exactly-once
    incremental apply. One instance is a lightweight handle — all real
    work runs as Ray Data pipelines."""

    def __init__(
        self,
        path: str,
        num_partitions: int = 64,
        key: str | None = None,
        commit_mode: str = "l0",
        l0_compact_files: int = 24,
    ):
        """A handle on the lake at ``path``, laid out and committed as the
        module docstring says; an apply that leaves more than
        ``l0_compact_files`` runs pending also compacts.

        ``key`` defaults to the manifest's key, or ``"doc_id"`` for a lake
        :meth:`init` creates; a key the manifest contradicts raises
        ``ValueError``. ``commit_mode`` accepts only ``"l0"``, the one
        commit mode.
        """
        if commit_mode != "l0":
            raise ValueError(f"commit_mode must be 'l0' (the one commit mode), got {commit_mode!r}")
        self.path = path
        m = self.manifest() if self.exists() else {}
        if key is not None and m.get("key", key) != key:
            raise ValueError(f"lake {path} is keyed by {m['key']!r}, not {key!r}")
        self.key = m.get("key") or key or "doc_id"
        self.l0_compact_files = l0_compact_files
        self._requested_partitions = num_partitions

    # ------------------------------------------------------------ manifest
    def _current(self) -> tuple[str, dict | None]:
        """The newest snapshot and its content (None before :meth:`init`).
        A newer commit and a vacuum can reclaim the listed snapshot before
        it is opened (vacuum keeps only the current one): then it lists
        again."""
        while True:
            snaps = self.epochs()
            path = self._snapshot_path(snaps[-1] if snaps else 0)
            m = _load(path)
            if m is not None or not snaps:
                return path, m

    @property
    def manifest_path(self) -> str:
        """The file that holds the current manifest."""
        return self._current()[0]

    def exists(self) -> bool:
        return bool(self.epochs())

    def manifest(self, epoch: int | None = None) -> dict:
        """Current manifest (the newest snapshot) or, time travel, the
        snapshot committed at ``epoch``: each is immutable and retained
        until :meth:`vacuum` (``keep_epochs``) reclaims it. A manifest of
        another format version or bucket fingerprint raises
        ``ValueError`` (module docstring)."""
        m = self._current()[1] if epoch is None else _load(self._snapshot_path(epoch))
        if m is None and epoch is not None:
            raise LookupError(f"no manifest snapshot for epoch {epoch}: it was never committed "
                              "or was vacuumed (raise vacuum(keep_epochs=...) to retain more history)")
        if m is None:
            raise FileNotFoundError(f"no lake at {self.path}")
        if (m.get("version"), m.get("fingerprint")) != (FORMAT, bucket_fingerprint()):
            raise ValueError(f"lake {self.path} is format {m.get('version')}, bucket hash "
                             f"{m.get('fingerprint')}; this engine reads format {FORMAT}, bucket "
                             f"hash {bucket_fingerprint()}: rebuild it by replaying its changelog "
                             "into a fresh lake")
        return m

    def _snapshot_path(self, epoch: int) -> str:
        return os.path.join(self.path, "manifests", f"manifest-e{epoch:06d}.json")

    def epochs(self) -> list[int]:
        """Epochs readable via ``read(epoch=...)`` (retained snapshots)."""
        d = os.path.join(self.path, "manifests")
        names = os.listdir(d) if os.path.isdir(d) else []
        return sorted(int(f[len("manifest-e"):-len(".json")]) for f in names
                      if f.startswith("manifest-e") and f.endswith(".json"))

    def _commit_manifest(self, m: dict, record: dict, **changes) -> dict:
        """The single commit point of the epoch after ``m``'s: apply
        ``changes``, append ``record`` to the history, and create that
        epoch's immutable snapshot put-if-absent — the compare-and-swap:
        if another writer committed the epoch first, this one raises
        ``ConcurrentWriterError`` and its files stay orphans for
        :meth:`vacuum`. Returns the manifest.

        Vacuum reclaims old snapshot names, so a writer that outlived
        newer commits and a vacuum of them could create its name anew.
        It is refused before the create when it reads a newer epoch, and
        after it when a newer snapshot exists: the writer then removes
        its snapshot and raises. A writer that built on the snapshot just
        created cannot have committed yet — it needs a whole apply after
        reading it — so a newer snapshot is never its child."""
        epoch = m["epoch"] + 1
        m2 = {**m, **changes, "epoch": epoch,
              "history": [*m["history"], {"epoch": epoch, **record}]}
        lost = ConcurrentWriterError(f"another writer committed epoch {epoch} first")
        if self.manifest()["epoch"] != m["epoch"]:
            raise lost
        snap = self._snapshot_path(epoch)
        try:
            _atomic_write_json(snap, m2, exclusive=True)
        except FileExistsError:
            raise lost from None
        if self.epochs()[-1] > epoch:  # the name was reclaimed
            os.remove(snap)
            _fsync_dir(snap)
            raise lost
        return m2

    def init(self) -> dict:
        """Idempotent bootstrap (Flyway-migration analog): epoch 0's
        snapshot, the empty lake, created put-if-absent, so of two racing
        inits one writes it and both return it. Returns the manifest."""
        if self.exists():
            return self.manifest()
        m = {
            "version": FORMAT,
            "fingerprint": bucket_fingerprint(),
            "epoch": 0,
            "num_partitions": self._requested_partitions,
            "key": self.key,
            "segments_applied": [],
            # every run file, oldest first: [{file, rows, watermark, bmin,
            # bmax, buckets}], plus live_rows once a compaction wrote it
            "l0": [],
            "history": [],
        }
        os.makedirs(os.path.join(self.path, "manifests"), exist_ok=True)
        try:
            _atomic_write_json(self._snapshot_path(0), m, exclusive=True)
        except FileExistsError:
            return self.manifest()
        return m

    # ------------------------------------------------------------ read
    def _fold_fn(self, plan: list[dict], schema_str: str | None,
                 include_tombstones: bool, keep_bucket: bool = False):
        """Merge-on-read of one range of ``plan`` (:func:`_ranges`), given
        its index: each of its runs read once — pruned to the range's row
        groups unless it lies inside the range — in one LWW fold into
        (``_bucket``, key) order, which the range's ``fold`` flag skips.
        Each part is read in its logical form and conformed to
        ``schema_str``; the fold takes and returns the stored form
        (:func:`_encode_stored`)."""
        key, lake_path = self.key, self.path
        conform = schema_str and conform_to(
            schema_from_str(schema_str).append(pa.field("_bucket", pa.int32())))
        drop = [] if keep_bucket else ["_bucket"]
        drop += [] if include_tombstones else [LSN, OP]

        def fold(batch: pa.Table) -> pa.Table:
            r = plan[batch["item"][0].as_py()]
            # a run is bucket-sorted: row-group statistics prune a filtered read
            rng = [("_bucket", ">=", r["lo"]), ("_bucket", "<", r["hi"])]
            parts = [_decode_stored(pq.read_table(os.path.join(lake_path, f), filters=None if whole else rng))
                     for f, whole in r["runs"]]
            if conform:
                parts = [conform(p) for p in parts]
            parts = [p for p in parts if p.num_rows] or parts[:1]
            t = _encode_stored(pa.concat_tables(parts, promote_options="permissive"))
            if r["fold"]:
                t = last_writer_per_key(t, key=key, drop_tombs=not include_tombstones)
            elif not include_tombstones:  # each run is one row per key, and no key is in two
                t = drop_tombstones(t)
            return t.drop_columns(drop)

        return fold

    def read(
        self, include_tombstones: bool = False, epoch: int | None = None
    ) -> ray.data.Dataset:
        """The converged table as a streaming Dataset — merge-on-read:
        one Ray task per contiguous bucket range folds the runs that meet
        it. ``epoch`` time-travels to any retained snapshot (state files
        are immutable and content-named, so an old manifest replays its
        exact table; see :meth:`epochs` / :meth:`vacuum`)."""
        m = self.manifest(epoch)
        plan = _ranges(m)
        if not plan:
            return ray.data.from_arrow(pa.table({}))
        fold = self._fold_fn(plan, m.get("schema"), include_tombstones)
        return ray.data.from_items(list(range(len(plan))), override_num_blocks=len(plan)).map_batches(
            lambda batch: _decode_stored(fold(batch)), batch_format="pyarrow", batch_size=1)

    def live_rows(self) -> int:
        """Exact live-row count. Free when no run is pending (manifest
        metadata); otherwise one merge-on-read counting scan."""
        live = _live_rows(self.manifest()["l0"])
        return self.read().count() if live is None else live

    # ------------------------------------------------------------ apply
    def _write_run(self, stem: str, t: pa.Table, row_group_size: int | None) -> dict:
        """Write the run ``t`` — rows folded to one per key, in
        ascending ``_bucket`` order, in the stored form — to
        ``{stem}-{digest}.parquet`` and return its manifest entry. The
        name is content-derived (md5 of the lsn stream and key hashes, in
        row order): a retried task rewrites the identical file, distinct
        blocks (even with identical lsn columns, e.g. a lsn=-1 base seed)
        get distinct names, and a writer that loses the commit never
        replaces a file the winner's manifest lists. The entry's bucket
        metadata says which buckets the run can contain: a range read
        skips runs outside its buckets (the manifest-level complement of
        the in-file row-group statistics)."""
        lsns = np.asarray(t.column(LSN).combine_chunks().cast(pa.int64()))
        kh = str_hash_u64(t.column(self.key))
        rel = f"{stem}-{hashlib.md5(lsns.tobytes() + kh.tobytes()).hexdigest()[:16]}.parquet"
        _atomic_write_parquet(os.path.join(self.path, rel), t, row_group_size=row_group_size)
        wm = pc.max(t.column(LSN)).as_py()
        ub = np.unique(np.asarray(t.column("_bucket").combine_chunks())).tolist()
        return {"file": rel, "rows": t.num_rows, "watermark": -1 if wm is None else int(wm),
                "bmin": ub[0], "bmax": ub[-1], "buckets": ub if len(ub) <= 64 else None}

    def apply(self, events_ds: ray.data.Dataset, segment_names: list[str]) -> dict:
        """Apply one epoch of change events exactly once.

        ``segment_names`` identifies the input (changelog segment files);
        if every name is already committed this is a no-op (idempotent
        re-call — at-least-once delivery tolerance). A batch of which
        only some segments are committed raises ``ValueError`` and
        applies nothing: by contract the tailer passes only uncommitted
        segments.

        Events must be pre-validated, or stamped by
        ``routing.make_validator``: a ``_route`` column is a selection
        vector, and only its ``ok`` rows are folded and written. The
        stream must carry (key, lsn, op, payload...) columns.

        Bytes written per epoch ∝ events applied (L0 runs); an epoch that
        leaves more than ``l0_compact_files`` runs pending also compacts.
        Raises ``ConcurrentWriterError`` if another writer committed the
        epoch first; a compaction that loses so leaves the applied epoch
        committed, and the result has no ``auto_compacted``.

        Shuffle-free: one map-only pass folds each input block into one
        run (:meth:`_write_run`), in (bucket, key) order.
        """
        m = self.manifest()
        done = set(m["segments_applied"])
        new_names = [s for s in segment_names if s not in done]
        if not new_names:
            return {"epoch": m["epoch"], "applied_segments": [], "noop": True}
        if set(new_names) != set(segment_names):
            raise ValueError(
                "segment batch partially committed — tailer must pass only uncommitted segments"
            )
        epoch_rel = f"state/e{m['epoch'] + 1:06d}"
        os.makedirs(os.path.join(self.path, epoch_rel), exist_ok=True)
        P = m["num_partitions"]
        key, write = self.key, self._write_run

        def write_run(t: pa.Table) -> pa.Table:
            from raycdc.util import tune_allocators

            tune_allocators()
            # one sort, of the ok rows' key columns only: the run's
            # (bucket, key) row-group layout, which the fold reuses to pick
            # its winners — so the payload is copied once, in layout order
            t, order = ok_lww_order(t, key, P)
            if not len(order):
                return pa.table({"entry": pa.array([], pa.string()),
                                 "schema": pa.array([], pa.string())})
            # the manifest schema is the logical one
            sch = schema_to_str(t.drop_columns(["_bucket"]).schema)
            # the payload take below and the run's parquet encode move
            # the stored form's bytes, not list structure, packed at the
            # width the ok rows need
            t = last_writer_per_key(_encode_stored(t, order), key=key, order=order)
            rg = max(2048, -(-t.num_rows // P))  # ≈ one row group per partition
            entry = write(f"{epoch_rel}/l0", t, rg)
            return pa.table({"entry": [json.dumps(entry)], "schema": [sch]})

        written = {}
        for r in events_ds.map_batches(write_run, batch_format="pyarrow",
                                       batch_size=None).take_all():
            e = json.loads(r["entry"])
            written[e["file"]] = (e, r["schema"])
        # two distinct blocks with identical content write the SAME
        # (content-named) file — keep one entry per file so reads don't
        # fold it twice and manifest counters don't double-count;
        # (watermark, file) order, not task completion order, so the
        # same input commits the same manifest and folds the same way
        written = sorted(written.values(), key=lambda es: (es[0]["watermark"], es[0]["file"]))
        runs = [e for e, _ in written]
        schemas = [schema_from_str(sch) for _, sch in written]
        if m.get("schema"):
            schemas.append(schema_from_str(m["schema"]))
        m2 = self._commit_manifest(
            m,
            {"segments": list(new_names), "l0_runs": len(runs),
             "events_after_reduce": sum(e["rows"] for e in runs)},
            segments_applied=[*m["segments_applied"], *new_names],
            l0=[*m["l0"], *runs],
            **({"schema": schema_to_str(unify(schemas))} if schemas else {}),
        )
        result = m2["history"][-1]
        if len(_pending(m2["l0"])) > self.l0_compact_files:
            # bound merge-on-read fan-in: rewrite the state as one-bucket
            # runs (Ray-parallel, storage-pruned reads — still no shuffle)
            try:
                self._compact_locked(m2, drop_tombs=False)
                result = dict(result, auto_compacted=True)
            except ConcurrentWriterError:
                pass  # another writer committed first: the compaction's runs are orphans
        return result

    # ------------------------------------------------------------ maintenance
    def vacuum(self, keep_epochs: int = 1) -> list[str]:
        """Delete state files of epochs older than the newest
        ``keep_epochs`` that are not referenced by the current manifest
        OR by any retained time-travel snapshot. Snapshots older than the
        newest ``keep_epochs`` are reclaimed first — ``keep_epochs`` is
        the single retention dial for both state and history.

        Runs beside writers, without a lock: the current epoch's snapshot
        and everything of a newer epoch — an in-flight apply's or
        compaction's runs — are kept, and a file another vacuum removed
        first is skipped."""
        m = self.manifest()
        cur = m["epoch"]
        snaps = [e for e in self.epochs() if e <= cur]
        retained = set(snaps[-keep_epochs:] if keep_epochs else []) | {cur}
        for e in snaps:
            if e not in retained:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self._snapshot_path(e))
        referenced = {e["file"] for e in m["l0"]}
        for e in retained - {cur}:
            with contextlib.suppress(LookupError):  # another vacuum reclaimed it
                referenced |= {x["file"] for x in self.manifest(e)["l0"]}
        removed = []
        state_dir = os.path.join(self.path, "state")
        if not os.path.isdir(state_dir):
            return removed
        epochs = sorted(d for d in os.listdir(state_dir) if int(d[1:]) <= cur)
        for e in epochs[:-keep_epochs] if keep_epochs else epochs:
            d = os.path.join(state_dir, e)
            try:
                names = os.listdir(d)
            except FileNotFoundError:  # another vacuum removed it
                continue
            for f in names:
                rel = f"state/{e}/{f}"
                if rel not in referenced:
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(os.path.join(d, f))
                        removed.append(rel)
            with contextlib.suppress(OSError):  # not empty, or already removed
                os.rmdir(d)
        return removed

    def compact(self, drop_tombs: bool = False) -> int:
        """Full compaction (Ray-parallel, one task per contiguous bucket
        range): each range's runs fold in one pass and split back into
        one fresh one-bucket run per partition, written by the ingest run
        writer; optionally drop tombstones (safe once upstream segments
        can no longer be replayed). Writes a new epoch, or raises
        ``ConcurrentWriterError`` if another writer committed it first.
        Returns tombstones dropped."""
        return self._compact_locked(self.manifest(), drop_tombs)

    def _compact_locked(self, m: dict, drop_tombs: bool = False) -> int:
        """:meth:`compact` of ``m``, also run by an auto-compacting apply.
        No lock is held: perfbench traces this name as ``lake.compact``."""
        epoch_rel = f"state/e{m['epoch'] + 1:06d}"
        os.makedirs(os.path.join(self.path, epoch_rel), exist_ok=True)
        plan = _ranges(m)
        if not plan:
            return 0
        write = self._write_run
        fold = self._fold_fn(plan, m.get("schema"), include_tombstones=True, keep_bucket=True)
        # one row per partition folded: its run's entry (null when
        # dropping tombstones left it empty) and the tombstones dropped
        out_schema = pa.schema([("entry", pa.string()), ("dropped", pa.int64())])

        def compact_range(batch: pa.Table) -> pa.Table:
            # key order comes from the fold. The fold's stored form is
            # written as it is: compaction never rebuilds a list
            folded = fold(batch)
            b = np.asarray(folded.column("_bucket").combine_chunks())
            if (np.diff(b) < 0).any():  # an unfolded range keeps its runs' order
                order = np.argsort(b, kind="stable")
                folded, b = folded.take(order), b[order]
            pids = np.unique(b)
            cuts = np.append(np.searchsorted(b, pids), len(b))
            rows = []
            for pid, start, end in zip(pids.tolist(), cuts[:-1], cuts[1:]):
                t = folded.slice(start, end - start)
                live_t = drop_tombstones(t)
                dropped = t.num_rows - live_t.num_rows if drop_tombs else 0
                t = live_t if drop_tombs else t
                entry = None
                if t.num_rows:
                    entry = json.dumps(dict(write(f"{epoch_rel}/part-{pid:05d}", t, None),
                                            live_rows=live_t.num_rows))
                rows.append({"entry": entry, "dropped": dropped})
            return pa.Table.from_pylist(rows, schema=out_schema)

        out = (
            ray.data.from_items(list(range(len(plan))), override_num_blocks=len(plan))
            .map_batches(compact_range, batch_format="pyarrow", batch_size=1)
            .take_all()
        )
        # a partition keeps the highest watermark it ever had, even when
        # the tombstone that carried it was dropped
        prior = {e["bmin"]: e["watermark"] for e in m["l0"] if "live_rows" in e}
        runs = sorted((json.loads(r["entry"]) for r in out if r["entry"]), key=lambda e: e["file"])
        for e in runs:
            e["watermark"] = max(e["watermark"], prior.get(e["bmin"], -1))
        dropped = sum(int(r["dropped"]) for r in out)
        # every run folded into the fresh ones: they are the whole state
        self._commit_manifest(m, {"compaction": True, "tombstones_dropped": dropped}, l0=runs)
        return dropped


def lineage(lake: "LakeTable", pid: int | None = None) -> list[dict]:
    """Per-partition LINEAGE from the retained manifest snapshots: for
    every epoch, which changelog segments fed it and which state files
    each partition gained — the runs whose bucket metadata admits it —
    with the partition's LSN watermark (the highest over those files) —
    the provenance record the north-star names beside metrics. Derived
    entirely from immutable manifests (no data reads); epochs already
    vacuumed have no snapshot and are omitted."""
    rows: list[dict] = []
    prev_segs: set = set()
    prev_files: dict = {}
    for e in lake.epochs():
        m = lake.manifest(e)
        segs = set(m["segments_applied"])
        new_segs = sorted(segs - prev_segs)
        for ipid in _pids(m):
            if pid is not None and ipid != pid:
                continue
            ents = [x for x in m["l0"] if ipid in _buckets(x)]
            files = {x["file"] for x in ents}
            added = sorted(files - prev_files.get(ipid, set()))
            if e == 0 or added or new_segs:
                rows.append({
                    "epoch": e,
                    "pid": ipid,
                    "segments": new_segs,
                    "files_added": added,
                    "watermark": max((x["watermark"] for x in ents), default=None),
                    # exact only once no run is pending for the partition
                    "live_rows": _live_rows(ents),
                })
            prev_files[ipid] = files
        prev_segs = segs
    return rows
