"""Span tracing for the benchmark's traced runs, installed from outside
the ``raycdc`` package by rebinding module and class attributes.

Three kinds of entry point are wrapped:

* driver-only calls (the tail loop, discovery, apply, manifest commit,
  compaction): rebound in the driver process;
* functions that Ray ships to workers inside pickled closures
  (``raycdc.lake.last_writer_per_key``, ``raycdc.lake.bucket_of``,
  ``raycdc.routing.stamp_route``, ``raycdc.identity.pseudo_id``): the
  closure captures the driver's binding when it is pickled, so they are
  rebound in the driver; the wrapper pickles as a reference that the
  worker resolves to its own wrapper;
* library calls looked up at call time inside workers (parquet read,
  encode, ``sort_indices``, ``os.fsync``, ``RuleSet.__call__``,
  ``compute_changeset``): rebound in each worker by
  :func:`install_worker`, the Ray ``worker_process_setup_hook``.

A span is ``(name, pid, id, parent, start, end, attrs)`` on the shared
``time.monotonic`` clock. Spans are kept in memory; a worker appends its
buffer to ``spans-<pid>.jsonl`` under ``$PERFBENCH_TRACE_DIR`` each time
a top-level span closes, and the driver writes its own at the end.
Recording is on only while the file ``enabled`` exists in that
directory, so one session can run untraced and traced passes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
import types

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# (module, attribute path, span name, record only at the top level)
DRIVER_TARGETS = [
    ("raycdc.tailer", "tail_once", "tailer.tail_once", False),
    ("raycdc.tailer", "pending_segments", "tailer.discover", False),
    ("raycdc.lake", "LakeTable.apply", "lake.apply", False),
    ("raycdc.lake", "LakeTable._commit_manifest", "lake.commit", False),
    ("raycdc.lake", "LakeTable._compact_locked", "lake.compact", False),
]
SHIPPED_TARGETS = [
    ("raycdc.lake", "last_writer_per_key", "apply.lww_fold", False),
    ("raycdc.lake", "bucket_of", "util.bucket_hash", False),
    ("raycdc.routing", "stamp_route", "routing.validate", False),
    ("raycdc.identity", "pseudo_id", "identity.pseudo_id", False),
]
# primitives that layers above also call: recorded only when no traced
# span is open, so e.g. the sort inside the LWW fold stays in the fold
WORKER_TARGETS = [
    ("pyarrow.parquet", "read_table", "io.read_table", True),
    ("pyarrow.parquet", "write_table", "lake.encode", True),
    ("pyarrow.compute", "sort_indices", "lake.sort", True),
    ("os", "fsync", "lake.fsync", True),
    ("raycdc.rules", "RuleSet.__call__", "rules.apply", False),
    ("raycdc.diffmerge", "compute_changeset", "diffmerge.changeset", False),
]


def _count_validate(args, kwargs, out) -> dict:
    import pyarrow.compute as pc

    from raycdc.routing import ROUTE_COL, ROUTE_DEAD_LETTER

    dead = pc.sum(pc.equal(out[ROUTE_COL], ROUTE_DEAD_LETTER).cast("int64")).as_py() or 0
    return {"rows_in": args[0].num_rows, "rows_dead": dead}


def _count_lww(args, kwargs, out) -> dict:
    return {"rows_in": args[0].num_rows, "rows_out": out.num_rows}


COUNTERS = {"routing.validate": _count_validate, "apply.lww_fold": _count_lww}


class Recorder:
    """Per-process span buffer with a per-thread stack of open spans."""

    def __init__(self, trace_dir: str | None):
        self.trace_dir = trace_dir
        self.spans: list[dict] = []
        self._local = threading.local()
        self._next_id = 0
        self._lock = threading.Lock()

    def enabled(self) -> bool:
        return bool(self.trace_dir) and os.path.exists(os.path.join(self.trace_dir, "enabled"))

    def stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def append(self, span: dict) -> None:
        with self._lock:
            self.spans.append(span)

    def flush(self, path: str) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            with open(path, "a") as f:
                f.writelines(json.dumps(s) + "\n" for s in spans)


class Traced:
    """A callable stand-in for a traced function or method."""

    def __init__(self, name: str, fn, root_only: bool, recorder: Recorder, flush_path: str | None):
        functools.update_wrapper(self, fn)
        self.span_name = name
        self.fn = fn
        self.root_only = root_only
        self.recorder = recorder
        self.flush_path = flush_path
        self.counter = COUNTERS.get(name)

    def __get__(self, obj, objtype=None):
        return self if obj is None else types.MethodType(self, obj)

    def __reduce__(self):
        return (resolve, (self.span_name,))

    def __call__(self, *args, **kwargs):
        rec = self.recorder
        stack = rec.stack()
        if (self.root_only and stack) or not (stack or rec.enabled()):
            return self.fn(*args, **kwargs)
        sid = rec.new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.monotonic()
        try:
            out = self.fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
        span = {"name": self.span_name, "pid": os.getpid(), "id": sid,
                "parent": parent, "start": start, "end": end}
        if self.counter is not None:
            span["attrs"] = self.counter(args, kwargs, out)
        rec.append(span)
        if parent is None and self.flush_path:
            rec.flush(self.flush_path)
        return out


_installed: dict[str, Traced] = {}
_recorder: Recorder | None = None


def _patch(targets, recorder: Recorder, flush_path: str | None) -> None:
    for mod_name, path, name, root_only in targets:
        if name in _installed:
            continue
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        w = Traced(name, getattr(owner, attr), root_only, recorder, flush_path)
        setattr(owner, attr, w)
        _installed[name] = w


def install_driver(trace_dir: str) -> Recorder:
    """Rebind the driver-side and shipped entry points (idempotent)."""
    global _recorder
    if _recorder is None:
        _recorder = Recorder(trace_dir)
    _patch(DRIVER_TARGETS + SHIPPED_TARGETS, _recorder, None)
    return _recorder


def install_worker() -> None:
    """Ray ``worker_process_setup_hook``: rebind every worker-side entry
    point in this worker process (idempotent)."""
    global _recorder
    if _recorder is None:
        d = os.environ.get(TRACE_DIR_ENV)
        _recorder = Recorder(d)
    path = (os.path.join(_recorder.trace_dir, f"spans-{os.getpid()}.jsonl")
            if _recorder.trace_dir else None)
    _patch(SHIPPED_TARGETS + WORKER_TARGETS, _recorder, path)


def resolve(name: str) -> Traced:
    """Unpickle target of :class:`Traced`: this process's wrapper."""
    if name not in _installed:
        install_worker()
    return _installed[name]


def set_enabled(trace_dir: str, on: bool) -> None:
    flag = os.path.join(trace_dir, "enabled")
    if on:
        open(flag, "w").close()
    elif os.path.exists(flag):
        os.remove(flag)


class DriverSpan:
    """A driver-side phase span (``with DriverSpan(rec, "pass.tail"):``)
    recorded whether or not the flag file is present, so untraced and
    traced passes are both delimited."""

    def __init__(self, recorder: Recorder, name: str):
        self.rec, self.name = recorder, name

    def __enter__(self):
        st = self.rec.stack()
        self.parent = st[-1] if st else None
        self.id = self.rec.new_id()
        st.append(self.id)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        end = time.monotonic()
        self.rec.stack().pop()
        self.rec.append({"name": self.name, "pid": os.getpid(), "id": self.id,
                         "parent": self.parent, "start": self.start, "end": end})
        return False


def load_spans(trace_dir: str, driver: Recorder) -> list[dict]:
    """Every span of the run: the driver's buffer plus each worker file."""
    spans = list(driver.spans)
    with open(os.path.join(trace_dir, f"spans-driver-{os.getpid()}.jsonl"), "w") as f:
        f.writelines(json.dumps(s) + "\n" for s in spans)
    for fn in sorted(os.listdir(trace_dir)):
        if fn.startswith("spans-") and not fn.startswith("spans-driver-"):
            with open(os.path.join(trace_dir, fn)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans
