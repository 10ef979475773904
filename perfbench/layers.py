"""Per-layer metrics of one traced pass, computed from its spans.

Each worker span is attributed to the innermost driver span whose
interval contains its start (all processes share ``time.monotonic``),
which tells whether it ran for ingest (under ``lake.apply``), for a
compaction (under ``lake.compact``) or for the read scan (under
``pass.read``). Times are self times: a span minus its traced children.
"""

from __future__ import annotations

from collections import defaultdict

# worker span name -> per-layer metric, for spans that ran during ingest
INGEST_SELF = {
    "io.read_table": "tailer.read_s",
    "routing.validate": "routing.validate_s",
    "rules.apply": "rules.apply_s",
    "identity.pseudo_id": "identity.pseudo_id_s",
    "diffmerge.changeset": "diffmerge.changeset_s",
    "apply.lww_fold": "apply.lww_fold_ingest_s",
    "util.bucket_hash": "util.bucket_hash_s",
    "lake.sort": "lake.sort_s",
    "lake.encode": "lake.encode_s",
    "lake.fsync": "lake.fsync_s",
}


def _self_times(spans: list[dict]) -> dict[tuple[int, int], float]:
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[(s["pid"], s["parent"])] += s["end"] - s["start"]
    return {(s["pid"], s["id"]): s["end"] - s["start"] - child[(s["pid"], s["id"])]
            for s in spans}


def layer_metrics(spans: list[dict], driver_pid: int, tail_id: int, read_id: int,
                  compact_id: int) -> dict[str, float]:
    """Metrics of the pass whose phase spans have the given ids."""
    driver = [s for s in spans if s["pid"] == driver_pid]
    by_id = {s["id"]: s for s in driver}
    phase_of: dict[int, int | None] = {}

    def phase(sid: int | None) -> int | None:
        if sid is None:
            return None
        if sid not in phase_of:
            is_phase = sid in (tail_id, read_id, compact_id)
            phase_of[sid] = sid if is_phase else phase(by_id[sid]["parent"])
        return phase_of[sid]

    def within(sid: int, name: str) -> dict | None:
        while sid is not None:
            s = by_id[sid]
            if s["name"] == name:
                return s
            sid = s["parent"]
        return None

    mine = [s for s in driver if phase(s["id"]) is not None]
    mine.sort(key=lambda s: s["start"])
    workers = [s for s in spans if s["pid"] != driver_pid]
    selfs = _self_times(workers)

    out: dict[str, float] = defaultdict(float)
    for name in INGEST_SELF.values():
        out[name] = 0.0
    worker_in_apply: dict[int, float] = defaultdict(float)
    for w in workers:
        home = None
        for d in mine:  # innermost (latest-starting) containing span
            if d["start"] > w["start"]:
                break
            if d["end"] >= w["start"]:
                home = d
        if home is None:
            continue
        st = selfs[(w["pid"], w["id"])]
        comp = within(home["id"], "lake.compact")
        apply = within(home["id"], "lake.apply")
        if comp is not None:  # compaction is timed whole, from the driver
            continue
        if apply is not None:
            worker_in_apply[apply["id"]] += st
            metric = INGEST_SELF.get(w["name"])
            if metric:
                out[metric] += st
            attrs = w.get("attrs") or {}
            if w["name"] == "routing.validate":
                out["routing.rows_in"] += attrs["rows_in"]
                out["routing.rows_dead_lettered"] += attrs["rows_dead"]
            elif w["name"] == "apply.lww_fold":
                out["apply.rows_in"] += attrs["rows_in"]
                out["apply.rows_out"] += attrs["rows_out"]
        elif phase(home["id"]) == read_id:
            out["lake.read_fold_s"] += st
            if w["name"] == "apply.lww_fold":
                out["apply.lww_fold_read_s"] += st

    busy = 0.0
    for d in mine:
        dur = d["end"] - d["start"]
        ph = phase(d["id"])
        if d["name"] == "tailer.tail_once" and ph == tail_id:
            busy += dur
        elif d["name"] == "tailer.discover" and ph == tail_id:
            out["tailer.discover_s"] += dur
        elif d["name"] == "lake.compact":
            out["lake.compactions"] += 1
            out["lake.compact_s"] += dur
        elif d["name"] == "lake.commit" and within(d["id"], "lake.compact") is None:
            out["lake.commit_s"] += dur
        elif d["name"] == "lake.apply" and ph == tail_id:
            kids = sum(c["end"] - c["start"] for c in mine
                       if c["parent"] == d["id"] and c["name"] in ("lake.commit", "lake.compact"))
            out["lake.apply_unattributed_s"] += dur - kids - worker_in_apply[d["id"]]
    tail_compact = sum(d["end"] - d["start"] for d in mine
                       if d["name"] == "lake.compact" and phase(d["id"]) == tail_id)
    attributed = (sum(out[m] for m in INGEST_SELF.values()) + out["tailer.discover_s"]
                  + out["lake.commit_s"] + tail_compact + out["lake.apply_unattributed_s"])
    out["trace.tail_busy_s"] = busy
    out["trace.tail_accounted_ratio"] = attributed / busy if busy else 0.0
    out["trace.unattributed_share"] = out["lake.apply_unattributed_s"] / busy if busy else 0.0
    rin = out["apply.rows_in"]
    out["apply.superseded_ratio"] = 1.0 - out["apply.rows_out"] / rin if rin else 0.0
    return dict(out)
