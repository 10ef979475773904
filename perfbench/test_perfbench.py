"""Tests of the benchmark itself: toy-size runs of every workload, the
oracle against the library's reference fold, span attribution, and the
refusal to run without the ``raycdc`` sources.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import layers, oracle  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ["tail_bulk", "tail_trickle", "tail_deid"]
# spans every traced run must contain; the transform layers only in tail_deid
COMMON_SPANS = {
    "tailer.tail_once", "tailer.discover", "lake.apply", "lake.commit", "lake.compact",
    "apply.lww_fold", "util.bucket_hash", "routing.validate", "io.read_table",
    "lake.encode", "lake.sort", "lake.fsync", "pass.tail", "pass.read", "pass.compact",
}
DEID_SPANS = {"rules.apply", "identity.pseudo_id", "diffmerge.changeset"}


def _run(cwd: str, workload: str, trace: int, timeout: float = 240):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--scale", "0.05"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == ["tail_bulk", "tail_deid"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_run_emits_every_metric_and_passes_the_oracle(workload, trace):
    p = _run(ROOT, workload, trace)
    assert p.returncode == 0, p.stderr[-4000:]
    lines = p.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert info["errors"] == [] and info["failed_share"] == 0.0
    want = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), k
    if not trace:
        for k, v in result["metrics"].items():
            assert v["value"] > 0, k
        return
    spans = set(info["spans"])
    expected = COMMON_SPANS | (DEID_SPANS if workload == "tail_deid" else set())
    assert expected <= spans, expected - spans
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["routing.rows_in"] > 0 and m["apply.rows_in"] > 0
    # the rest of tail_once (dataset construction, manifest reads) is unattributed
    # driver time; at toy size it is a visible share of tiny epochs
    assert 0.75 < m["trace.tail_accounted_ratio"] <= 1.0 + 1e-9
    for k in ("rules.apply_s", "identity.pseudo_id_s", "diffmerge.changeset_s"):
        assert (m[k] > 0) == (workload == "tail_deid"), k


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(str(tmp_path), "tail_bulk", 0, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_oracle_matches_reference_fold():
    from raycdc.synth import EventGenConfig, base_table, events_table, fold_events
    from raycdc.synth import with_replays_and_disorder

    cfg = EventGenConfig(n_events=3000, n_base=500, seed=7, dup_replay_rate=0.02,
                         pct_malformed=0.01, hot_key_share=0.1, min_len=4, max_len=12)
    base = base_table(500, seed=7, min_len=4, max_len=12)
    events = with_replays_and_disorder(events_table(cfg), cfg)
    want = fold_events(base, events)
    got = oracle.expected(base, events)
    assert oracle.mismatch(got, want) is None
    assert oracle.mismatch(got.slice(1), want) is not None


def test_layer_attribution_by_phase():
    def sp(pid, sid, parent, name, start, end, **attrs):
        d = {"pid": pid, "id": sid, "parent": parent, "name": name, "start": start, "end": end}
        if attrs:
            d["attrs"] = attrs
        return d

    spans = [
        sp(1, 1, None, "pass.tail", 0, 10),
        sp(1, 2, 1, "tailer.tail_once", 0, 10),
        sp(1, 3, 2, "tailer.discover", 0, 1),
        sp(1, 4, 2, "lake.apply", 1, 10),
        sp(1, 5, 4, "lake.commit", 8, 9),
        sp(1, 6, None, "pass.read", 11, 14),
        sp(1, 7, None, "pass.compact", 15, 16),
        sp(2, 1, None, "rules.apply", 2, 5),
        sp(2, 2, 1, "identity.pseudo_id", 2, 3),  # nested: not in the rules' self time
        sp(2, 3, None, "lake.encode", 5, 7),
        sp(2, 4, None, "apply.lww_fold", 7, 8, rows_in=10, rows_out=8),
        sp(2, 5, None, "apply.lww_fold", 12, 13, rows_in=4, rows_out=4),
    ]
    m = layers.layer_metrics(spans, driver_pid=1, tail_id=1, read_id=6, compact_id=7)
    assert m["tailer.discover_s"] == 1
    assert m["rules.apply_s"] == 2 and m["identity.pseudo_id_s"] == 1
    assert m["lake.encode_s"] == 2 and m["lake.commit_s"] == 1
    assert m["apply.lww_fold_ingest_s"] == 1 and m["apply.lww_fold_read_s"] == 1
    assert m["lake.apply_unattributed_s"] == 9 - 1 - 6
    assert m["lake.read_fold_s"] == 1
    assert m["apply.superseded_ratio"] == pytest.approx(0.2)
    assert m["trace.tail_accounted_ratio"] == pytest.approx(1.0)


def test_traced_wrapper_pickles_to_the_installed_one(tmp_path):
    import pickle

    from perfbench import trace

    rec = trace.Recorder(str(tmp_path))
    w = trace.Traced("util.bucket_hash", len, False, rec, None)
    trace._installed["util.bucket_hash"] = w
    try:
        assert pickle.loads(pickle.dumps(w)) is w
        assert w([1, 2]) == 2 and rec.spans == []  # recording is off
        trace.set_enabled(str(tmp_path), True)
        w([1])
        assert [s["name"] for s in rec.spans] == ["util.bucket_hash"]
    finally:
        trace._installed.pop("util.bucket_hash", None)
        trace.set_enabled(str(tmp_path), False)


def test_inputs_depend_only_on_the_seed():
    from perfbench.workloads import WORKLOADS as SHAPES
    from perfbench.workloads import make_inputs, scaled

    shape = scaled(SHAPES["tail_bulk"], 0.02)
    a, b = make_inputs(shape, 5, 2), make_inputs(shape, 5, 2)
    c = make_inputs(shape, 6, 2)
    assert pa.concat_tables(a.segments).equals(pa.concat_tables(b.segments))
    assert not pa.concat_tables(a.segments).equals(pa.concat_tables(c.segments))
