"""Composed pipelines — the flagship CDC replay and helpers that bind
synthesis, the lake, the tailer, and the transform stages together.

The flagship flow is the engine analog of the reference's
ListenDICOM → DeidentifyDICOM → PutDICOM graph (SURVEY.md §3.1):
changelog segments → validate/dead-letter → (optional rules/identity) →
keyed LWW apply → exactly-once partitioned Parquet lake.
"""

from __future__ import annotations

import os
import re
import shutil

import ray.data

from raycdc.apply import base_as_inserts
from raycdc.util import read_parquet_clean
from raycdc.lake import LakeTable
from raycdc.synth import EventGenConfig, write_base, write_changelog
from raycdc.tailer import tail_until_caught_up

# sf → (n_base, n_events, num_partitions, n_segments, min_len, max_len)
# sf0.001/0.01 use the FIXTURES.md F1 token range (64-1024). The sf0.1
# bench preset keeps the event COUNT at 1M (the north-star axis is
# change-events/sec) with a shorter token payload (48-192) because this
# sandbox's page-population throughput (~1-10MB/s in bad phases, see
# BASELINE.md) makes multi-GB payloads infeasible to even synthesize;
# the pipeline code path is identical.
SCALE_PRESETS = {
    "0.001": (2_000, 10_000, 8, 4, 64, 1024),
    "0.01": (20_000, 100_000, 16, 8, 64, 1024),
    "0.1": (100_000, 1_000_000, 32, 8, 48, 192),
    "1": (1_000_000, 10_000_000, 64, 16, 48, 192),
}

TOKEN_LEN = (64, 1024)  # per FIXTURES.md F1
SEED = 42


def sf_of(sf_dir: str) -> str:
    m = re.search(r"sf([0-9.]+)", sf_dir or "")
    return m.group(1) if m else "0.001"


def ensure_synth_inputs(
    work_root: str,
    n_base: int,
    n_events: int,
    n_segments: int,
    seed: int = SEED,
    min_len: int = TOKEN_LEN[0],
    max_len: int = TOKEN_LEN[1],
    use_ray: bool | None = None,
) -> tuple[str, str]:
    """Deterministic base+changelog parquet under ``work_root`` (cached —
    synthesis is a pure function of the parameters, which are part of the
    directory key). Generation fans out over Ray tasks when a Ray session
    is up (identical bytes either way — counter-based generation)."""
    key = f"b{n_base}_e{n_events}_s{n_segments}_seed{seed}_l{min_len}-{max_len}"
    root = os.path.join(work_root, key)
    base_dir, log_dir = os.path.join(root, "base"), os.path.join(root, "log")
    marker = os.path.join(root, "_done")
    if not os.path.exists(marker):
        if use_ray is None:
            import ray

            use_ray = ray.is_initialized()
        shutil.rmtree(root, ignore_errors=True)
        cfg = EventGenConfig(
            n_events=n_events,
            n_base=n_base,
            seed=seed,
            dup_replay_rate=0.02,
            pct_malformed=0.01,
            hot_key_share=0.1,
            min_len=min_len,
            max_len=max_len,
        )
        write_base(
            base_dir,
            n_base,
            seed=seed,
            n_files=max(4, n_segments),
            use_ray=use_ray,
            min_len=min_len,
            max_len=max_len,
        )
        write_changelog(log_dir, cfg, n_segments=n_segments, use_ray=use_ray)
        open(marker, "w").write("ok")
    return base_dir, log_dir


def curate_text(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    lang: str | None = None,
    min_quality: float | None = None,
    dedup: bool = True,
    concurrency: int | tuple[int, int] = (1, 4),
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """Composed training-data curation: language-ID → quality scoring →
    predicate filter → exact first-writer dedup. Every stage is a
    streaming ``map_batches`` (actor pools for the scored stages); the
    only shuffle is the dedup's bounded bucket groupby. Rows keep their
    ``lang_pred``/``quality`` columns for downstream routing/audit."""
    import pyarrow.compute as pc

    from raycdc.extras.dedup import exact_dedup_rows
    from raycdc.extras.text import LangId, QualityScore

    # task stages (callable INSTANCES, not classes): the scorer "state" is
    # just pattern strings, and task stages fuse and never pin CPUs the
    # downstream dedup shuffle needs (two fixed actor pools ahead of an
    # all-to-all can starve it outright on a small cluster)
    ds = ds.map_batches(LangId(text_col=text_col), batch_format="pyarrow",
                        batch_size=batch_size)
    ds = ds.map_batches(QualityScore(text_col=text_col), batch_format="pyarrow",
                        batch_size=batch_size)

    def keep(t):
        mask = None
        if lang is not None:
            mask = pc.equal(t["lang_pred"], lang)
        if min_quality is not None:
            qm = pc.greater_equal(t["quality"], min_quality)
            mask = qm if mask is None else pc.and_(mask, qm)
        return t if mask is None else t.filter(mask)

    ds = ds.map_batches(keep, batch_format="pyarrow")
    if dedup:
        ds = exact_dedup_rows(ds, text_col=text_col, id_col=id_col)
    return ds


def deid_stage(password: str | None = "bench", iterations: int = 200, kdf: str = "batch"):
    """The per-record work of :func:`deid_transform` as a batch callable:
    pseudonymize ``doc_id`` and ``source`` and seal the restoring
    change-set envelope."""
    from raycdc.diffmerge import DeidentifyEncrypt
    from raycdc.identity import name_based_uid, pseudo_id
    from raycdc.rules import Rule, RuleSet

    rs = RuleSet(rules=[
        Rule(column="doc_id", action="map", fn=lambda t: pseudo_id(t["doc_id"])),
        Rule(column="source", action="map", fn=lambda t: name_based_uid(t["source"])),
    ])
    return DeidentifyEncrypt(rs, key="doc_id", password=password, iterations=iterations, kdf=kdf)


def deid_transform(password: str | None = "bench", iterations: int = 200,
                   batch_size: int | None = 65536, kdf: str = "batch"):
    """The reference-analog per-record work stage for the changelog tail:
    pseudonymize identities (M4/T4/T5) and seal the restoring change-set
    envelope (C2/C4) — the DeidentifyEncryptDICOM workload
    (``DeidentifyEncryptDICOM.java:90-96`` per-image crypto). The
    ``iterations`` default of 200 is the order of the reference's 100,
    not the hardened library default (``DEFAULT_ITERATIONS``), because
    this is the throughput-path configuration.

    Used by ``bench.py --scaling`` with ``kdf="row"`` (one PBKDF2 per
    record, as the reference seals one envelope per image): the timed
    tail then carries the reference's real per-record CPU profile (rules
    + envelope crypto) rather than raw byte movement, which is what the
    N-vs-4N scaling criterion is meant to exercise (see BASELINE.md).
    Behind ``tail_once`` the records are each segment group's LWW
    winners, not every event."""
    stage = deid_stage(password, iterations, kdf)

    def transform(ds: ray.data.Dataset) -> ray.data.Dataset:
        return ds.map_batches(stage, batch_format="pyarrow", batch_size=batch_size)

    return transform


def cdc_replay(
    sf_dir: str | None = None,
    work_root: str = "/tmp/raycdc_work",
    n_base: int | None = None,
    n_events: int | None = None,
    num_partitions: int | None = None,
    n_segments: int | None = None,
    segments_per_epoch: int | None = None,
    min_len: int | None = None,
    max_len: int | None = None,
) -> ray.data.Dataset:
    """The flagship: synthesize (cached) → bootstrap lake → seed base →
    tail the changelog to convergence → return the converged table.

    Scale defaults come from the sf encoded in ``sf_dir`` (the driver
    passes /root/testdata/sfX; the tokens input itself is synthesized per
    BASELINE.json input_hint — no external data)."""
    preset = SCALE_PRESETS.get(sf_of(sf_dir or ""), SCALE_PRESETS["0.001"])
    n_base = n_base or preset[0]
    n_events = n_events or preset[1]
    num_partitions = num_partitions or preset[2]
    n_segments = n_segments or preset[3]
    min_len = min_len if min_len is not None else preset[4]
    max_len = max_len if max_len is not None else preset[5]

    base_dir, log_dir = ensure_synth_inputs(
        work_root, n_base, n_events, n_segments, min_len=min_len, max_len=max_len
    )
    lake_dir = os.path.join(
        work_root, f"lake_b{n_base}_e{n_events}_p{num_partitions}_l{min_len}-{max_len}"
    )
    shutil.rmtree(lake_dir, ignore_errors=True)
    lake = LakeTable(lake_dir, num_partitions=num_partitions)
    lake.init()
    lake.apply(base_as_inserts(read_parquet_clean(base_dir)), ["__base__"])
    tail_until_caught_up(
        lake,
        log_dir,
        max_segments_per_epoch=segments_per_epoch,
        dead_letter_dir=os.path.join(lake_dir, "dead_letter"),
    )
    return lake.read()


def curate_sample_write(
    ds: ray.data.Dataset,
    out_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    lang: str = "en",
    min_quality: float = 0.5,
    weight_col: str = "n_chars",
    weight_div: int = 100,
    hash_kernel: str = "sip",
    partition_col: str = "lang",
) -> ray.data.Dataset:
    """End-to-end corpus curation to RESUMABLE partitioned parquet:
    language-ID → quality filter → exact dedup (:func:`curate_text`) →
    length-weighted content-addressed sampling (keep rate
    ``min(16, weight/div)/16`` — :func:`raycdc.ops.weighted_sample`) →
    ``write_parquet(out_dir, partition_cols=[partition_col])``.

    The write lands one hive directory per partition value, so a failed
    run resumes by skipping finished partitions, and the sample is a
    pure function of ``id_col`` — a rerun reproduces the identical row
    set (both halves of the brief's resumability rule). Returns the
    dataset read BACK from ``out_dir`` (round-trip verified, not
    assumed)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from raycdc.ops import weighted_sample

    cur = curate_text(
        ds, text_col=text_col, id_col=id_col, lang=lang, min_quality=min_quality
    )
    cur = cur.map_batches(
        lambda t: t.append_column(
            "w",
            pc.min_element_wise(
                pa.scalar(16, pa.int64()),
                pc.divide(t[weight_col].cast(pa.int64()), weight_div),
            ),
        ),
        batch_format="pyarrow",
    )
    sam = weighted_sample(cur, id_col, "w", hash_kernel=hash_kernel)
    sam.write_parquet(out_dir, partition_cols=[partition_col])
    return read_parquet_clean(out_dir)
