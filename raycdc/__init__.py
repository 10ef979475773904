"""raycdc — a Ray-Data-native CDC / incremental-ingest engine.

Re-expresses the capabilities of the reference NiFi plugin
(blezek/nifi-dicom — change routing, keyed idempotent apply with durable
dedup state, rule-driven attribute evolution, reversible diff/merge,
exactly-once sink, lineage/metrics) as idiomatic Ray Data pipelines over
Parquet tables of pre-tokenized training sequences
``(doc_id: string, tokens: list<int32>, n_tok: int32, source: string)``.

Nothing here is a port: the NiFi flow-file/queue execution model is
replaced end-to-end by ``ray.data.Dataset`` streaming pipelines —
``map_batches`` over zero-copy Arrow batches, hash-bucketed shuffles for
the keyed folds, and shuffle-free bucket-sorted run files + a
put-if-absent manifest snapshot for exactly-once lake commits.
"""

from raycdc import util  # noqa: F401
from raycdc.apply import base_as_inserts, lww_apply  # noqa: F401
from raycdc.lake import LakeTable  # noqa: F401
from raycdc.rules import RuleSet  # noqa: F401
from raycdc.synth import base_table, events_table, fold_events  # noqa: F401
from raycdc.tailer import pending_segments, tail_once, tail_until_caught_up  # noqa: F401

__version__ = "0.1.0"
