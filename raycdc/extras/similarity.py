"""Similarity search over an embedding column (``list<float>``):
brute-force cosine top-k as the exact baseline, IVF (inverted-file,
k-means coarse quantizer) as the scale path.

Scale shape: the query matrix is broadcast once (``ray.put``); each
batch scores locally with one numpy matmul and emits only its local
top-k, so the global reduce sees k × n_batches candidate rows, never
the corpus. IVF prunes the scan to ``nprobe`` of ``n_clusters``
partitions — the partitioning assumption is that cluster sizes are
roughly balanced (k-means on a seeded sample)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from raycdc.ops import _sorted_runs


def _to_matrix(col) -> np.ndarray:
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(len(col), -1)


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1
    return mat / norms[:, None]


def knn_brute(
    ds: ray.data.Dataset,
    query: np.ndarray,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 4096,
) -> ray.data.Dataset:
    """Exact cosine top-k: per-batch matmul vs broadcast query + local
    prune, tiny global sort-limit. ``query`` may be (d,) or (q, d).

    ``concurrency=None`` (default) = autoscaling (1, 4) actor pool on the
    large-query path, unbounded task pool on the small-query path; an
    explicit value bounds BOTH paths (task pools take the tuple's max)."""
    q = np.atleast_2d(np.asarray(query, dtype=np.float64))
    q = _normalize(q)

    def score_against(qm: np.ndarray, t: pa.Table) -> pa.Table:
        mat = _normalize(_to_matrix(t[emb_col]))
        sims = mat @ qm.T  # (n, q)
        outs = []
        for qi in range(sims.shape[1]):
            # prune on RAW similarity; round only at final emit (a
            # pre-round could flip ties at the k-th cutoff vs an
            # unrounded oracle ORDER BY)
            tt = pa.table(
                {
                    "query_id": pa.array(np.full(len(mat), qi, dtype=np.int64)),
                    id_col: t[id_col],
                    "sim": pa.array(sims[:, qi], type=pa.float64()),
                }
            )
            idx = pc.sort_indices(tt, sort_keys=[("sim", "descending"), (id_col, "ascending")])[:k]
            outs.append(tt.take(idx))
        return pa.concat_tables(outs)

    # Broadcast rule (scale contract): a LARGE query matrix goes through
    # the object store once (ray.put) and is fetched per ACTOR in
    # __init__ — never re-shipped per batch. A SMALL one (< ~1 MB) rides
    # the task closure instead: a task pool has zero actor-warmup cost,
    # which dominates wall time on small inputs, and the per-task ship
    # cost of a tiny matrix is noise at any scale.
    if q.nbytes > 1_000_000:
        ref = ray.put(q)

        class Score:
            def __init__(self):
                self.q = ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                return score_against(self.q, t)

        scored = ds.map_batches(Score, batch_format="pyarrow", batch_size=batch_size,
                                concurrency=concurrency or (1, 4))  # autoscaling pool: see module note
    else:
        # task pools take an int cap, not an autoscaling tuple — honor a
        # caller-supplied bound with the tuple's max; None = unbounded
        task_cc = (
            None if concurrency is None
            else concurrency if isinstance(concurrency, int)
            else max(concurrency)
        )
        scored = ds.map_batches(
            lambda t: score_against(q, t),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=task_cc,
        )

    # final reduce: the candidate set is ≤ k × n_batches × n_queries rows
    # BY CONSTRUCTION (each batch pruned to k per query), so it folds in
    # ONE task — Ray's Sort/groupby operator costs seconds of fixed
    # sample/shuffle overhead on data this small (measured: 4.6 s on 640
    # rows at sf0.1)
    def grouped_head(g: pa.Table) -> pa.Table:
        g, fr = _sorted_runs(
            g, [("query_id", "ascending"), ("sim", "descending"), (id_col, "ascending")],
            "query_id",
        )
        g = g.filter(pa.array(np.arange(g.num_rows) - fr.first < k))
        return g.set_column(g.column_names.index("sim"), "sim", pc.round(g["sim"], 6))

    return scored.repartition(1).map_batches(
        grouped_head, batch_format="pyarrow", batch_size=None
    )


class IVFIndex:
    """Inverted-file index: k-means coarse quantizer fit on a seeded
    sample (driver-side numpy Lloyd iterations), cluster assignment as a
    ``map_batches`` stage, search probing the ``nprobe`` nearest
    centroids. Assignment output is a bucketed dataset reusable across
    queries (build once, query many)."""

    def __init__(self, n_clusters: int = 16, n_iter: int = 10, seed: int = 42,
                 emb_col: str = "embedding", id_col: str = "vec_id"):
        self.n_clusters = n_clusters
        self.n_iter = n_iter
        self.seed = seed
        self.emb_col, self.id_col = emb_col, id_col
        self.centroids: np.ndarray | None = None

    def fit(
        self,
        ds: ray.data.Dataset,
        sample_fraction: float = 0.25,
        max_sample: int = 65536,
    ) -> "IVFIndex":
        """k-means fit WITHOUT driver materialization of the corpus: a
        bounded sample (``random_sample`` + ``limit(max_sample)``) is
        materialized in the object store once, then each Lloyd iteration
        is a ``map_batches`` pass emitting per-cluster partial sums
        (k × d floats per batch) that the driver combines — fit memory is
        O(max_sample) distributed + O(k × d) on the driver."""
        sample = (
            ds.random_sample(sample_fraction, seed=self.seed) if sample_fraction < 1.0 else ds
        )
        sample = sample.limit(max_sample).materialize()
        emb_col = self.emb_col
        # deterministic init from the first sample batch
        first = next(iter(sample.iter_batches(batch_size=4096, batch_format="pyarrow")))
        x0 = _normalize(_to_matrix(first[emb_col]))
        rng = np.random.default_rng(self.seed)
        k = min(self.n_clusters, len(x0))
        c = x0[rng.choice(len(x0), size=k, replace=False)].copy()
        for _ in range(self.n_iter):
            ref = ray.put(c)

            class Partial:
                def __init__(self):
                    self.c = ray.get(ref)

                def __call__(self, t: pa.Table) -> pa.Table:
                    x = _normalize(_to_matrix(t[emb_col]))
                    assign = np.argmax(x @ self.c.T, axis=1)
                    S = np.zeros_like(self.c)
                    np.add.at(S, assign, x)
                    cnt = np.bincount(assign, minlength=len(self.c))
                    return pa.table(
                        {
                            "cluster": pa.array(np.arange(len(self.c), dtype=np.int32)),
                            "vec_sum": pa.array(S.tolist(), type=pa.list_(pa.float64())),
                            "n": pa.array(cnt, type=pa.int64()),
                        }
                    )

            sums = np.zeros_like(c)
            counts = np.zeros(len(c), dtype=np.int64)
            for b in (
                sample.map_batches(Partial, batch_format="pyarrow", batch_size=4096,
                                   concurrency=(1, 2))
                .iter_batches(batch_size=None, batch_format="pyarrow")
            ):
                cl = np.asarray(b["cluster"])
                vs = _to_matrix(b["vec_sum"])
                sums[cl] += vs
                counts[cl] += np.asarray(b["n"])
            nz = counts > 0
            means = sums[nz] / counts[nz][:, None]
            norms = np.linalg.norm(means, axis=1)
            good = norms > 0
            idx = np.nonzero(nz)[0][good]
            c[idx] = means[good] / norms[good][:, None]
        self.centroids = c
        return self

    def assign(self, ds: ray.data.Dataset) -> ray.data.Dataset:
        ref = ray.put(self.centroids)
        emb_col = self.emb_col

        class Assign:
            def __init__(self):
                self.c = ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                mat = _normalize(_to_matrix(t[emb_col]))
                cl = np.argmax(mat @ self.c.T, axis=1).astype(np.int32)
                return t.append_column("_cluster", pa.array(cl))

        # (1, n) AUTOSCALING pool, never a fixed reservation: stacked
        # fixed pools (Assign + knn_brute's Score) can reserve every CPU
        # on a small allocation and starve the upstream read — a
        # zero-progress deadlock observed at num_cpus=4
        return ds.map_batches(Assign, batch_format="pyarrow", concurrency=(1, 2))

    def search(self, assigned: ray.data.Dataset, query: np.ndarray, k: int = 10,
               nprobe: int = 4) -> ray.data.Dataset:
        """Probe the nprobe nearest clusters only (the pruned scan)."""
        q = _normalize(np.atleast_2d(np.asarray(query, dtype=np.float64)))[0]
        probe = np.argsort(-(self.centroids @ q))[:nprobe].astype(np.int32)
        probe_set = pa.array(probe.tolist(), type=pa.int32())
        pruned = assigned.map_batches(
            lambda t: t.filter(pc.is_in(t["_cluster"], value_set=probe_set)),
            batch_format="pyarrow",
        )
        return knn_brute(pruned, q, k=k, emb_col=self.emb_col, id_col=self.id_col)
