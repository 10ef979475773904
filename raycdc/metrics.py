"""Run metrics + lineage: a named counter actor polled by the driver.

Reference analogs: the controller's Guava cache stats exported as a JSON
FlowFile (``LogCacheStatistics.java:49-61``,
``DeidentificationController.java:171-174``) and per-record provenance
events (``ListenDICOM.java:160-164``, ``PutDICOM.java:245-246``).

Engine model: one lightweight named actor per run accumulates counters
from any stage (stages call ``incr.remote`` fire-and-forget, so the hot
path never blocks); the driver reads them with ``stats()``. Pipeline-
level lineage (which segments fed which epoch, per-partition rows and
watermarks) lives in the lake manifest's ``history`` — see lake.py.
Per-stage wall/cpu/memory breakdowns come free from ``ds.stats()``.
"""

from __future__ import annotations

from collections import defaultdict

import ray


@ray.remote(num_cpus=0)
class _MetricsActor:
    def __init__(self):
        self._c = defaultdict(int)

    def incr(self, name: str, n: int = 1) -> None:
        self._c[name] += n

    def incr_many(self, items: dict) -> None:
        for k, v in items.items():
            self._c[k] += v

    def get_stats(self) -> dict:
        return dict(self._c)

    def reset(self) -> None:
        self._c.clear()


class Metrics:
    """Handle to the run's metrics actor (get-or-create by name)."""

    def __init__(self, name: str = "raycdc_metrics"):
        self.name = name
        try:
            self.actor = ray.get_actor(name)
        except ValueError:
            self.actor = _MetricsActor.options(name=name).remote()

    def incr(self, name: str, n: int = 1) -> None:
        self.actor.incr.remote(name, n)

    def stats(self) -> dict:
        return ray.get(self.actor.get_stats.remote())

    def stats_stable(self, settle: float = 0.1, timeout: float = 5.0) -> dict:
        """Counters after in-flight fire-and-forget increments drain:
        poll until two consecutive reads agree (bounded by ``timeout``)."""
        import time

        prev = self.stats()
        deadline = time.time() + timeout
        while time.time() < deadline:
            time.sleep(settle)
            cur = self.stats()
            if cur == prev:
                return cur
            prev = cur
        return prev

    def reset(self) -> None:
        ray.get(self.actor.reset.remote())

class CountingStage:
    """A pass-through ``map_batches`` stage that counts rows into the
    metrics actor (provenance-counter analog). Fire-and-forget — adds no
    synchronous hop to the hot path."""

    def __init__(self, counter: str, metrics_name: str = "raycdc_metrics"):
        self.counter = counter
        self.actor = Metrics(metrics_name).actor

    def __call__(self, batch):
        self.actor.incr.remote(self.counter, batch.num_rows)
        return batch


def count_rows(ds, counter: str, metrics_name: str = "raycdc_metrics", batch_size: int = 65536,
               concurrency: int | tuple[int, int] = (1, 4)):
    # the stage is stateless per batch (shared state lives in the metrics
    # actor), so it fans out freely — never a single-actor funnel
    return ds.map_batches(
        CountingStage,
        fn_constructor_kwargs={"counter": counter, "metrics_name": metrics_name},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
