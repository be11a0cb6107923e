"""Reference engines and cache folds the production surface dropped.

Production sweeps run one engine, the family-batched fill
(:func:`~repro.core.sweep.evaluate_cells`), and cross-host scale-out
partitions the grid outside it (:func:`~repro.core.sharding.run_shard`,
the queue workers).  The tests keep two references here:

* :class:`ShardedExecutor` — the cross-host partitioning as an
  in-process engine: shards run one after another through the fill
  against the caller's shared cache.  The engine matrix and
  ``benchmarks/test_sharded_speed.py`` call its :meth:`run_sweep`
  directly to check that shard boundaries move no byte.
* :func:`merge_caches` — fold one :class:`~repro.core.sweep.EvaluationCache`
  into another, entry by entry.  The reference for
  :func:`~repro.core.sharding.merge_cache_states`, which merges the
  digests and counters that shard artifacts carry instead.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.core.figure_of_merit import FomWeights
from repro.core.ranking import DecisionFrame
from repro.core.sharding import shard_indices
from repro.core.sweep import (
    CACHE_TABLES,
    CandidateFactory,
    DesignPoint,
    EvaluationCache,
    SweepGrid,
    evaluate_cells,
)
from repro.errors import SpecificationError


class ShardedExecutor:
    """The shard partitioning as an in-process execution engine.

    Partitions the grid with :func:`~repro.core.sharding.shard_indices`
    — exactly the runs the cross-host flow would distribute — and
    evaluates each shard sequentially through
    :func:`~repro.core.sweep.evaluate_cells`, as the grid plus the
    shard's indices, against the caller's shared cache.  Because the cache is shared,
    memoisation still spans shard boundaries and the engine is
    byte-identical to serial with only partition bookkeeping as
    overhead.
    """

    def __init__(self, shards: Optional[int] = None) -> None:
        if shards is None:
            shards = os.cpu_count() or 1
        if shards < 1:
            raise SpecificationError(
                f"sharded engine needs at least 1 shard, got {shards}"
            )
        self.shards = shards

    def run_sweep(
        self,
        grid: SweepGrid | Sequence[DesignPoint],
        candidate_factory: CandidateFactory,
        reference: int,
        weights: FomWeights,
        cache: EvaluationCache,
    ) -> DecisionFrame:
        frames = []
        for shard_index in range(self.shards):
            indices = shard_indices(len(grid), self.shards, shard_index)
            if not indices:
                continue
            frames.append(
                evaluate_cells(
                    grid,
                    candidate_factory,
                    reference,
                    weights,
                    cache,
                    indices,
                )
            )
        return DecisionFrame.concat(frames)


def merge_caches(into: EvaluationCache, other: EvaluationCache) -> None:
    """Fold ``other``'s tables and counters into ``into``.

    Entries are first-wins (both sides computed from the same content
    key, so values agree); hit/miss counters add up, making the merged
    ``stats()`` the tally of both caches.
    """
    for name in CACHE_TABLES:
        table = into._tables[name]
        for key, value in other._tables[name].items():
            if name == "cost":
                costs = table.setdefault(key, {})
                for volume_key, cost in value.items():
                    costs.setdefault(volume_key, cost)
            else:
                table.setdefault(key, value)
        into._hits[name] += other._hits[name]
        into._misses[name] += other._misses[name]
