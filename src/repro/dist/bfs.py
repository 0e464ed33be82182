"""Distributed level-synchronous BFS over a sharded cluster.

The classic 1-D partitioned BFS the multi-GPU systems in the paper's
introduction run, one :meth:`~repro.dist.cluster.ShardedCluster.step`
per level: each GPU partially sorts (the Sec. VI-E sort of single-GPU
BFS) and expands its shard of the frontier, and the owners claim the
unvisited vertices they receive to form the next frontier.

Levels are bit-identical to single-GPU :func:`repro.traversal.bfs.bfs`
for every codec and schedule: codecs round-trip exactly and claims are
order-independent, so only the *costs* differ — which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.cluster import DistResult, ShardedCluster
from repro.dist.wire import FRONTIER_ID_BYTES
from repro.primitives.compact import atomic_or_claim
from repro.primitives.sort import sort_frontier_kernel

__all__ = ["DistBFSResult", "distributed_bfs"]


@dataclass(frozen=True)
class DistBFSResult(DistResult):
    """Outcome of one distributed BFS run."""

    source: int
    levels: np.ndarray
    #: Number of BFS levels counting the source's level 0 (levels.max()+1).
    num_levels: int
    edges_traversed: int


def distributed_bfs(
    cluster: ShardedCluster,
    source: int,
    partial_sort: bool = True,
    sort_fraction: float = 0.65,
) -> DistBFSResult:
    """BFS from ``source`` across the cluster's shards.

    Parameters
    ----------
    cluster:
        A built :class:`~repro.dist.cluster.ShardedCluster`.
    source:
        Start vertex (global id).
    partial_sort:
        Apply the Sec. VI-E partial radix sort to each local frontier
        shard before expansion (65% of the id bits by default).
    sort_fraction:
        Fraction of high id bits the partial sort keys on.
    """
    nv = cluster.num_nodes
    frontiers = cluster.seed(source)
    levels = np.full(nv, -1, dtype=np.int64)
    visited = np.zeros(nv, dtype=bool)
    levels[source] = 0
    visited[source] = True
    depth = 0
    edges_traversed = 0

    def expand(g: int):
        frontier = frontiers[g]
        if not frontier.size:
            return None
        backend = cluster.backends[g]
        if partial_sort:
            frontier = sort_frontier_kernel(
                backend.engine, "dist_sort", frontier, nv, sort_fraction,
                FRONTIER_ID_BYTES,
            )
        with backend.engine.launch("dist_expand") as k:
            nbrs, _ = backend.expand(frontier, k)
            k.read_stream("work:visited", nbrs, 1)
        return nbrs, None

    def claim(g: int, k, candidates: np.ndarray, _) -> int:
        fresh = candidates[~visited[candidates]]
        won = atomic_or_claim(visited, fresh)
        mine = fresh[won]
        k.read_stream("work:visited", candidates, 1)
        k.instructions(2.0 * candidates.shape[0])
        k.write("work:frontier", int(mine.shape[0]), FRONTIER_ID_BYTES)
        levels[mine] = depth + 1
        frontiers[g] = mine
        return int(mine.shape[0])

    cluster.start("dist_bfs", source=int(source), partial_sort=partial_sort)
    while any(f.size for f in frontiers):
        edges, _ = cluster.step(
            f"level:{depth}", depth, expand, claim,
            kernels=("dist_expand", "dist_claim"), tally="claimed",
            frontier_size=int(sum(f.size for f in frontiers)),
        )
        edges_traversed += edges
        depth += 1

    return DistBFSResult(
        source=source,
        levels=levels,
        num_levels=int(levels.max()) + 1,
        edges_traversed=edges_traversed,
        **cluster.finish("dist_bfs", edges_traversed),
    )
