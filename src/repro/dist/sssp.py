"""Distributed SSSP: frontier relaxation with a min-combining exchange.

Bellman-Ford over the 1-D partition, one ``ShardedCluster.step`` per
iteration: every GPU partially sorts its owned frontier shard (Sec.
VI-E) and relaxes its edges (uncompressed float32 weights, as in the
single-GPU driver — weights are not compressed), producing ``(vertex,
candidate distance)`` pairs for arbitrary owners.  Each exchanged id
carries one 4-byte distance, and duplicates met anywhere along the way —
in the pack kernel, between senders, at butterfly hops — fold with
``min``.  Owners keep the candidates that beat their stored distance;
those vertices form the next frontier.

Because min-folding is exact (no floating-point reassociation), the
resulting distances are bit-identical to single-GPU
:func:`repro.traversal.sssp.sssp` for every codec and schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.cluster import DistResult, ShardedCluster
from repro.dist.wire import FRONTIER_ID_BYTES
from repro.formats.weights import check_weights
from repro.primitives.sort import sort_frontier_kernel

__all__ = ["DistSSSPResult", "distributed_sssp"]

#: Wire width of one candidate distance (float32, like the weights).
DISTANCE_VALUE_BYTES = 4


@dataclass(frozen=True)
class DistSSSPResult(DistResult):
    """Outcome of one distributed SSSP run."""

    EDGES = "edges_relaxed"

    source: int
    distances: np.ndarray
    iterations: int
    edges_relaxed: int


def _shard_weight_slices(
    cluster: ShardedCluster, weights: np.ndarray
) -> list[np.ndarray]:
    """Per-shard weight arrays indexed by shard-local edge slot.

    Shard ``g`` stores the contiguous global CSR slot range
    ``[vlist[lo], vlist[hi])`` of its owned rows, and its local slot 0
    is global slot ``vlist[lo]`` — so the slice lines up with
    ``backend.edge_slots`` of global frontier ids.
    """
    vlist = cluster.graph.vlist
    slices = []
    for g in range(cluster.num_gpus):
        lo, hi = cluster.partition.bounds(g)
        slices.append(weights[vlist[lo] : vlist[hi]])
    return slices


def distributed_sssp(
    cluster: ShardedCluster,
    source: int,
    weights: np.ndarray,
    max_iterations: int | None = None,
    partial_sort: bool = True,
    sort_fraction: float = 0.65,
) -> DistSSSPResult:
    """Shortest paths from ``source`` across the cluster's shards.

    ``weights`` is one non-negative float per arc in global CSR slot
    order.  The cluster must have been built with ``with_weights=True``
    so every shard's memory plan includes its weight slice.
    """
    nv = cluster.num_nodes
    frontiers = cluster.seed(source)
    weights = check_weights(weights, cluster.graph.num_edges, "sssp")
    for b in cluster.backends:
        if "weights" not in b.engine.memory.plan():
            raise RuntimeError(
                "cluster built without weights; use build(..., with_weights=True)"
            )
    shard_weights = _shard_weight_slices(cluster, weights)
    dist = np.full(nv, np.inf, dtype=np.float64)
    dist[source] = 0.0
    edges_relaxed = 0
    iterations = 0
    cap = max_iterations if max_iterations is not None else nv

    def relax(g: int):
        frontier = frontiers[g]
        if not frontier.size:
            return None
        backend = cluster.backends[g]
        if partial_sort:
            frontier = sort_frontier_kernel(
                backend.engine, "dist_sort", frontier, nv, sort_fraction,
                FRONTIER_ID_BYTES,
            )
        with backend.engine.launch("dist_relax") as k:
            nbrs, seg = backend.expand(frontier, k)
            slots = backend.edge_slots(frontier)
            cand = dist[frontier[seg]] + shard_weights[g][slots]
            k.read_stream("weights", slots, 4)
            k.read_stream("work:labels", nbrs, 4)
            k.instructions(4.0 * nbrs.shape[0])
        return nbrs, cand

    def update(g: int, k, ids: np.ndarray, cand: np.ndarray) -> int:
        better = cand < dist[ids]
        mine = ids[better]
        dist[mine] = cand[better]
        k.read_stream("work:labels", ids, 4)
        k.atomic("work:visited", int(mine.shape[0]), 1)
        k.instructions(2.0 * ids.shape[0])
        k.write("work:frontier", int(mine.shape[0]), FRONTIER_ID_BYTES)
        frontiers[g] = mine
        return int(mine.shape[0])

    cluster.start("dist_sssp", source=int(source))
    while any(f.size for f in frontiers) and iterations < cap:
        edges, _ = cluster.step(
            f"iteration:{iterations}", iterations, relax, update,
            kernels=("dist_relax", "dist_update"), tally="improved",
            combine="min",
            frontier_size=int(sum(f.size for f in frontiers)),
        )
        edges_relaxed += edges
        iterations += 1

    return DistSSSPResult(
        source=source,
        distances=dist,
        iterations=iterations,
        edges_relaxed=edges_relaxed,
        **cluster.finish("dist_sssp", edges_relaxed),
    )
