"""Connected components via frontier expansion (Sec. I / III-B).

The paper notes that "other analytics such as betweenness centrality
and connected components can also be implemented using a similar
approach".  This is the BFS-style implementation: repeated traversals
claim components (for undirected / symmetrised graphs), with the same
per-format decode costs charged through the backend.

For directed graphs the result is *weakly* connected components and
the caller must pass the symmetrised graph's backend (the standard
formulation; validated against scipy's implementation in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.primitives.compact import atomic_or_claim
from repro.traversal.backends import GraphBackend
from repro.traversal.result import Timed

__all__ = ["ComponentsResult", "connected_components", "connected_components_lp"]


@dataclass(frozen=True)
class ComponentsResult(Timed):
    """Outcome of a connected-components run."""

    labels: np.ndarray
    num_components: int
    edges_traversed: int
    sim_seconds: float

    def component_sizes(self) -> np.ndarray:
        """Vertex count per component label."""
        return np.bincount(self.labels, minlength=self.num_components)


def connected_components_lp(
    backend: GraphBackend, max_iterations: int | None = None
) -> ComponentsResult:
    """Label-propagation connected components (the GPU-native variant).

    GPU frameworks (Gunrock, cuGraph) favour label propagation /
    Shiloach-Vishkin over repeated BFS: every vertex repeatedly adopts
    the minimum label among itself and its neighbours until a fixpoint.
    Each iteration is one full-graph expansion (all vertices active,
    like PageRank), so compressed formats pay their decode cost every
    round — which is exactly why the comparison with the BFS-based
    variant below is interesting on EFG.

    Labels are normalised to dense 0..k-1 ids on completion.
    """
    nv = backend.num_nodes
    engine = backend.engine
    engine.reset_timeline()
    all_vertices = np.arange(nv, dtype=np.int64)
    labels = all_vertices.copy()
    edges_traversed = 0
    cap = max_iterations if max_iterations is not None else nv
    cached: tuple[np.ndarray, np.ndarray] | None = None

    for _ in range(cap):
        with engine.launch("cc_lp_iter") as k:
            if cached is None:
                nbrs, seg = backend.expand(all_vertices, k)
                cached = (nbrs, seg)
            else:
                nbrs, seg = cached
                backend.charge_expand(all_vertices, nbrs, k)
            k.read_stream("work:labels", nbrs, 4)
            k.instructions(4.0 * nbrs.shape[0])
        edges_traversed += int(nbrs.shape[0])
        best = labels.copy()
        np.minimum.at(best, seg, labels[nbrs])  # pull min over neighbours
        np.minimum.at(best, nbrs, labels[seg])  # and push (symmetric hook)
        with engine.launch("cc_lp_jump") as k:
            # Pointer jumping: compress label chains.
            for _ in range(2):
                best = best[best]
            k.atomic("work:labels", nv, 4)
        if np.array_equal(best, labels):
            break
        labels = best

    # Normalise to dense component ids.
    unique, dense = np.unique(labels, return_inverse=True)
    return ComponentsResult(
        labels=dense.astype(np.int64),
        num_components=int(unique.shape[0]),
        edges_traversed=edges_traversed,
        sim_seconds=engine.elapsed_seconds,
    )


def connected_components(backend: GraphBackend) -> ComponentsResult:
    """Label connected components by repeated frontier expansion.

    Each unvisited seed starts a BFS that claims its whole component;
    isolated vertices become singleton components.  All expansions are
    charged on the backend's engine like any other traversal.
    """
    nv = backend.num_nodes
    engine = backend.engine
    engine.reset_timeline()

    labels = np.full(nv, -1, dtype=np.int64)
    visited = np.zeros(nv, dtype=bool)
    edges_traversed = 0
    component = 0

    order = np.argsort(-backend.degrees, kind="stable")  # big seeds first
    for seed in order:
        if visited[seed]:
            continue
        visited[seed] = True
        labels[seed] = component
        frontier = np.array([seed], dtype=np.int64)
        while frontier.size:
            with engine.launch("cc_expand") as k:
                nbrs, _ = backend.expand(frontier, k)
                k.read_stream("work:visited", nbrs, 1)
            edges_traversed += int(nbrs.shape[0])
            with engine.launch("cc_filter") as k:
                fresh = nbrs[~visited[nbrs]]
                won = atomic_or_claim(visited, fresh)
                frontier = fresh[won]
                k.instructions(2.0 * fresh.shape[0])
                k.write("work:frontier", int(frontier.shape[0]), 4)
            labels[frontier] = component
        component += 1

    return ComponentsResult(
        labels=labels,
        num_components=component,
        edges_traversed=edges_traversed,
        sim_seconds=engine.elapsed_seconds,
    )
