"""K-core decomposition by iterative peeling.

Another member of the frontier-idiom family (Sec. III-B): repeatedly
remove all vertices of degree < k; the k-core number of a vertex is
the largest k for which it survives.  The peeling loop is
frontier-shaped — each round expands the just-removed vertices to
decrement their neighbours — so it runs on the same backends with the
same decode costs as BFS.

Validated against networkx's ``core_number`` in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traversal.backends import GraphBackend
from repro.traversal.result import Timed

__all__ = ["KCoreResult", "kcore_decomposition"]


@dataclass(frozen=True)
class KCoreResult(Timed):
    """Outcome of a k-core decomposition."""

    core_numbers: np.ndarray
    max_core: int
    peel_rounds: int
    edges_traversed: int
    sim_seconds: float

    def k_core_members(self, k: int) -> np.ndarray:
        """Vertices whose core number is at least ``k``."""
        return np.flatnonzero(self.core_numbers >= k)


def kcore_decomposition(backend: GraphBackend) -> KCoreResult:
    """Core number per vertex of the (undirected) graph behind ``backend``.

    The backend must wrap a symmetrised graph.  Classic peeling: for
    k = 1, 2, ... repeatedly remove vertices whose *remaining* degree is
    below k, charging one expansion per peel round.
    """
    nv = backend.num_nodes
    engine = backend.engine
    engine.reset_timeline()

    remaining_deg = backend.degrees.astype(np.int64).copy()
    core = np.zeros(nv, dtype=np.int64)
    alive = np.ones(nv, dtype=bool)
    edges_traversed = 0
    peel_rounds = 0

    k = 1
    while alive.any():
        # Peel everything below k to a fixpoint before raising k.
        while True:
            frontier = np.flatnonzero(alive & (remaining_deg < k))
            if frontier.size == 0:
                break
            peel_rounds += 1
            core[frontier] = k - 1
            alive[frontier] = False
            with engine.launch("kcore_peel") as k_:
                nbrs, _ = backend.expand(frontier, k_)
                k_.read_stream("work:labels", nbrs, 4)
                k_.instructions(4.0 * nbrs.shape[0])
            edges_traversed += int(nbrs.shape[0])
            live_nbrs = nbrs[alive[nbrs]]
            if live_nbrs.size:
                np.subtract.at(remaining_deg, live_nbrs, 1)
        k += 1

    return KCoreResult(
        core_numbers=core,
        max_core=int(core.max(initial=0)),
        peel_rounds=peel_rounds,
        edges_traversed=edges_traversed,
        sim_seconds=engine.elapsed_seconds,
    )
