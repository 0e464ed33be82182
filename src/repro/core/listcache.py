"""Decoded-adjacency cache: amortize EFG decode across frontier visits.

The paper's trade (Sec. VI-B) is ~70 extra instructions per edge in
exchange for bandwidth, paid on *every* decode of a list.  But graph
traffic is not uniform: in power-law graphs a small set of hub lists is
visited by almost every traversal level and every concurrent query.
Decoding such a list once and keeping the decoded ids resident on chip
turns every later visit into a plain L2/shared-memory stream — no
payload traffic, no select/binsearch pipeline.

:class:`DecodedListCache` models that residency and stores no neighbour
arrays: the functional neighbours are exact whether or not a list was
cached.  Its state is two ``int64`` arrays, resident vertex ids and
entry bytes (4 B per edge, the int32 ids a GPU would keep), ordered
from least to most recently used.  LRU with byte-sized entries is a
*stack algorithm*: if a batch appends distinct, non-resident entries
and each insertion evicts from the LRU end until it fits, the resident
set afterwards is the longest most-recent suffix that fits the budget,
and every entry dropped from the sequence is one eviction.  So
:meth:`~DecodedListCache.probe` is one membership test (hits move to the
recent end in the order of their last lookup) and
:meth:`~DecodedListCache.put_many` one reversed cumulative sum, with
exactly the results of the one-entry-at-a-time loop.  ``put_many``
takes one expand's misses: distinct vertices, none resident, else
``ValueError``.

The cache is purely residency state plus counters; *cost* accounting
lives in :meth:`repro.traversal.backends.GraphBackend.expand`, which
charges hits via :meth:`repro.gpusim.kernel.KernelLaunch.cached_read`
and credits the compressed bytes + decode instructions a hit avoided.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["CacheStats", "DecodedListCache", "DECODED_ELEM_BYTES"]

#: Bytes per decoded neighbour id resident in the cache (GPU int32).
DECODED_ELEM_BYTES = 4


@dataclass
class CacheStats:
    """Counters accumulated by one :class:`DecodedListCache`.

    ``bytes_saved`` is the compressed payload + metadata traffic that
    hits avoided; ``instr_saved`` the decode instructions skipped.  Both
    are credited by the backend, which knows the format's geometry.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0
    hit_edges: int = 0
    miss_edges: int = 0
    bytes_saved: float = 0.0
    instr_saved: float = 0.0

    @property
    def lookups(self) -> int:
        """Total list lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Flat dict form for reports and engine counters."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "rejected": float(self.rejected),
            "hit_edges": float(self.hit_edges),
            "miss_edges": float(self.miss_edges),
            "bytes_saved": self.bytes_saved,
            "instr_saved": self.instr_saved,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> "CacheStats":
        """Frozen copy of the counters at this instant.

        The serve layer keeps the cache's cumulative counters alive
        across msbfs waves (cross-wave reuse is the point of a resident
        graph) and uses ``snapshot``/:meth:`since` pairs for per-wave
        accounting instead of :meth:`DecodedListCache.reset_stats`.
        """
        return replace(self)

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """Counter deltas accumulated after ``baseline`` was snapshot."""
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
            rejected=self.rejected - baseline.rejected,
            hit_edges=self.hit_edges - baseline.hit_edges,
            miss_edges=self.miss_edges - baseline.miss_edges,
            bytes_saved=self.bytes_saved - baseline.bytes_saved,
            instr_saved=self.instr_saved - baseline.instr_saved,
        )

    def publish(self, metrics, prefix: str = "listcache") -> None:
        """Export the final counters into a metrics registry as gauges.

        Gauges, not counters: these are end-of-run totals, and the
        per-expand increments already flow through the engine's
        ``listcache:*`` counters during the run.  ``metrics`` is a
        :class:`repro.obs.metrics.MetricsRegistry` (duck-typed to keep
        this module dependency-free).
        """
        for key, value in self.as_dict().items():
            metrics.set_gauge(f"{prefix}.{key}", value)


class DecodedListCache:
    """Byte-budgeted LRU residency of decoded neighbour lists, by vertex.

    Parameters
    ----------
    budget_bytes:
        Capacity modeling the on-chip residency the traversal can spare
        (a slice of L2 / persistent shared memory).  Entries are charged
        ``DECODED_ELEM_BYTES`` per neighbour.
    record_reuse:
        Additionally maintain an unbounded *ghost* LRU and log, per
        lookup, the byte reuse distance (bytes touched since this
        vertex's previous access) and the entry's size.  A re-access at
        distance ``d`` with size ``s`` would hit an LRU cache of budget
        ``B`` iff ``d + s <= B`` — the hit curve the what-if engine
        (:func:`repro.obs.whatif.whatif_cache`) prices alternative
        budgets from.  Off by default: the walk is O(stack depth) per
        lookup.
    """

    def __init__(self, budget_bytes: int, record_reuse: bool = False) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.record_reuse = bool(record_reuse)
        #: ``(reuse_distance_bytes, entry_bytes)`` per lookup; first
        #: touches log ``(inf, 0)`` (a miss at every budget).
        self.reuse_log: list[tuple[float, int]] = []
        #: ``(launch_index, reuse_log offset)`` per lookup batch — maps
        #: log spans back to the kernel launch that probed them.
        self._batches: list[tuple[int, int]] = []
        self.stats = CacheStats()
        #: The LRU stack: resident vertices and their entry bytes, least
        #: to most recently used.
        self._vertices = np.empty(0, dtype=np.int64)
        self._sizes = np.empty(0, dtype=np.int64)
        #: Ghost LRU: vertex -> entry bytes, unbounded, admission-free.
        self._ghost: OrderedDict[int, int] = OrderedDict()

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return int(self._vertices.shape[0])

    def __contains__(self, vertex: int) -> bool:
        return bool((self._vertices == int(vertex)).any())

    @property
    def used_bytes(self) -> int:
        """Bytes of budget currently occupied by resident lists."""
        return int(self._sizes.sum())

    def _find(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residency mask and stack position (meaningful where resident)."""
        stack = self._vertices
        if stack.size == 0:
            return np.zeros(vertices.shape, bool), np.zeros_like(vertices)
        order = np.argsort(stack)
        idx = np.searchsorted(stack, vertices, sorter=order)
        pos = order[np.minimum(idx, stack.size - 1)]
        return stack[pos] == vertices, pos

    # -- lookup -----------------------------------------------------------

    def probe(self, vertices: np.ndarray) -> np.ndarray:
        """Hit mask for a batch of vertex ids (counts stats, touches LRU).

        Returns a boolean array aligned with ``vertices``; hit entries
        move to the most-recent end in the order of their last lookup.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if self.record_reuse:
            for v in vertices.tolist():
                self._log_reuse(v)
        mask, pos = self._find(vertices)
        hit_pos = pos[mask]
        if hit_pos.size:
            # Distinct hit positions, ordered by their last lookup.
            rev = hit_pos[::-1]
            _, first = np.unique(rev, return_index=True)
            moved = rev[np.sort(first)[::-1]]
            stay = np.ones(self._vertices.shape[0], dtype=bool)
            stay[moved] = False
            keep = np.concatenate([np.flatnonzero(stay), moved])
            self._vertices = self._vertices[keep]
            self._sizes = self._sizes[keep]
        self.stats.hits += int(hit_pos.shape[0])
        self.stats.misses += int(vertices.shape[0] - hit_pos.shape[0])
        return mask

    def _log_reuse(self, vertex: int) -> None:
        """Log one lookup's ghost-LRU byte reuse distance."""
        ghost = self._ghost
        size = ghost.get(vertex)
        if size is None:
            self.reuse_log.append((float("inf"), 0))
            return
        dist = 0
        for other in reversed(ghost):
            if other == vertex:
                break
            dist += ghost[other]
        self.reuse_log.append((float(dist), size))
        ghost.move_to_end(vertex)

    def begin_batch(self, launch_index: int) -> None:
        """Mark the start of one kernel launch's lookup batch.

        The backend calls this before each cache-aware expand so the
        what-if engine can attribute modeled hit deltas to the specific
        launch records they would have changed (a kernel's time is a
        ``max`` over resource terms — adjustments must land per record,
        not on the run aggregate).
        """
        self._batches.append((int(launch_index), len(self.reuse_log)))

    def modeled_hit_edges(self, budget_bytes: int) -> float:
        """Edges an LRU cache of ``budget_bytes`` would have served.

        Reads the recorded reuse-distance log: a lookup hits iff its
        reuse footprint (distance + own size) fits the budget.  A model
        of the cache, not a replay of it — the what-if engine differences
        two evaluations so the model bias largely cancels.
        """
        edges = 0
        for dist, size in self.reuse_log:
            if size and dist + size <= budget_bytes:
                edges += size // DECODED_ELEM_BYTES
        return float(edges)

    def hit_curve(self, budgets) -> dict[int, float]:
        """Modeled hit edges at each candidate budget, smallest first.

        The autotuner's shortlist input: one
        :meth:`modeled_hit_edges` evaluation per candidate, keyed by
        the byte budget — monotone non-decreasing in the budget, since
        every reuse footprint that fits a budget fits every larger one.
        """
        return {
            int(b): self.modeled_hit_edges(int(b))
            for b in sorted(int(b) for b in budgets)
        }

    def batch_hit_edges(self, budget_bytes: int) -> dict[int, int]:
        """Modeled hit edges per recorded launch index at ``budget_bytes``."""
        out: dict[int, int] = {}
        ends = [start for _, start in self._batches[1:]]
        ends.append(len(self.reuse_log))
        for (launch, start), end in zip(self._batches, ends):
            edges = 0
            for dist, size in self.reuse_log[start:end]:
                if size and dist + size <= budget_bytes:
                    edges += size // DECODED_ELEM_BYTES
            out[launch] = out.get(launch, 0) + edges
        return out

    def get_many(self, vertices: np.ndarray) -> np.ndarray:
        """Entry bytes of vertices known to be resident (post-probe)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        mask, pos = self._find(vertices)
        if not mask.all():
            raise KeyError(f"not resident: {vertices[~mask][:8].tolist()}")
        return self._sizes[pos]

    # -- insertion --------------------------------------------------------

    def put_many(self, vertices: np.ndarray, num_edges: np.ndarray) -> None:
        """Record a batch of freshly decoded lists (one expand's misses).

        ``vertices`` must be distinct and none may be resident; each
        entry is charged ``num_edges * DECODED_ELEM_BYTES``.  Lists
        larger than the whole budget are rejected (caching one would
        flush everything for a single-visit win); the rest are appended
        most-recent-last and the stack keeps its longest most-recent
        suffix that fits the budget — exactly what inserting them one by
        one, evicting from the LRU end, would leave.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        sizes = np.asarray(num_edges, dtype=np.int64) * DECODED_ELEM_BYTES
        ordered = np.sort(vertices)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("put_many vertices must be distinct")
        if self._find(vertices)[0].any():
            raise ValueError("put_many vertices must not be resident")
        if self.record_reuse:
            # The ghost admits everything (it models arbitrary budgets,
            # including ones big enough for lists this budget rejects).
            ghost = self._ghost
            for v, nbytes in zip(vertices.tolist(), sizes.tolist()):
                ghost.pop(v, None)
                ghost[v] = nbytes
        fits = sizes <= self.budget_bytes
        self.stats.rejected += int(fits.shape[0] - np.count_nonzero(fits))
        stack = np.concatenate([self._vertices, vertices[fits]])
        stack_sizes = np.concatenate([self._sizes, sizes[fits]])
        tail_bytes = np.cumsum(stack_sizes[::-1])
        cut = stack.shape[0] - int(
            np.searchsorted(tail_bytes, self.budget_bytes, side="right")
        )
        self.stats.evictions += cut
        self._vertices = stack[cut:]
        self._sizes = stack_sizes[cut:]

    # -- lifecycle --------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (budget and stats objects survive)."""
        self._vertices = self._vertices[:0]
        self._sizes = self._sizes[:0]
        self._ghost.clear()

    def reset_stats(self) -> None:
        """Start a fresh counter epoch (e.g. per benchmark run)."""
        self.stats = CacheStats()
        self.reuse_log = []
        self._batches = []
