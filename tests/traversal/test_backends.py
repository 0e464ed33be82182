"""Tests for the format backends' expansion and accounting."""

import numpy as np
import pytest

from repro.core.efg import efg_encode
from repro.core.listcache import DecodedListCache
from repro.formats.cgr import cgr_encode
from repro.formats.csr import CSRGraph
from repro.formats.ligra_plus import ligra_encode
from repro.gpusim.kernel import KernelLaunch
from repro.traversal.backends import (
    CGRBackend,
    CSRBackend,
    EFGBackend,
    LigraBackend,
)


def _backends(graph, device):
    return [
        CSRBackend(CSRGraph.from_graph(graph), device),
        EFGBackend(efg_encode(graph), device),
        CGRBackend(cgr_encode(graph), device),
        LigraBackend(ligra_encode(graph)),
    ]


class TestExpansion:
    def test_all_backends_agree(self, small_graph, scaled_device, rng):
        frontier = rng.integers(0, small_graph.num_nodes, size=30)
        results = []
        for backend in _backends(small_graph, scaled_device):
            with backend.engine.launch("t") as k:
                nbrs, seg = backend.expand(frontier, k)
            results.append((nbrs, seg))
        base_n, base_s = results[0]
        for nbrs, seg in results[1:]:
            assert np.array_equal(nbrs, base_n)
            assert np.array_equal(seg, base_s)

    def test_expansion_is_frontier_ordered(self, small_graph, scaled_device):
        backend = EFGBackend(efg_encode(small_graph), scaled_device)
        frontier = np.array([9, 3, 9])
        with backend.engine.launch("t") as k:
            nbrs, seg = backend.expand(frontier, k)
        expect = np.concatenate(
            [small_graph.neighbours(9), small_graph.neighbours(3),
             small_graph.neighbours(9)]
        )
        assert np.array_equal(nbrs, expect)
        assert seg.max() == 2 if seg.size else True

    def test_expand_charges_traffic(self, small_graph, scaled_device):
        for backend in _backends(small_graph, scaled_device):
            with backend.engine.launch("t") as k:
                backend.expand(np.arange(small_graph.num_nodes), k)
            total = k.cost.device_bytes + k.cost.host_bytes
            assert total > 0, backend.format_name
            assert k.cost.instructions > 0


class TestCachedExpansion:
    """The cache prices residency only: functional output is unchanged."""

    def _rounds(self, graph, rng):
        # Overlapping distinct frontiers, so later rounds hit lists the
        # tight budget below has (partly) evicted again.
        return [rng.choice(graph.num_nodes, size=40, replace=False)
                for _ in range(12)]

    def test_cached_expand_matches_uncached(self, small_graph, scaled_device,
                                            rng):
        rounds = self._rounds(small_graph, rng)
        plain = _backends(small_graph, scaled_device)
        cached = _backends(small_graph, scaled_device)
        for ref, backend in zip(plain, cached):
            backend.attach_cache(DecodedListCache(budget_bytes=256))
            for frontier in rounds:
                with ref.engine.launch("t") as k:
                    want = ref.expand(frontier, k)
                with backend.engine.launch("t") as k:
                    got = backend.expand(frontier, k)
                assert np.array_equal(got[0], want[0]), backend.format_name
                assert np.array_equal(got[1], want[1]), backend.format_name
            stats = backend.cache.stats
            assert stats.evictions > 0 and stats.hits > 0, backend.format_name

    def test_decodes_count_misses_and_edges_split(self, small_graph,
                                                  scaled_device, rng):
        rounds = self._rounds(small_graph, rng)
        for backend in _backends(small_graph, scaled_device):
            backend.attach_cache(DecodedListCache(budget_bytes=256))
            expanded = 0
            for frontier in rounds:
                with backend.engine.launch("t") as k:
                    nbrs, _ = backend.expand(frontier, k)
                expanded += nbrs.shape[0]
            stats = backend.cache.stats
            assert backend.lists_decoded == stats.misses, backend.format_name
            assert stats.hit_edges + stats.miss_edges == expanded


class TestTrafficScalesWithCompression:
    def test_efg_moves_fewer_bytes_than_csr(self, small_graph, scaled_device):
        frontier = np.arange(small_graph.num_nodes)
        csr_b = CSRBackend(CSRGraph.from_graph(small_graph), scaled_device)
        efg_b = EFGBackend(efg_encode(small_graph), scaled_device)
        with csr_b.engine.launch("t") as k_csr:
            csr_b.expand(frontier, k_csr)
        with efg_b.engine.launch("t") as k_efg:
            efg_b.expand(frontier, k_efg)
        csr_edges = k_csr.cost.breakdown["elist"]
        efg_data = k_efg.cost.breakdown["efg_data"]
        assert efg_data < csr_edges

    def test_cgr_floor_reflects_hub_lists(self, scaled_device, rng):
        # A frontier containing a huge list must trigger the critical
        # path floor.
        from repro.formats.graph import Graph

        hub = np.unique(rng.integers(0, 10**6, size=5000))
        g = Graph.from_adjacency([hub, [3], [4]] + [[] for _ in range(10**6 - 3)])
        backend = CGRBackend(cgr_encode(g), scaled_device)
        with backend.engine.launch("t") as k_small:
            backend.expand(np.array([1, 2]), k_small)
        with backend.engine.launch("t") as k_hub:
            backend.expand(np.array([0, 1]), k_hub)
        assert k_hub.cost.floor_seconds > k_small.cost.floor_seconds


class TestEdgeSlots:
    def test_slots_are_csr_positions(self, small_graph, scaled_device):
        backend = EFGBackend(efg_encode(small_graph), scaled_device)
        frontier = np.array([2, 5])
        slots = backend.edge_slots(frontier)
        expect = np.concatenate(
            [
                np.arange(small_graph.vlist[2], small_graph.vlist[3]),
                np.arange(small_graph.vlist[5], small_graph.vlist[6]),
            ]
        )
        assert np.array_equal(slots, expect)

    def test_slots_identical_across_formats(self, small_graph, scaled_device):
        frontier = np.array([0, 7, 3])
        slot_sets = [
            b.edge_slots(frontier) for b in _backends(small_graph, scaled_device)
        ]
        for s in slot_sets[1:]:
            assert np.array_equal(s, slot_sets[0])


class TestMemoryRegistration:
    def test_weight_bytes_registered(self, small_graph, scaled_device):
        backend = CSRBackend(
            CSRGraph.from_graph(small_graph), scaled_device, weight_bytes=1234
        )
        plan = backend.engine.memory.plan()
        assert plan["weights"].nbytes == 1234

    def test_format_names(self, small_graph, scaled_device):
        names = [b.format_name for b in _backends(small_graph, scaled_device)]
        assert names == ["csr", "efg", "cgr", "ligra+"]

    def test_fits_in_memory_flag(self, small_graph):
        from repro.gpusim.device import TITAN_XP

        big = CSRBackend(CSRGraph.from_graph(small_graph), TITAN_XP)
        assert big.graph_fits_in_memory()
        tiny_dev = TITAN_XP.scaled_capacity(16)
        spilled = CSRBackend(CSRGraph.from_graph(small_graph), tiny_dev)
        assert not spilled.graph_fits_in_memory()
