"""Tests for the byte-budgeted decoded-list cache."""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.listcache import DECODED_ELEM_BYTES, CacheStats, DecodedListCache


def _put(cache, vertices, num_edges):
    cache.put_many(np.array(vertices, dtype=np.int64),
                   np.array(num_edges, dtype=np.int64))


class TestValidation:
    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            DecodedListCache(budget_bytes=0)


class TestPutAndBudget:
    def test_put_and_probe(self):
        cache = DecodedListCache(budget_bytes=1024)
        _put(cache, [3], [5])
        assert 3 in cache
        assert 4 not in cache
        mask = cache.probe(np.array([3, 4]))
        assert mask.tolist() == [True, False]
        assert cache.get_many(np.array([3])).tolist() == [5 * DECODED_ELEM_BYTES]

    def test_budget_respected(self):
        cache = DecodedListCache(budget_bytes=10 * DECODED_ELEM_BYTES)
        _put(cache, range(5), [4] * 5)
        assert cache.used_bytes <= cache.budget_bytes
        assert cache._vertices.tolist() == [3, 4]  # two 4-element lists fit
        assert cache.stats.evictions == 3

    def test_oversized_list_rejected(self):
        cache = DecodedListCache(budget_bytes=8 * DECODED_ELEM_BYTES)
        _put(cache, [0], [4])
        _put(cache, [1], [9])
        assert cache.stats.rejected == 1
        assert cache._vertices.tolist() == [0]  # untouched by the rejection

    def test_put_many_rejects_resident_vertex(self):
        cache = DecodedListCache(budget_bytes=1024)
        _put(cache, [7], [100])
        with pytest.raises(ValueError, match="resident"):
            _put(cache, [7], [10])
        assert cache.used_bytes == 100 * DECODED_ELEM_BYTES
        assert len(cache) == 1

    def test_put_many_rejects_repeated_vertex(self):
        cache = DecodedListCache(budget_bytes=1024)
        with pytest.raises(ValueError, match="distinct"):
            _put(cache, [2, 5, 2], [1, 1, 1])
        assert len(cache) == 0

    def test_get_many_rejects_absent_vertex(self):
        cache = DecodedListCache(budget_bytes=1024)
        _put(cache, [1], [3])
        with pytest.raises(KeyError):
            cache.get_many(np.array([1, 2]))


class TestEviction:
    def test_lru_evicts_least_recent(self):
        cache = DecodedListCache(budget_bytes=8 * DECODED_ELEM_BYTES)
        _put(cache, [0, 1], [4, 4])
        cache.probe(np.array([0]))  # touch 0 -> 1 is now least recent
        _put(cache, [2], [4])
        assert cache._vertices.tolist() == [0, 2]
        assert cache.stats.evictions == 1

    def test_hits_move_in_order_of_last_lookup(self):
        cache = DecodedListCache(budget_bytes=1024)
        _put(cache, [0, 1, 2, 3], [1, 1, 1, 1])
        cache.probe(np.array([2, 0, 9, 2, 1]))
        assert cache._vertices.tolist() == [3, 0, 2, 1]

    def test_batch_entries_evict_each_other(self):
        # Later lists of one batch push out earlier ones, and each
        # dropped entry — zero-byte ones included — is one eviction.
        cache = DecodedListCache(budget_bytes=8 * DECODED_ELEM_BYTES)
        _put(cache, [0, 1, 2, 3], [4, 0, 6, 4])
        assert cache._vertices.tolist() == [3]
        assert cache.stats.evictions == 3


class TestEdgeCases:
    def test_reput_resident_vertex_under_tight_budget(self):
        # A resident vertex cannot be installed again — not even in a
        # batch that would otherwise evict it — and the failed call
        # leaves residency, bytes and counters untouched.
        cache = DecodedListCache(budget_bytes=8 * DECODED_ELEM_BYTES)
        _put(cache, [0, 1], [4, 4])
        with pytest.raises(ValueError):
            _put(cache, [2, 0], [8, 8])
        assert cache._vertices.tolist() == [0, 1]
        assert cache.used_bytes == 8 * DECODED_ELEM_BYTES
        assert cache.stats.evictions == 0

    def test_zero_degree_entries_are_resident(self):
        cache = DecodedListCache(budget_bytes=4 * DECODED_ELEM_BYTES)
        _put(cache, [5, 6], [0, 4])
        assert cache._vertices.tolist() == [5, 6]
        assert cache.probe(np.array([5])).tolist() == [True]
        _put(cache, [7], [4])
        assert cache._vertices.tolist() == [5, 7]

    def test_used_bytes_never_exceeds_budget(self, rng):
        # Invariant lock: arbitrary interleaving of puts and probes keeps
        # the occupied bytes within the budget.
        cache = DecodedListCache(budget_bytes=25 * DECODED_ELEM_BYTES)
        for _ in range(300):
            batch = rng.permutation(12)[: int(rng.integers(0, 4))]
            fresh = batch[~np.isin(batch, cache._vertices)]
            _put(cache, fresh, rng.integers(0, 30, size=fresh.size))
            cache.probe(rng.integers(0, 12, size=3))
            assert cache.used_bytes <= cache.budget_bytes
            assert cache.used_bytes == int(cache.get_many(cache._vertices).sum())


class TestStats:
    def test_hit_rate(self):
        cache = DecodedListCache(budget_bytes=1024)
        _put(cache, [0], [3])
        cache.probe(np.array([0, 1, 2, 0]))
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2
        assert cache.stats.lookups == 4
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_empty_hit_rate_is_zero(self):
        assert DecodedListCache(budget_bytes=64).stats.hit_rate == 0.0

    def test_as_dict_keys(self):
        d = DecodedListCache(budget_bytes=64).stats.as_dict()
        for key in ("hits", "misses", "evictions", "bytes_saved",
                    "instr_saved", "hit_rate"):
            assert key in d

    def test_reset_stats_keeps_entries(self):
        cache = DecodedListCache(budget_bytes=1024)
        _put(cache, [0], [3])
        cache.probe(np.array([0]))
        cache.reset_stats()
        assert cache.stats.lookups == 0
        assert 0 in cache

    def test_clear_drops_entries(self):
        cache = DecodedListCache(budget_bytes=1024)
        _put(cache, [0], [3])
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0


class _SequentialLRU:
    """Oracle: the one-entry-at-a-time ``OrderedDict`` LRU the vectorized
    cache must reproduce (vertex -> entry bytes, least recent first)."""

    def __init__(self, budget_bytes, record_reuse):
        self.budget_bytes = budget_bytes
        self.record_reuse = record_reuse
        self.stats = CacheStats()
        self.entries = OrderedDict()
        self.ghost = OrderedDict()
        self.reuse_log = []
        self.batches = []
        self.used_bytes = 0

    def probe(self, vertices):
        mask = []
        for v in vertices:
            hit = v in self.entries
            mask.append(hit)
            if hit:
                self.entries.move_to_end(v)
            if self.record_reuse:
                self._log_reuse(v)
        self.stats.hits += sum(mask)
        self.stats.misses += len(mask) - sum(mask)
        return mask

    def _log_reuse(self, v):
        size = self.ghost.get(v)
        if size is None:
            self.reuse_log.append((float("inf"), 0))
            return
        dist = 0
        for other in reversed(self.ghost):
            if other == v:
                break
            dist += self.ghost[other]
        self.reuse_log.append((float(dist), size))
        self.ghost.move_to_end(v)

    def put(self, v, num_edges):
        nbytes = num_edges * DECODED_ELEM_BYTES
        if self.record_reuse:
            self.ghost.pop(v, None)
            self.ghost[v] = nbytes
        if nbytes > self.budget_bytes:
            self.stats.rejected += 1
            return
        while self.used_bytes + nbytes > self.budget_bytes and self.entries:
            _, victim = self.entries.popitem(last=False)
            self.used_bytes -= victim
            self.stats.evictions += 1
        self.entries[v] = nbytes
        self.used_bytes += nbytes

    def batch_hit_edges(self, budget_bytes):
        out = {}
        ends = [start for _, start in self.batches[1:]] + [len(self.reuse_log)]
        for (launch, start), end in zip(self.batches, ends):
            edges = sum(
                size // DECODED_ELEM_BYTES
                for dist, size in self.reuse_log[start:end]
                if size and dist + size <= budget_bytes
            )
            out[launch] = out.get(launch, 0) + edges
        return out


class TestDifferential:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_sequential_lru(self, data):
        budget = data.draw(st.integers(1, 400), label="budget")
        record = data.draw(st.booleans(), label="record_reuse")
        nv = data.draw(st.integers(1, 24), label="num_vertices")
        degrees = data.draw(
            st.lists(st.integers(0, 40), min_size=nv, max_size=nv),
            label="degrees",
        )
        batches = data.draw(
            st.lists(st.lists(st.integers(0, nv - 1), max_size=16),
                     max_size=12),
            label="probe_batches",
        )
        cache = DecodedListCache(budget, record_reuse=record)
        oracle = _SequentialLRU(budget, record)
        for launch, batch in enumerate(batches):
            if record:
                cache.begin_batch(launch)
                oracle.batches.append((launch, len(oracle.reuse_log)))
            mask = cache.probe(np.array(batch, dtype=np.int64))
            assert mask.tolist() == oracle.probe(batch)
            # One expand's misses: distinct, in first-lookup order.
            misses = list(dict.fromkeys(
                v for v, hit in zip(batch, mask) if not hit))
            _put(cache, misses, [degrees[v] for v in misses])
            for v in misses:
                oracle.put(v, degrees[v])
            assert cache.stats.as_dict() == oracle.stats.as_dict()
            assert cache._vertices.tolist() == list(oracle.entries)
            assert cache.used_bytes == oracle.used_bytes
            assert cache.reuse_log == oracle.reuse_log
        for b in (1, budget, 4 * budget):
            assert cache.batch_hit_edges(b) == oracle.batch_hit_edges(b)

    @given(budget=st.integers(1, 400),
           vertices=st.lists(st.integers(0, 20), min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_put_many_contract(self, budget, vertices):
        cache = DecodedListCache(budget)
        distinct = list(dict.fromkeys(vertices))
        if len(distinct) < len(vertices):
            with pytest.raises(ValueError):
                _put(cache, vertices, [0] * len(vertices))
        _put(cache, distinct, [0] * len(distinct))
        with pytest.raises(ValueError):
            _put(cache, distinct[-1:], [0])
