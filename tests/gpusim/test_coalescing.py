"""Focused tests for the windowed stream-coalescing model."""

import numpy as np
import pytest

from repro.gpusim.cost import COALESCE_WINDOW, stream_transfer_bytes


class TestWindowSemantics:
    def test_window_one_is_adjacent_only(self):
        # Alternating between two sectors: window=1 merges nothing,
        # a larger window merges everything after the first two.
        ids = np.tile([0, 100], 50)
        w1 = stream_transfer_bytes(ids, 4, 32, window=1)
        w4 = stream_transfer_bytes(ids, 4, 32, window=4)
        assert w1 == 100 * 32
        assert w4 == 2 * 32

    def test_reuse_beyond_window_misses(self):
        # Revisit after more than `window` distinct sectors: a miss.
        stride = 32 // 4
        window = 4
        ids = np.concatenate(
            [np.arange(0, (window + 2) * stride, stride), [0]]
        )
        nbytes = stream_transfer_bytes(ids, 4, 32, window=window)
        assert nbytes == (window + 2 + 1) * 32

    def test_reuse_within_window_hits(self):
        stride = 32 // 4
        ids = np.array([0, stride, 2 * stride, 0])
        nbytes = stream_transfer_bytes(ids, 4, 32, window=8)
        assert nbytes == 3 * 32

    def test_default_window_constant(self):
        assert COALESCE_WINDOW == 32

    def test_bad_window(self):
        with pytest.raises(ValueError):
            stream_transfer_bytes(np.array([1]), 4, 32, window=0)


class TestOrderSensitivity:
    def test_sorted_stream_cheaper(self, rng):
        ids = rng.integers(0, 5000, size=4000)
        shuffled = stream_transfer_bytes(ids, 4, 32)
        ordered = stream_transfer_bytes(np.sort(ids), 4, 32)
        assert ordered < shuffled

    def test_partial_sort_between(self, rng):
        # A 65%-bit partial sort lands between random and fully sorted.
        from repro.primitives.sort import partial_sort_frontier

        ids = rng.permutation(1 << 16)[:6000]
        full = stream_transfer_bytes(np.sort(ids), 1, 32)
        partial = stream_transfer_bytes(
            partial_sort_frontier(ids, 1 << 16), 1, 32
        )
        random_cost = stream_transfer_bytes(ids, 1, 32)
        assert full <= partial <= random_cost

    def test_dense_sequential_is_elem_bytes(self):
        ids = np.arange(8000)
        nbytes = stream_transfer_bytes(ids, 4, 32)
        assert nbytes == 8000 * 4  # perfect coalescing


def _reference_transfer_bytes(ids, elem_bytes, unit_bytes, window=COALESCE_WINDOW):
    """The model written out plainly: one int64 pass per look-back."""
    units = (np.asarray(ids).astype(np.int64) * elem_bytes) // unit_bytes
    merged = np.zeros(units.shape[0], dtype=bool)
    for k in range(1, min(window, units.shape[0] - 1) + 1):
        merged[k:] |= units[k:] == units[:-k]
    return int((~merged).sum()) * unit_bytes


class TestMatchesReference:
    def test_random_streams(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 400))
            ids = rng.integers(0, int(rng.choice([8, 1000, 1 << 20])), size=n)
            window = int(rng.integers(1, 41))
            elem = int(rng.choice([1, 4, 8]))
            unit = int(rng.choice([32, 64, 128]))
            assert stream_transfer_bytes(
                ids, elem, unit, window=window
            ) == _reference_transfer_bytes(ids, elem, unit, window=window)

    def test_units_beyond_int32(self, rng):
        # Unit ids that differ only above bit 31 must not alias.
        base = np.int64(1) << 40
        ids = np.concatenate([[base, base + (1 << 32) * 32]] * 3)
        ids = np.concatenate([ids, rng.integers(base, base + 10**6, size=500)])
        assert stream_transfer_bytes(ids, 8, 32) == _reference_transfer_bytes(
            ids, 8, 32
        )
        assert stream_transfer_bytes(ids[:6], 1, 32) == 2 * 32
