"""Tests for the EFG format: encoder, layout, batched decoder."""

import dataclasses

import numpy as np
import pytest

from repro.core.efg import EFGraph, csr_gather_indices, decode_lists, efg_encode
from repro.core.errors import CorruptStreamError
from repro.core.kernels import decompress_multiple_lists
from repro.ef.bitstream import BitWriter, extract_fields
from repro.ef.bounds import ef_num_lower_bits
from repro.formats.csr import CSRGraph
from repro.formats.graph import Graph


class TestCsrGatherIndices:
    def test_basic(self):
        idx, seg = csr_gather_indices(np.array([10, 50]), np.array([3, 2]))
        assert idx.tolist() == [10, 11, 12, 50, 51]
        assert seg.tolist() == [0, 0, 0, 1, 1]

    def test_empty_segments(self):
        idx, seg = csr_gather_indices(np.array([5, 9, 100]), np.array([0, 2, 0]))
        assert idx.tolist() == [9, 10]
        assert seg.tolist() == [1, 1]

    def test_all_empty(self):
        idx, seg = csr_gather_indices(np.array([1, 2]), np.array([0, 0]))
        assert idx.shape == (0,) and seg.shape == (0,)


class TestEncoder:
    def test_fig3_example(self, tiny_graph):
        efg = efg_encode(tiny_graph)
        # Node 4: neighbours {2,3,7}, u=7, n=3 -> l = floor(log2(7/3)) = 1.
        assert efg.num_lower_bits[4] == 1
        assert np.array_equal(efg.vlist, tiny_graph.vlist)
        assert efg.neighbours(4).tolist() == [2, 3, 7]

    def test_num_lower_bits_formula(self, small_graph):
        efg = efg_encode(small_graph)
        for v in range(small_graph.num_nodes):
            nbrs = small_graph.neighbours(v)
            if nbrs.shape[0] == 0:
                continue
            expect = ef_num_lower_bits(nbrs.shape[0], int(nbrs[-1]))
            assert efg.num_lower_bits[v] == expect, v

    def test_roundtrip(self, small_graph):
        efg = efg_encode(small_graph)
        back = efg.to_graph()
        assert np.array_equal(back.vlist, small_graph.vlist)
        assert np.array_equal(back.elist, small_graph.elist)

    def test_roundtrip_various_quanta(self, small_graph):
        for k in (1, 2, 7, 64, 512):
            efg = efg_encode(small_graph, quantum=k)
            assert np.array_equal(efg.to_graph().elist, small_graph.elist)

    def test_forward_pointers_match_reference(self, rng):
        n = 300
        adjacency = [np.unique(rng.integers(0, 10**5, size=40)) for _ in range(2)]
        g = Graph.from_adjacency(adjacency + [[] for _ in range(10**5 - 2)])
        efg = efg_encode(g, quantum=8)
        for v in range(2):
            nbrs = g.neighbours(v)
            fwd = efg.forward_values(v)
            l = int(efg.num_lower_bits[v])
            for j, val in enumerate(fwd):
                assert val == int(nbrs[(j + 1) * 8 - 1]) >> l
        del n

    def test_empty_lists(self):
        g = Graph.from_adjacency([[1], [], [], [0, 1]])
        efg = efg_encode(g)
        assert efg.neighbours(1).shape == (0,)
        assert efg.neighbours(3).tolist() == [0, 1]

    def test_rejects_bad_quantum(self, small_graph):
        with pytest.raises(ValueError):
            efg_encode(small_graph, quantum=0)

    def test_offsets_monotone(self, small_graph):
        efg = efg_encode(small_graph)
        assert np.all(np.diff(efg.offsets) >= 0)
        assert efg.offsets[-1] == efg.data.shape[0]

    def test_section_geometry_adds_up(self, small_graph):
        efg = efg_encode(small_graph)
        v = np.arange(small_graph.num_nodes)
        total = efg.fwd_nbytes(v) + efg.lower_nbytes(v) + efg.upper_nbytes(v)
        assert np.array_equal(total, np.diff(efg.offsets))


class TestCompression:
    def test_beats_csr_on_typical_graphs(self, rng):
        n, m = 5000, 80000
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )
        csr = CSRGraph.from_graph(g)
        efg = efg_encode(g)
        assert efg.nbytes < csr.nbytes

    def test_order_independent_size(self, rng):
        # Fig. 12a: EFG compression is virtually unchanged by ordering.
        n, m = 2000, 30000
        g = Graph.from_edges(
            rng.integers(0, n, m), rng.integers(0, n, m), num_nodes=n
        )
        scrambled = g.relabelled(rng.permutation(n))
        a, b = efg_encode(g).nbytes, efg_encode(scrambled).nbytes
        assert abs(a - b) / a < 0.02


class TestBatchedDecode:
    def test_matches_per_list(self, small_graph, rng):
        efg = efg_encode(small_graph)
        batch = rng.integers(0, small_graph.num_nodes, size=40)
        vals, seg = decode_lists(efg, batch)
        expect = np.concatenate(
            [small_graph.neighbours(int(v)) for v in batch]
        )
        assert np.array_equal(vals, expect)
        expect_seg = np.repeat(
            np.arange(40), small_graph.degrees[batch]
        )
        assert np.array_equal(seg, expect_seg)

    def test_duplicate_vertices_in_batch(self, small_graph):
        efg = efg_encode(small_graph)
        batch = np.array([5, 5, 5])
        vals, seg = decode_lists(efg, batch)
        one = small_graph.neighbours(5)
        assert np.array_equal(vals, np.tile(one, 3))

    def test_empty_batch(self, small_graph):
        efg = efg_encode(small_graph)
        vals, seg = decode_lists(efg, np.array([], dtype=np.int64))
        assert vals.shape == (0,) and seg.shape == (0,)

    def test_batch_of_empty_lists(self):
        g = Graph.from_adjacency([[], [], [0]])
        efg = efg_encode(g)
        vals, seg = decode_lists(efg, np.array([0, 1]))
        assert vals.shape == (0,)

    def test_mixed_lower_bit_widths(self, rng):
        # Lists with very different universes exercise the per-width
        # grouping in the lower-bits fetch.
        adjacency = [
            np.unique(rng.integers(0, 10, size=5)),
            np.unique(rng.integers(0, 10**6, size=5)),
            np.unique(rng.integers(0, 1000, size=20)),
        ]
        g = Graph.from_adjacency(
            [a for a in adjacency] + [[] for _ in range(10**6 - 3)]
        )
        efg = efg_encode(g)
        vals, _ = decode_lists(efg, np.array([0, 1, 2]))
        expect = np.concatenate([g.neighbours(v) for v in range(3)])
        assert np.array_equal(vals, expect)


def _hand_built_efg(lists, lower_bits):
    """An EFG container built field by field, for ``l`` the encoder
    never picks; every list is shorter than the quantum, so it has no
    forward pointers."""
    chunks, offsets = [], [0]
    for values, l in zip(lists, lower_bits):
        lower, upper = BitWriter(), BitWriter()
        high = 0
        for x in values:
            lower.write_bits(x & ((1 << l) - 1), l)
            upper.write_unary((x >> l) - high)
            high = x >> l
        chunks += [lower.getvalue(), upper.getvalue()]
        offsets.append(offsets[-1] + chunks[-2].shape[0] + chunks[-1].shape[0])
    vlist = np.concatenate([[0], np.cumsum([len(v) for v in lists])])
    return EFGraph(
        vlist=vlist.astype(np.int64),
        num_lower_bits=np.array(lower_bits, dtype=np.uint8),
        offsets=np.array(offsets, dtype=np.int64),
        data=np.concatenate(chunks).astype(np.uint8),
    )


class TestDecoderPaths:
    """The single-pass decoder's select and lower-bits paths."""

    def test_mixed_zero_and_nonzero_lower_bits(self):
        # Dense lists get l = 0 (no lower section), sparse ones l > 0.
        n = 5000
        adjacency = [[] for _ in range(n)]
        adjacency[0] = list(range(10))
        adjacency[1] = [5, 900, 4000]
        adjacency[2] = list(range(1, 41))
        adjacency[3] = [7, 4999]
        g = Graph.from_adjacency(adjacency)
        efg = efg_encode(g)
        assert efg.num_lower_bits[[0, 2]].tolist() == [0, 0]
        assert np.all(efg.num_lower_bits[[1, 3]] > 0)
        batch = np.array([0, 1, 2, 4, 3, 0, 1])
        vals, seg = decode_lists(efg, batch)
        expect = np.concatenate([g.neighbours(int(v)) for v in batch])
        assert np.array_equal(vals, expect)
        assert np.array_equal(seg, np.repeat(np.arange(7), g.degrees[batch]))

    def test_lower_bits_in_final_payload_bytes(self):
        # The last list's lower section ends within 8 bytes of the
        # payload end, past the reach of a whole unaligned word.
        n = 5000
        adjacency = [[] for _ in range(n)]
        adjacency[0] = list(range(0, 3000, 7))
        adjacency[n - 1] = [3, 2100, n - 2]
        g = Graph.from_adjacency(adjacency)
        efg = efg_encode(g)
        v = np.array([n - 1])
        assert int(efg.num_lower_bits[n - 1]) > 0
        assert int(efg.lower_start_byte(v)[0]) > efg.data.shape[0] - 8
        batch = np.array([n - 1, 0, n - 1])
        vals, _ = decode_lists(efg, batch)
        expect = np.concatenate([g.neighbours(int(u)) for u in batch])
        assert np.array_equal(vals, expect)
        assert [efg.edge_at(n - 1, i) for i in range(3)] == adjacency[n - 1]

    @pytest.mark.parametrize("wide", [57, 60, 63])
    def test_lower_bits_wider_than_56(self, wide):
        lists = [
            [3, 70, 1000],
            [(1 << 56) + 7, (1 << 61) + 12345, (1 << 62) + 5],
            [],
            [11, 12],
        ]
        efg = _hand_built_efg(lists, [4, wide, 0, 1])
        efg.validate()
        batch = np.array([1, 0, 3, 2, 1])
        vals, seg = decode_lists(efg, batch)
        expect = [x for v in batch for x in lists[v]]
        assert vals.tolist() == expect
        kernel_vals, kernel_seg, _ = decompress_multiple_lists(efg, batch)
        assert np.array_equal(vals, kernel_vals)
        assert np.array_equal(seg, kernel_seg)
        assert [efg.edge_at(1, i) for i in range(len(lists[1]))] == lists[1]

    def test_mmap_backed_read_only_payload(self, small_graph, tmp_path):
        efg = efg_encode(small_graph)
        assert not efg.data.flags.writeable
        path = tmp_path / "efg.payload"
        efg.data.tofile(path)
        mapped = dataclasses.replace(
            efg, data=np.memmap(path, dtype=np.uint8, mode="r")
        )
        verts = np.arange(small_graph.num_nodes)
        vals, seg = decode_lists(mapped, verts)
        ref_vals, ref_seg = decode_lists(efg, verts)
        assert np.array_equal(vals, small_graph.elist)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(seg, ref_seg)

    def test_extract_fields_on_open_container_payload(self, small_graph, tmp_path):
        from repro.serve.container import open_container, save_container

        save_container(small_graph, tmp_path / "g")
        container = open_container(tmp_path / "g")
        assert isinstance(container.payload, np.memmap)
        elist = small_graph.elist.astype(np.uint64)
        # Each neighbour id is one little-endian 64-bit word.
        for shift, width in [(0, 40), (3, 56), (9, 17)]:
            positions = np.arange(elist.shape[0], dtype=np.int64) * 64 + shift
            got = extract_fields(container.payload, positions, width)
            mask = np.uint64((1 << width) - 1)
            assert np.array_equal(got, (elist >> np.uint64(shift)) & mask)

    def test_stop_bits_moved_across_list_boundary(self):
        # Move list a's last stop bit into a free bit at the start of
        # list b's upper section: the count still matches the degrees,
        # but value 5 of list a now selects bit 0 of list b.  With l = 0
        # value x_i's stop bit is bit x_i + i.
        n = 1000
        adjacency = [[] for _ in range(n)]
        adjacency[0] = [0, 1, 2, 3, 4, 5]
        adjacency[1] = [900, 950]
        efg = efg_encode(Graph.from_adjacency(adjacency))
        assert int(efg.num_lower_bits[0]) == 0
        data = efg.data.copy()
        a_bit = int(efg.upper_start_byte(np.array([0]))[0]) * 8 + 5 + 5
        b_byte = int(efg.upper_start_byte(np.array([1]))[0])
        assert data[a_bit >> 3] >> (a_bit & 7) & 1
        assert not data[b_byte] & 1
        data[a_bit >> 3] ^= np.uint8(1 << (a_bit & 7))
        data[b_byte] |= np.uint8(1)
        corrupt = dataclasses.replace(efg, data=data)
        with pytest.raises(
            CorruptStreamError,
            match=r"select position precedes element rank \(stop bits misplaced\)",
        ):
            decode_lists(corrupt, np.array([0, 1]))

    def test_stop_bit_count_mismatch(self, small_graph):
        efg = efg_encode(small_graph)
        v = int(np.argmax(small_graph.degrees))
        data = efg.data.copy()
        byte = int(efg.upper_start_byte(np.array([v]))[0])
        data[byte] ^= np.uint8(1 << int(np.flatnonzero(
            np.unpackbits(data[byte : byte + 1], bitorder="little") == 0
        )[0]))
        deg = int(small_graph.degrees[v])
        with pytest.raises(
            CorruptStreamError, match=f"{deg + 1} stop bits for {deg} values"
        ):
            decode_lists(dataclasses.replace(efg, data=data), np.array([v]))


class TestAccounting:
    def test_nbytes_formula(self, small_graph):
        efg = efg_encode(small_graph)
        nv = small_graph.num_nodes
        expect = 4 * (nv + 1) + nv + 4 * (nv + 1) + efg.data.shape[0]
        assert efg.nbytes == expect

    def test_size_predictable_a_priori(self, small_graph):
        # The paper: EFG size is computable from (n, u) per list without
        # encoding.  Verify data section matches the bound arithmetic.
        from repro.ef.bounds import ef_lower_bits, ef_upper_bits

        efg = efg_encode(small_graph, quantum=512)
        predicted = 0
        for v in range(small_graph.num_nodes):
            nbrs = small_graph.neighbours(v)
            n = nbrs.shape[0]
            if n == 0:
                continue
            u = int(nbrs[-1])
            predicted += (n // 512) * 4
            predicted += (ef_lower_bits(n, u) + 7) // 8
            predicted += (ef_upper_bits(n, u) + 7) // 8
        assert predicted == efg.data.shape[0]
