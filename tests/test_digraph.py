import io
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np
import pytest

from mcn import (
    Digraph,
    StaticModelSpec,
    generate_static_sf,
    layer_header,
    min_drivers_exact,
    read_edge_list,
    remove_nodes,
    sf_header,
    write_edge_list,
)
from mcn import digraph
from mcn.digraph import _BATCH, _BLOCK, _read_blocks, _read_lines
from mcn.layers import LayerSpec, build_layer


def test_nodes_sorted_and_counts():
    g = Digraph({3: (5,), 5: (), 1: (3, 5)})
    assert g.nodes == (1, 3, 5)
    assert g.num_nodes == 3
    assert g.num_edges == 3
    assert list(g.edges()) == [(1, 3), (1, 5), (3, 5)]


def test_successors_and_degrees():
    g = Digraph({2: (3, 5), 3: (5,), 5: ()})
    assert g.successors(2) == (3, 5)
    assert g.out_degree(5) == 0
    assert 3 in g and 4 not in g
    with pytest.raises(KeyError, match="node 9"):
        g.successors(9)


INVALID_GRAPHS = [
    ({1: (1,)}, "self-loop on node 1"),
    ({1: (2, 2), 2: ()}, "duplicate edge 1->2"),
    ({1: (3, 2), 2: (), 3: ()}, "successor list of node 1 is not strictly increasing"),
    ({1: (4,), 2: ()}, "edge 1->4 points outside the node set"),
    ({0: ()}, "node labels must be positive integers, got 0"),
    ({1: (3, 2), 2: (4,), 3: ()}, "edge 2->4 points outside the node set"),
    # other faults in an out-of-order row are named in (i, j) order, as from_edges names them
    ({1: (9, 8)}, "edge 1->8 points outside the node set"),
    ({1: (3, 2, 3), 2: (), 3: ()}, "duplicate edge 1->3"),
]


@pytest.mark.parametrize("succ, message", INVALID_GRAPHS, ids=[f"succ{k}" for k in range(len(INVALID_GRAPHS))])
def test_rejects_invalid_graphs(succ, message):
    with pytest.raises(ValueError) as exc:
        Digraph(succ)
    assert str(exc.value) == message


def test_from_edges_rejects_duplicates():
    for nodes, edges, message in [
        ([1, 2], [(1, 2), (1, 2)], "duplicate edge 1->2"),
        ([1], [(1, 2)], "edge 1->2 points outside the node set"),
        ([1.5], [], "node labels must be 64-bit integers, not float64"),
        # labels are checked before the pairs
        ([0], [(1, 1.5)], "node labels must be positive integers, got 0"),
        ([1.5], [(1, 1.5)], "node labels must be 64-bit integers, not float64"),
    ]:
        with pytest.raises(ValueError) as exc:
            Digraph.from_edges(nodes, edges)
        assert str(exc.value) == message


@pytest.mark.parametrize("nodes, edges, message", [
    (np.array([1, 2]), np.array([[1, 2**63 + 1]], np.uint64), "edge endpoints must be below 2^63, got 9223372036854775809"),
    (np.array([2**64 - 1], np.uint64), [], "node labels must be below 2^63, got 18446744073709551615"),
])
def test_from_edges_refuses_uint64_values_past_int64(nodes, edges, message):
    # cast to int64, they would wrap to negative labels and endpoints
    with pytest.raises(ValueError) as exc:
        Digraph.from_edges(nodes, edges)
    assert str(exc.value) == message


def test_subgraph_induced():
    g = Digraph({1: (2, 3), 2: (3,), 3: ()})
    h = g.subgraph({1, 3})
    assert h.nodes == (1, 3)
    assert list(h.edges()) == [(1, 3)]
    assert g.num_edges == 3  # original untouched
    with pytest.raises(ValueError):
        g.subgraph({1, 7})


def test_equality():
    a = Digraph({1: (2,), 2: ()})
    b = Digraph.from_edges([1, 2], [(1, 2)])
    assert a == b
    assert a != Digraph({1: (), 2: ()})


def roundtrip(g, header):
    buf = io.StringIO()
    write_edge_list(g, buf, header=header)
    return read_edge_list(io.StringIO(buf.getvalue())), buf.getvalue()


def test_edge_list_roundtrip_layer():
    g = build_layer(LayerSpec(1, 9))
    back, text = roundtrip(g, layer_header(1, 9))
    assert back == g
    lines = text.splitlines()
    assert lines[0] == "# mcn r=1 n=9"
    assert lines[1] == "2\t3"
    body = [tuple(map(int, ln.split("\t"))) for ln in lines[1:]]
    assert body == sorted(body)


def test_edge_list_roundtrip_keeps_isolated_nodes():
    # G(5,7) has two nodes and no edges; the header carries the node set.
    g = build_layer(LayerSpec(5, 7))
    assert g.num_edges == 0
    back, _ = roundtrip(g, layer_header(5, 7))
    assert back.nodes == (6, 7)


def test_edge_list_roundtrip_sf_header():
    g = Digraph({1: (), 2: (1,), 3: ()})
    back, text = roundtrip(g, sf_header(2.001, 3, 11))
    assert text.splitlines()[0] == "# sf gamma=2.001 n=3 seed=11"
    assert back == g


def test_edge_list_without_header_uses_edge_endpoints():
    back = read_edge_list(io.StringIO("4\t7\n4\t9\n"))
    assert back.nodes == (4, 7, 9)


def test_edge_list_malformed_lines():
    with pytest.raises(ValueError, match="malformed"):
        read_edge_list(io.StringIO("1,2\n"))
    with pytest.raises(ValueError, match="malformed"):
        read_edge_list(io.StringIO("1\ttwo\n"))


def test_edge_list_file_paths(tmp_path):
    g = build_layer(LayerSpec(2, 12))
    path = tmp_path / "layer.tsv"
    write_edge_list(g, str(path), header=layer_header(2, 12))
    assert read_edge_list(str(path)) == g


# --- edges() in batches --------------------------------------------------------

BATCHED_GRAPHS = {
    "layer r=1 N=2e4": lambda: build_layer(LayerSpec(1, 20000)),  # 181,148 edges, 3 batches
    "layer r=0 N=3e4": lambda: build_layer(LayerSpec(0, 30000)),  # 283,925 edges, 5 batches
    "sf n=3e4 after 30% random removal": lambda: remove_nodes(  # labels with gaps
        generate_static_sf(StaticModelSpec(30000, 2.5, 6, seed=1)), "random", 0.3, seed=1
    ),
}


@pytest.mark.parametrize("name", BATCHED_GRAPHS)
def test_edges_across_batch_boundaries(name):
    g = BATCHED_GRAPHS[name]()
    assert g.num_edges > _BATCH
    expected = zip(np.repeat(g.labels, g.out_degrees).tolist(), g.labels[g.indices].tolist())
    assert list(g.edges()) == list(expected)
    buf = io.StringIO()
    write_edge_list(g, buf)
    back = read_edge_list(io.StringIO(buf.getvalue()))
    assert back == g.subgraph(back.labels)  # without a header, isolated nodes are not written
    assert back.num_edges == g.num_edges


def _traced_peak(call):
    """Peak bytes that ``call()`` allocates above what is held when it starts."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _edges_traced_peak(n):
    g = build_layer(LayerSpec(1, n))
    return _traced_peak(lambda: deque(g.edges(), maxlen=0))


def test_edges_holds_one_batch_at_a_time():
    # 6x the nodes is about 7x the edges; edge-sized arrays would grow the peak with them
    assert _edges_traced_peak(60000) < 2 * _edges_traced_peak(10000)


# --- each edge-sized array held once ---------------------------------------------
#
# Peaks as multiples of the edge data, 8 bytes per edge and endpoint, on the
# r = 1, N = 2e4 layer (181,148 edges): one more edge-sized int64 array alive
# at the peak crosses each bound.


def test_from_edges_holds_one_position_array():
    g = build_layer(LayerSpec(1, 20000))
    pairs = np.column_stack((np.repeat(g.labels, g.out_degrees), g.labels[g.indices]))  # sorted
    built = []
    assert _traced_peak(lambda: built.append(Digraph.from_edges(g.labels, pairs))) <= 0.85 * pairs.nbytes
    assert built == [g]


def test_writer_digit_table_is_uint8_and_node_sized():
    # 200,000 nodes and 1,000 edges, so the per-node digit table sets the peak: 6 bytes a node,
    # plus two node-sized int64 arrays and a mask, is 23; an (n, w) int64 table alone takes 48
    n = 200000
    g = Digraph.from_edges(np.arange(1, n + 1), np.column_stack((np.arange(1, 1001), np.arange(n - 999, n + 1))))

    class Sink:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    sink = Sink()
    assert _traced_peak(lambda: write_edge_list(g, sink)) <= 4 * 8 * n
    assert sink.chars == sum(len(f"{i}\t{j}\n") for i, j in g.edges())


@pytest.mark.parametrize("block", [1 << 14, _BLOCK])
def test_block_reader_holds_one_block_of_temporaries(block):
    # r = 1, N = 5e4: a 4.8 MB file. Beyond the (E, 2) edges, one block's temporaries peak at about
    # 18 blocks: the word view that take copies, 8 bytes per byte, and five or six field-sized arrays
    g = build_layer(LayerSpec(1, 50000))
    buf = io.StringIO()
    write_edge_list(g, buf, header=layer_header(1, 50000))
    data, parsed = buf.getvalue().encode("ascii"), []
    with mock.patch.object(digraph, "_BLOCK", block):
        assert _traced_peak(lambda: parsed.append(_read_blocks(data))) <= 16 * g.num_edges + 24 * block
    nodes, edges = parsed[0]
    assert Digraph.from_edges(np.arange(nodes.start, nodes.stop), edges) == g


def test_line_loop_holds_one_pair_buffer():
    g = build_layer(LayerSpec(1, 20000))
    buf = io.StringIO()
    write_edge_list(g, buf, header=layer_header(1, 20000))
    text = buf.getvalue().replace("\n", "\n# c\n", 1)  # a comment line: only the line loop reads it
    fh, parsed = io.StringIO(text), []
    assert _traced_peak(lambda: parsed.append(_read_lines(fh))) <= 1.4 * 16 * g.num_edges
    assert read_edge_list(io.StringIO(text)) == Digraph.from_edges(*parsed[0]) == g


def test_static_sf_holds_one_code_array_per_chunk():
    spec = StaticModelSpec(20000, 2.5, 8, seed=0)
    assert _traced_peak(lambda: generate_static_sf(spec)) <= 12.5 * 8 * spec.num_edges


def test_subgraph_holds_one_running_sum():
    g = build_layer(LayerSpec(1, 20000))
    keep = np.delete(g.labels, np.arange(0, g.num_nodes, 10))  # 9 of every 10 nodes
    assert _traced_peak(lambda: g.subgraph(keep)) <= 2.75 * 8 * g.num_edges


@pytest.mark.parametrize("r, bound", [(1, 4.1), (0, 5.4)])
def test_exact_rank_holds_no_copy_of_the_graph(r, bound):
    # the coupling matrix is the graph's own arrays plus one weight per edge: peaks of 3.62 (r = 1)
    # and 4.92 (r = 0) edge-sized arrays, Python 3.11 and numpy 2.4
    g = build_layer(LayerSpec(r, 20000))
    reports = []
    assert _traced_peak(lambda: reports.append(min_drivers_exact(g))) <= bound * 8 * g.num_edges
    assert reports[0].n_d == (r or 10000)  # r = 0: the 10,000 odd labels
