"""Property tests: the CSR ``Digraph`` against a dict-of-tuples reference."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcn import Digraph, read_edge_list, sf_header, write_edge_list

SETTINGS = settings(max_examples=60, deadline=None)


class RefDigraph:
    """Oracle: successor tuples in a dict keyed by label, checked edge by edge."""

    def __init__(self, successors):
        self.succ = {}
        for m in sorted(successors):
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"bad label {m!r}")
            targets = tuple(successors[m])
            for a, b in zip(targets, targets[1:]):
                if not a < b:
                    raise ValueError(f"row {m} not strictly increasing")
            if m in targets:
                raise ValueError(f"self-loop on {m}")
            self.succ[m] = targets
        for m, targets in self.succ.items():
            if any(j not in self.succ for j in targets):
                raise ValueError(f"row {m} leaves the node set")

    @property
    def nodes(self):
        return tuple(self.succ)

    def edges(self):
        return [(m, j) for m, targets in self.succ.items() for j in targets]

    def subgraph(self, keep):
        keep = set(keep)
        return RefDigraph({m: tuple(j for j in self.succ[m] if j in keep) for m in keep})


@st.composite
def successor_dicts(draw, max_label=25):
    """A valid simple digraph as {label: ascending successor tuple}."""
    labels = draw(st.sets(st.integers(1, max_label), max_size=12))
    ordered = sorted(labels)
    return {
        m: tuple(sorted(draw(st.sets(st.sampled_from(ordered), max_size=6)) - {m}))
        for m in ordered
    }


def assert_agrees(g, ref):
    assert g.nodes == ref.nodes
    assert list(g.edges()) == ref.edges()
    assert g.num_edges == len(ref.edges())
    for m in ref.nodes:
        assert g.successors(m) == ref.succ[m]
        assert all(type(j) is int for j in g.successors(m))
        assert g.out_degree(m) == len(ref.succ[m])
    assert g.out_degrees.tolist() == [len(ref.succ[m]) for m in ref.nodes]
    assert all(type(m) is int for m in g.nodes)
    assert all(type(i) is int and type(j) is int for i, j in g.edges())


@SETTINGS
@given(successor_dicts())
def test_matches_reference(succ):
    g = Digraph(succ)
    assert_agrees(g, RefDigraph(succ))
    assert g == Digraph.from_edges(list(succ)[::-1], RefDigraph(succ).edges()[::-1])


@SETTINGS
@given(successor_dicts(), st.data())
def test_subgraph_matches_reference(succ, data):
    keep = data.draw(st.sets(st.sampled_from(sorted(succ)))) if succ else set()
    g, ref = Digraph(succ), RefDigraph(succ)
    sub = g.subgraph(keep)
    assert_agrees(sub, ref.subgraph(keep))
    assert sub == g.subgraph(np.array(sorted(keep), dtype=np.int64))
    assert g == Digraph(succ)  # the original is untouched


@SETTINGS
@given(successor_dicts())
def test_edge_list_round_trip(succ):
    g = Digraph(succ)
    n = max(succ, default=1)
    buf = io.StringIO()
    write_edge_list(g, buf, header=sf_header(2.5, n, 0))
    universe = {m: succ.get(m, ()) for m in range(1, n + 1)}
    assert_agrees(read_edge_list(io.StringIO(buf.getvalue())), RefDigraph(universe))

    buf = io.StringIO()
    write_edge_list(g, buf)
    mentioned = {m for edge in RefDigraph(succ).edges() for m in edge}
    back = read_edge_list(io.StringIO(buf.getvalue()))
    assert_agrees(back, RefDigraph({m: succ[m] for m in mentioned}))


# The defects of test_digraph.test_rejects_invalid_graphs, planted at random.
DEFECTS = ["self-loop", "duplicate", "unsorted", "outside", "label"]


@SETTINGS
@given(successor_dicts(), st.sampled_from(DEFECTS), st.data())
def test_rejects_what_the_reference_rejects(succ, defect, data):
    succ = {m: list(ts) for m, ts in succ.items()}
    m = data.draw(st.sampled_from(sorted(succ))) if succ else 1
    succ.setdefault(m, [])
    row = succ[m]
    if defect == "self-loop":
        row.insert(len([j for j in row if j < m]), m)
    elif defect == "unsorted" and len(row) > 1:
        row[0], row[1] = row[1], row[0]
    elif defect in ("duplicate", "unsorted"):
        row.append(row[-1] if row else m)  # an empty row gets a self-loop instead
    elif defect == "outside":
        row.append(max(succ) + 1)
    else:
        succ[data.draw(st.integers(-3, 0))] = []
    with pytest.raises(ValueError):
        RefDigraph(succ)
    with pytest.raises(ValueError):
        Digraph(succ)



@SETTINGS
@given(st.sets(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), min_size=1, max_size=20),
       st.sets(st.integers(1, 10), max_size=8))
def test_from_edges_names_the_first_endpoint_outside_the_nodes(pairs, nodes):
    pairs = sorted(pairs)
    expected = next((f"edge {i}->{j} starts outside the node set" for i, j in pairs if i not in nodes),
                    next((f"edge {i}->{j} points outside the node set" for i, j in pairs if j not in nodes), None))
    if expected is None:
        return
    with pytest.raises(ValueError) as exc:
        Digraph.from_edges(sorted(nodes), pairs)
    assert str(exc.value) == expected

@SETTINGS
@given(successor_dicts(), st.data())
def test_from_edges_rejects_duplicate_edges(succ, data):
    edges = RefDigraph(succ).edges()
    if not edges:
        return
    dup = data.draw(st.sampled_from(edges))
    with pytest.raises(ValueError):
        Digraph.from_edges(list(succ), edges + [dup])


@SETTINGS
@given(successor_dicts(), st.data())
def test_from_edges_in_any_order_gives_the_sorted_graph(succ, data):
    edges = RefDigraph(succ).edges()
    shuffled = data.draw(st.permutations(edges))
    assert Digraph.from_edges(list(succ), shuffled) == Digraph.from_edges(list(succ), edges) == Digraph(succ)
    # a planted duplicate (a self-loop when there are no edges) is named alike from either order
    bad = edges + [data.draw(st.sampled_from(edges)) if edges else (1, 1)]

    def message(pairs):
        with pytest.raises(ValueError) as exc:
            Digraph.from_edges(list(succ), pairs)
        return str(exc.value)

    assert message(sorted(bad)) == message(data.draw(st.permutations(bad)))
