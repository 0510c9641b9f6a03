"""Matching drivers: Hopcroft-Karp's matching size, and drivers that a maximum matching leaves free.

Maximum matchings are not unique, so the driver set is checked for what any
valid one must satisfy: ``n_d`` is ``n`` minus the size Hopcroft-Karp finds on
the whole graph, and the drivers are exactly the in-copies left free by some
maximum matching, which holds iff every other in-copy can be matched at once.
The matching ``_max_matching`` returns is checked itself: every pair is an
edge, no copy is used twice, and its free in-copies are the printed drivers.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from mcn import Digraph, LayerSpec, StaticModelSpec, build_layer, generate_static_sf, min_drivers_matching
from mcn.attacks import remove_nodes
from mcn.control import _max_matching
from mcn.matching import hopcroft_karp
from test_peeling import cascade, digraphs

SETTINGS = settings(max_examples=150, deadline=None)


def adjacency(g, drop=()):
    """Out-copy -> in-copy positions, without the in-copies in ``drop``."""
    ptr, indices = g.indptr.tolist(), g.indices.tolist()
    drop = set(drop)
    return [[v for v in indices[ptr[k]:ptr[k + 1]] if v not in drop] for k in range(g.num_nodes)]


def matching_size(adj, num_right):
    return sum(v >= 0 for v in hopcroft_karp(adj, num_right)[0])


def edge_arrays(g):
    """Source and target position of each edge of ``g``, as ``_max_matching`` takes them."""
    return np.repeat(np.arange(g.num_nodes), g.out_degrees), g.indices


def assert_valid_matching(g, size):
    """Check ``_max_matching`` on ``g`` against the graph and the maximum ``size``; return its core edge count."""
    match, core = _max_matching(*edge_arrays(g), g.num_nodes)
    assert match.shape == (g.num_nodes,)
    v = np.flatnonzero(match >= 0)
    u = match[v].astype(np.int64)
    assert len(v) == size
    assert len(set(u.tolist())) == len(u)  # no out-copy matched twice
    edges = set((g.indices + g.num_nodes * np.repeat(np.arange(g.num_nodes), g.out_degrees)).tolist())
    assert set((u * g.num_nodes + v).tolist()) <= edges  # every pair is an edge
    assert 0 <= core <= g.num_edges
    free = np.flatnonzero(match < 0)
    assert min_drivers_matching(g).drivers == tuple(g.labels[free.tolist() or [0]].tolist())
    return core


def assert_maximum_matching_drivers(g):
    report = min_drivers_matching(g)
    n = g.num_nodes
    size = matching_size(adjacency(g), n)
    assert report.rank == size
    assert report.n_d == max(1, n - size)
    assert report.density == report.n_d / n
    drivers = np.searchsorted(g.labels, report.drivers).tolist()
    assert g.labels[drivers].tolist() == list(report.drivers)
    assert drivers == sorted(set(drivers))
    if size == n:
        assert drivers == [0]  # full rank still needs one input signal
    else:
        assert len(drivers) == n - size
        # the other in-copies can all be matched together: some maximum matching leaves exactly these free
        assert matching_size(adjacency(g, drop=drivers), n) == size
    assert min_drivers_matching(g) == report
    assert min_drivers_matching(Digraph.from_edges(g.labels, list(g.edges()))) == report
    return report, assert_valid_matching(g, size)


@SETTINGS
@given(digraphs())
def test_drivers_are_free_in_a_maximum_matching(g):
    assert_maximum_matching_drivers(g)


def attacked(g, strategy, p):
    return remove_nodes(g, strategy, p, seed=(3, int(p * 10)))


@pytest.mark.parametrize("strategy", ["random", "targeted"])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("r", [0, 1, 3])
def test_attacked_layers(r, p, strategy):
    assert_maximum_matching_drivers(attacked(build_layer(LayerSpec(r, 2000)), strategy, p))


@pytest.mark.parametrize("strategy", ["random", "targeted"])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("kbar", [3, 6])
def test_attacked_sf_graphs(kbar, p, strategy):
    g = generate_static_sf(StaticModelSpec(n=1000, gamma=2.5, kbar=kbar, seed=4))
    assert_maximum_matching_drivers(attacked(g, strategy, p))


# --- graphs that keep a core after the degree-1 peel, and layers that do not --


def bidirected_cycle(n):
    edges = [(i, i % n + 1) for i in range(1, n + 1)] + [(i % n + 1, i) for i in range(1, n + 1)]
    return Digraph.from_edges(range(1, n + 1), edges)


def bipartite_blocks(*shapes):
    """For each (a, b), a fresh sources each joined to the same b fresh targets."""
    edges, top = [], 0
    for a, b in shapes:
        sources, targets = range(top + 1, top + a + 1), range(top + a + 1, top + a + b + 1)
        edges += [(i, j) for i in sources for j in targets]
        top += a + b
    return Digraph.from_edges(range(1, top + 1), edges)


CORE_GRAPHS = {
    "cascade n=3000": lambda: cascade(3000),  # one edge pair per round: the peel stops at once
    "bidirected cycle n=9": lambda: bidirected_cycle(9),
    "bidirected cycle n=40": lambda: bidirected_cycle(40),
    "blocks 2x3 3x3 4x2": lambda: bipartite_blocks((2, 3), (3, 3), (4, 2)),
    "blocks 5x5 2x7": lambda: bipartite_blocks((5, 5), (2, 7)),
    "sf n=2000 kbar=8": lambda: generate_static_sf(StaticModelSpec(n=2000, gamma=2.5, kbar=8, seed=1)),
    "sf n=2000 kbar=10": lambda: generate_static_sf(StaticModelSpec(n=2000, gamma=2.5, kbar=10, seed=1)),
    "sf n=2000 kbar=12": lambda: generate_static_sf(StaticModelSpec(n=2000, gamma=2.5, kbar=12, seed=1)),
}


@pytest.mark.parametrize("name", sorted(CORE_GRAPHS))
def test_graphs_with_a_core(name):
    _, core = assert_maximum_matching_drivers(CORE_GRAPHS[name]())
    assert core > 0


def test_bidirected_cycle_and_blocks_match_perfectly_or_by_the_smaller_side():
    assert min_drivers_matching(bidirected_cycle(9)).drivers == (1,)
    report = min_drivers_matching(bipartite_blocks((2, 3), (3, 3), (4, 2)))
    assert report.rank == 2 + 3 + 2
    assert report.n_d == 17 - 7


@pytest.mark.parametrize("n", [2000, 20000])
@pytest.mark.parametrize("r", [1, 2, 3, 5, 8])
def test_layers_drive_from_their_roots(r, n):
    report, core = assert_maximum_matching_drivers(build_layer(LayerSpec(r, n)))
    assert core == 0
    assert report.drivers == tuple(range(r + 1, 2 * r + 1))
