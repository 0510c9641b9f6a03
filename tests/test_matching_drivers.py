"""Matching drivers: the maximum matching size, and drivers that a maximum matching leaves free.

Maximum matchings are not unique, so the driver set is checked for what any
valid one must satisfy: ``n_d`` is ``n`` minus the size the Pothen-Fan
phases of ``hopcroft_karp`` find on the whole graph, and the drivers are
exactly the in-copies left free by some maximum matching, which holds iff
every other in-copy can be matched at once.
The matching ``_max_matching`` returns is checked itself: every pair is an
edge, no copy is used twice, and its free in-copies are the printed drivers.
On a disjoint union of graphs it is maximum on every block, which is what
attack curves rely on when they match their trials' survivors together.
The properties run once more with scipy matching every core, which it does
only above ``SCIPY_CORE_EDGES`` core edges otherwise.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcn.attacks
import mcn.control
from mcn import Digraph, LayerSpec, StaticModelSpec, build_layer, generate_static_sf, min_drivers_matching
from mcn.attacks import _free_in_copies, remove_nodes
from mcn.control import PEEL_STOP, SCIPY_CORE_EDGES, _max_matching
from mcn.matching import hopcroft_karp
from test_peeling import cascade, digraphs

SETTINGS = settings(max_examples=150, deadline=None)


def scipy_on_every_core():
    return mock.patch.object(mcn.control, "SCIPY_CORE_EDGES", 0)


def pothen_fan_on_every_core():
    return mock.patch.object(mcn.control, "SCIPY_CORE_EDGES", 1 << 62)


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


@SETTINGS
@given(digraphs())
def test_drivers_are_free_in_a_maximum_matching_by_scipy(g):
    with scipy_on_every_core():
        assert_maximum_matching_drivers(g)


def assert_union_matched_maximally_on_every_block(graphs):
    # the graphs stacked as blocks, block b's positions shifted by the nodes of the blocks before it
    starts = np.cumsum([0] + [g.num_nodes for g in graphs])
    n = int(starts[-1])
    edges = [edge_arrays(g) for g in graphs]
    rows = np.concatenate([r + start for (r, _), start in zip(edges, starts)])
    cols = np.concatenate([c + start for (_, c), start in zip(edges, starts)])
    match, _ = _max_matching(rows, cols, n)
    v = np.flatnonzero(match >= 0)
    u = match[v].astype(np.int64)
    assert len(set(u.tolist())) == len(u)  # no out-copy matched twice
    assert set((u * n + v).tolist()) <= set((rows * n + cols).tolist())  # every pair is an edge of its own block
    for g, a, b in zip(graphs, starts, starts[1:]):
        assert np.count_nonzero(match[a:b] < 0) == g.num_nodes - matching_size(adjacency(g), g.num_nodes)


@SETTINGS
@given(st.lists(digraphs(), min_size=1, max_size=7))
def test_a_union_is_matched_maximally_on_every_block(graphs):
    assert_union_matched_maximally_on_every_block(graphs)


@SETTINGS
@given(st.lists(digraphs(), min_size=1, max_size=7))
def test_a_union_is_matched_maximally_on_every_block_by_scipy(graphs):
    with scipy_on_every_core():
        assert_union_matched_maximally_on_every_block(graphs)


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


def test_a_core_above_the_threshold_is_matched_by_scipy():
    g = generate_static_sf(StaticModelSpec(n=30000, gamma=2.5, kbar=12, seed=0))  # a core of 248,401 edges
    with pothen_fan_on_every_core():
        reference = min_drivers_matching(g)
    report = min_drivers_matching(g)
    assert (report.rank, report.n_d) == (reference.rank, reference.n_d)
    assert assert_valid_matching(g, report.rank) > SCIPY_CORE_EDGES
    # the other in-copies can all be matched together, here by the Pothen-Fan route
    rows, cols = edge_arrays(g)
    kept = ~np.isin(cols, np.searchsorted(g.labels, report.drivers))
    with pothen_fan_on_every_core():
        match, _ = _max_matching(rows[kept], cols[kept], g.num_nodes)
    assert np.count_nonzero(match >= 0) == report.rank


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


# --- the peel rounds against a plain statement of the round rule ----------------


def reference_peel(rows, cols, n):
    """Oracle: the peel's rounds edge by edge in Python ints; the peeled ``match`` and the core edges.

    In a round, an out-copy with one live edge takes it at its in-copy, and an
    in-copy with one live edge takes it at its out-copy; the smallest edge wins
    a shared partner. The edges at a matched copy are then dropped, and the
    rounds stop when no edge is left or a round drops under 1/PEEL_STOP of them.
    """
    edges, match = list(zip(rows.tolist(), cols.tolist())), [-1] * n
    while edges:
        out_degree, in_degree = Counter(u for u, _ in edges), Counter(v for _, v in edges)
        at_in, at_out = {}, {}  # in-copy -> edge, out-copy -> edge
        for u, v in edges:  # ascending, so the first edge set wins
            if out_degree[u] == 1:
                at_in.setdefault(v, (u, v))
            if in_degree[v] == 1:
                at_out.setdefault(u, (u, v))
        taken = {*at_in.values(), *at_out.values()}
        for u, v in taken:
            match[v] = u
        used = {u for u, _ in taken}
        live = [(u, v) for u, v in edges if match[v] < 0 and u not in used]
        dropped, edges = len(edges) - len(live), live
        if dropped * PEEL_STOP < dropped + len(live):
            break
    return match, edges


def assert_rounds_follow_the_rule(rows, cols, n):
    """``_max_matching`` peels as ``reference_peel`` does and hands the core's edges to the core matcher."""
    cores = []

    def core_matcher(adj, num_right):
        cores.append(adj)
        return hopcroft_karp(adj, num_right)

    with mock.patch.object(mcn.control, "hopcroft_karp", core_matcher):
        match, core_edges = _max_matching(rows, cols, n)
    expected, core = reference_peel(rows, cols, n)
    heads = sorted({u for u, _ in core})
    assert cores == [[[v for u, v in core if u == h] for h in heads]]
    assert core_edges == len(core)
    for k, v in enumerate(hopcroft_karp(cores[0], n)[0]):  # the in-copy matched to each core out-copy
        if v >= 0:
            expected[v] = heads[k]  # an in-copy matched in the core was free after the peel
    assert match.tolist() == expected


@SETTINGS
@given(digraphs())
def test_peel_rounds_follow_the_rule(g):
    assert_rounds_follow_the_rule(*edge_arrays(g), g.num_nodes)


@SETTINGS
@given(digraphs(max_nodes=20), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_peel_rounds_follow_the_rule_on_attack_unions(g, blocks, seed):
    # the survivors of several trials, nodes removed at random, as one disjoint union
    keep = np.random.default_rng(seed).random((blocks, g.num_nodes)) < 0.8
    calls = []

    def recording(rows, cols, n):
        calls.append((rows.copy(), cols.copy(), n))
        return _max_matching(rows, cols, n)

    with mock.patch.object(mcn.attacks, "_max_matching", recording):
        _free_in_copies(g, keep)
    (union,) = calls
    assert_rounds_follow_the_rule(*union)


def test_peel_rounds_follow_the_rule_on_graphs_with_a_core():
    for name in ("blocks 2x3 3x3 4x2", "sf n=2000 kbar=8", "cascade n=3000"):
        g = CORE_GRAPHS[name]()
        assert_rounds_follow_the_rule(*edge_arrays(g), g.num_nodes)
