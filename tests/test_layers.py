import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcn import (
    LayerSpec,
    build_layer,
    degree_histogram,
    extract_chains,
    theoretical_average_degree,
    theoretical_pk,
)
from mcn.layers import EULER_GAMMA, first_successor, write_histogram_csv

import io


def modular_successors(m, r, limit):
    """Oracle: brute-force scan of the congruence condition."""
    return [j for j in range(m + 1, limit + 1) if j % m == r]


# --- layer construction -------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(-1, 10)
    with pytest.raises(ValueError):
        LayerSpec(5, 6)  # needs n >= r + 2
    assert LayerSpec(5, 7).node_count == 2


def test_layer_g19_adjacency():
    g = build_layer(LayerSpec(1, 9))
    assert g.nodes == tuple(range(2, 10))
    assert g.successors(2) == (3, 5, 7, 9)
    assert g.successors(8) == (9,)
    assert g.num_edges == 12


def test_layer_g09_adjacency():
    g = build_layer(LayerSpec(0, 9))
    assert g.nodes == tuple(range(1, 10))
    assert g.successors(1) == tuple(range(2, 10))
    assert g.successors(4) == (8,)


def test_layer_r5_n7_has_no_edges():
    g = build_layer(LayerSpec(5, 7))
    assert g.nodes == (6, 7)
    assert g.num_edges == 0


@pytest.mark.parametrize("r", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("n", [25, 600])
def test_edge_characterization_exhaustive(r, n):
    # Successor membership must coincide with the modular condition for
    # every node pair of the layer.
    g = build_layer(LayerSpec(r, n))
    for m in g.nodes:
        assert list(g.successors(m)) == modular_successors(m, r, n)


@pytest.mark.parametrize("r,n", [(1, 9), (1, 10000), (3, 500), (0, 500)])
def test_out_degree_formula(r, n):
    g = build_layer(LayerSpec(r, n))
    for m in g.nodes:
        if r > 0:
            assert g.out_degree(m) == (n - r) // m
        else:
            assert g.out_degree(m) == n // m - 1


def test_out_degree_examples():
    g = build_layer(LayerSpec(1, 9))
    assert g.out_degree(2) == 4
    assert g.out_degree(9) == 0
    big = build_layer(LayerSpec(1, 10000))
    # oracle: count of j = 1 (mod 2) with 2 < j <= 10000
    assert len(modular_successors(2, 1, 10000)) == 4999
    assert big.out_degree(2) == 4999


def repeat_arange_fill(spec):
    """Oracle: the layer's CSR targets from per-edge row and step arrays."""
    r, n = spec.r, spec.n
    labels = np.arange(r + 1, n + 1, dtype=np.int64)
    degrees = spec.numerator // labels - (r == 0)
    indptr = np.append(0, np.cumsum(degrees))
    rows = np.repeat(np.arange(len(labels)), degrees)
    steps = np.arange(indptr[-1]) - indptr[rows]  # k for the (k+1)-th successor
    targets = first_successor(labels, r)[rows] + steps * labels[rows]
    return indptr, targets - (r + 1)


@pytest.mark.parametrize("r", [0, 1, 2, 3, 5, 8])
def test_running_sum_fill_matches_repeat_arange_fill(r):
    for n in range(r + 2, 3001):  # includes the edgeless r = 5, n = 7
        spec = LayerSpec(r, n)
        g = build_layer(spec)
        indptr, indices = repeat_arange_fill(spec)
        assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices), n
        assert g.indices.dtype == indices.dtype


# --- chain decomposition -------------------------------------------------


def test_chains_r3_n9():
    chains = extract_chains(LayerSpec(3, 9))
    assert [c.members for c in chains] == [(4, 7), (5, 8), (6, 9)]
    assert [c.root for c in chains] == [4, 5, 6]


def test_chain_r1_is_the_whole_layer():
    (chain,) = extract_chains(LayerSpec(1, 9))
    assert chain.members == tuple(range(2, 10))
    assert chain.root == 2


def test_chains_r2_n105():
    # oracle: enumerate i + 2k <= 105 for i = 1, 2
    expect = [tuple(range(i + 2, 106, 2)) for i in (1, 2)]
    assert [len(e) for e in expect] == [52, 51]
    chains = extract_chains(LayerSpec(2, 105))
    assert [c.members for c in chains] == expect
    assert [c.root for c in chains] == [3, 4]


def test_chains_reject_divisibility_layer():
    with pytest.raises(ValueError, match="chain"):
        extract_chains(LayerSpec(0, 9))


@pytest.mark.parametrize("r", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("n", [30, 101])
def test_chain_partition_property(r, n):
    spec = LayerSpec(r, n)
    g = build_layer(spec)
    chains = extract_chains(spec)
    assert len(chains) == r
    assert [c.root for c in chains] == list(range(r + 1, 2 * r + 1))
    seen = set()
    for c in chains:
        members = set(c.members)
        assert not members & seen  # pairwise disjoint
        seen |= members
        for a, b in zip(c.members, c.members[1:]):
            assert b in g.successors(a)
    assert seen == set(g.nodes)


# --- degree statistics ----------------------------------------------------


def test_degree_histogram_g19():
    # oracle: degree of each node via modular enumeration
    oracle = {}
    for m in range(2, 10):
        k = len(modular_successors(m, 1, 9))
        oracle[k] = oracle.get(k, 0) + 1
    assert oracle == {0: 1, 1: 4, 2: 2, 4: 1}
    hist = degree_histogram(LayerSpec(1, 9))
    assert dict(hist.counts) == {0: 1, 1: 4, 2: 2, 4: 1}
    assert hist.total_nodes == 8


def test_degree_histogram_two_node_layer():
    hist = degree_histogram(LayerSpec(1, 3))
    assert dict(hist.counts) == {0: 1, 1: 1}


def test_degree_one_fraction_near_half():
    hist = degree_histogram(LayerSpec(1, 10000))
    assert abs(hist.empirical_p(1) - 0.5) < 0.01 * 0.5


@pytest.mark.parametrize("r,n", [(0, 200), (1, 200), (4, 333)])
def test_histogram_conservation(r, n):
    g = build_layer(LayerSpec(r, n))
    hist = degree_histogram(LayerSpec(r, n))
    assert sum(hist.counts.values()) == n - r == hist.total_nodes
    assert hist.degree_sum == g.num_edges


@st.composite
def layer_specs(draw):
    r = draw(st.integers(0, 20))
    return LayerSpec(r, draw(st.integers(r + 2, 2000) | st.integers(r + 2, 10**5)))


@settings(max_examples=100, deadline=None)
@given(layer_specs())
@example(LayerSpec(0, 10**5))
def test_degree_histogram_matches_materialised_layer(spec):
    g = build_layer(spec)
    bins = np.bincount(g.out_degrees).tolist()
    hist = degree_histogram(spec)
    assert dict(hist.counts) == {k: c for k, c in enumerate(bins) if c}
    assert hist.total_nodes == g.num_nodes
    assert hist.degree_sum == g.num_edges


def test_degree_histogram_run_count_at_1e12():
    spec = LayerSpec(1, 10**12)
    hist = degree_histogram(spec)
    assert len(hist.counts) <= 2 * math.isqrt(spec.numerator) + 1
    assert hist.total_nodes == 10**12 - 1


def test_theoretical_pk_values():
    assert theoretical_pk(1, 1) == 0.5
    assert theoretical_pk(0, 0) == 0.5
    assert theoretical_pk(3, 4) == 1 / 20
    with pytest.raises(ValueError):
        theoretical_pk(1, 0)
    with pytest.raises(ValueError):
        theoretical_pk(0, -1)
    with pytest.raises(ValueError):
        theoretical_pk(-1, 1)


@pytest.mark.parametrize("K", [1, 10, 1000])
def test_theoretical_pk_telescopes(K):
    total = sum(theoretical_pk(2, k) for k in range(1, K + 1))
    assert math.isclose(total, K / (K + 1), rel_tol=1e-12)


def test_convergence_to_degree_law():
    hist = degree_histogram(LayerSpec(2, 10000))
    for k in range(1, 11):
        assert abs(hist.empirical_p(k) - theoretical_pk(2, k)) <= 0.01


# --- average degree -------------------------------------------------------


def average_degree(spec):
    """Exact mean out-degree, as ``mcn stats`` reports it."""
    hist = degree_histogram(spec)
    return hist.degree_sum / hist.total_nodes


def test_average_degree_g1_100():
    # oracle: direct floor-sum of out-degrees
    total = sum(99 // i for i in range(2, 100))
    assert total == 374
    assert average_degree(LayerSpec(1, 100)) == 374 / 99


def test_average_degree_small():
    assert average_degree(LayerSpec(1, 3)) == 0.5


def test_average_degree_g1_10000_matches_theory():
    exact = average_degree(LayerSpec(1, 10000))
    theory = math.log(9999) + 2 * EULER_GAMMA - 2
    assert abs(exact - 8.365236523652365) < 1e-12  # frozen oracle value
    assert abs(exact - theory) / theory < 0.01


def test_theoretical_average_degree_values():
    v0 = theoretical_average_degree(LayerSpec(0, 10000))
    assert math.isclose(v0, math.log(10000) + 2 * EULER_GAMMA - 2, rel_tol=1e-12)
    v1 = theoretical_average_degree(LayerSpec(1, 10000))
    # the r=1 correction subtracts exactly 1
    assert math.isclose(v1, math.log(9999) + 2 * EULER_GAMMA - 2, rel_tol=1e-12)
    assert theoretical_average_degree(LayerSpec(2, 10000)) < v1


def direct_theoretical_average_degree(r, n):
    """Oracle for r > 0: the correction summed term by term, in O(r)."""
    size = n - r
    correction = sum(size // i for i in range(1, r + 1)) / size
    return math.log(size) + 2.0 * EULER_GAMMA - 1.0 - correction


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2000), st.integers(2, 5000))
def test_theoretical_average_degree_matches_direct_sum(r, size):
    assert theoretical_average_degree(LayerSpec(r, r + size)) == direct_theoretical_average_degree(r, r + size)


def test_theoretical_average_degree_huge_remainder():
    start = time.perf_counter()
    value = theoretical_average_degree(LayerSpec(10**15, 10**15 + 5))
    assert time.perf_counter() - start < 1.0
    assert value == math.log(5) + 2.0 * EULER_GAMMA - 1.0 - (5 + 2 + 1 + 1 + 1) / 5


def test_sparsity_trend_in_r():
    values = [average_degree(LayerSpec(r, 10000)) for r in range(0, 11)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# --- histogram CSV ---------------------------------------------------------


def test_histogram_csv_format():
    hist = degree_histogram(LayerSpec(1, 9))
    buf = io.StringIO()
    write_histogram_csv(hist, 1, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k,count,empirical_p,theoretical_p"
    assert lines[1] == "0,1,0.125,0.0"
    assert lines[2] == "1,4,0.5,0.5"
    assert lines[3] == "2,2,0.25,0.16666666666666666"
    assert lines[4] == "4,1,0.125,0.05"


@pytest.mark.parametrize("r", [0, 1, 3])
def test_build_layer_size_budget_is_exact(monkeypatch, r):
    g = build_layer(LayerSpec(r, 40))
    size = g.num_nodes + g.num_edges
    monkeypatch.setattr("mcn.digraph.GRAPH_SIZE_BUDGET", size)
    assert build_layer(LayerSpec(r, 40)) == g
    monkeypatch.setattr("mcn.digraph.GRAPH_SIZE_BUDGET", size - 1)
    with pytest.raises(ValueError, match=f"at least {size} nodes plus edges is over GRAPH_SIZE_BUDGET"):
        build_layer(LayerSpec(r, 40))
