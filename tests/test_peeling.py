"""Singleton peeling ahead of elimination: same rank and dependent rows as plain elimination."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mcn import (
    FIELD_PRIME,
    Digraph,
    LayerSpec,
    StaticModelSpec,
    build_layer,
    coupling_matrix,
    generate_static_sf,
    min_drivers_exact,
    min_drivers_matching,
    rank,
)
from mcn.control import _eliminate

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def digraphs(draw, max_nodes=40):
    """A simple digraph on labels 1..n, from sparse to dense enough to leave a core."""
    n = draw(st.integers(1, max_nodes))
    mean_degree = draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacent = rng.random((n, n)) < mean_degree / max(n - 1, 1)
    np.fill_diagonal(adjacent, False)
    sources, targets = np.nonzero(adjacent)
    return Digraph.from_edges(range(1, n + 1), list(zip((sources + 1).tolist(), (targets + 1).tolist())))


def reference(g, weighting="unit", seed=0):
    """Oracle: elimination of every row, with no peeling."""
    return _eliminate(coupling_matrix(g, weighting=weighting, seed=seed).rows())


def assert_matches_reference(g, weighting="unit", seed=0):
    ref_rank, ref_dependent = reference(g, weighting, seed)
    assert rank(coupling_matrix(g, weighting=weighting, seed=seed)) == ref_rank
    report = min_drivers_exact(g, weighting=weighting, seed=seed)
    assert report.rank == ref_rank
    assert report.drivers == tuple(g.labels[ref_dependent or [0]].tolist())


def leftmost_eliminate(rows):
    """Oracle: elimination of every row on its leftmost column, with no peeling and no work budget."""
    p = FIELD_PRIME
    pivots = {}
    dependent = []
    for idx, row in enumerate(rows):
        row = dict(row)
        while row:
            j = min(row)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(row[j], p - 2, p)
                pivots[j] = {c: (v * inv) % p for c, v in row.items()}
                break
            f = row.pop(j)
            for c, v in piv.items():
                if c == j:
                    continue
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
        else:
            dependent.append(idx)
    return len(pivots), dependent


def assert_matches_leftmost(g, weighting="unit", seed=0):
    ref_rank, ref_dependent = leftmost_eliminate(coupling_matrix(g, weighting=weighting, seed=seed).rows())
    report = min_drivers_exact(g, weighting=weighting, seed=seed)
    assert report.rank == ref_rank
    assert report.drivers == tuple(g.labels[ref_dependent or [0]].tolist())


def cascade(n):
    """Edges i -> i-1 and i -> i-2: each peeling round frees exactly one row."""
    edges = [(i, i - 1) for i in range(2, n + 1)] + [(i, i - 2) for i in range(3, n + 1)]
    return Digraph.from_edges(range(1, n + 1), sorted(edges))


def restores_full_rank(g, drivers):
    """PBH at lambda = 0: [A | e_D] has rank n when D drives the graph."""
    rows = coupling_matrix(g).rows()
    positions = np.searchsorted(g.labels, drivers).tolist()
    for k, pos in enumerate(positions):
        rows[pos][g.num_nodes + k] = 1
    return _eliminate(rows)[0] == g.num_nodes


@SETTINGS
@given(digraphs())
def test_unit_weights_match_unpeeled_elimination(g):
    assert_matches_reference(g)


@SETTINGS
@given(digraphs(), st.integers(0, 2**32 - 1))
def test_random_weights_match_unpeeled_elimination(g, seed):
    assert_matches_reference(g, weighting="random", seed=seed)


@SETTINGS
@given(digraphs(), st.integers(0, 2**32 - 1))
def test_random_weight_rank_equals_matching_size(g, seed):
    # Lin (1974): the generic rank of a structured matrix is its maximum matching size
    assert min_drivers_exact(g, weighting="random", seed=seed).rank == min_drivers_matching(g).rank


@SETTINGS
@given(digraphs())
def test_exact_drivers_restore_full_rank(g):
    assert restores_full_rank(g, min_drivers_exact(g).drivers)


def test_cascade_matches_unpeeled_elimination():
    g = cascade(20000)
    assert_matches_reference(g)
    assert min_drivers_exact(g).drivers == (20000,)


def test_static_sf_matches_unpeeled_elimination():
    for seed in range(3):
        g = generate_static_sf(StaticModelSpec(150, 2.5, 4, seed=seed))
        assert_matches_reference(g)
        assert_matches_reference(g, weighting="random", seed=seed)
        assert restores_full_rank(g, min_drivers_exact(g).drivers)


def test_layers_match_unpeeled_elimination():
    for r in (0, 1, 3):
        g = build_layer(LayerSpec(r, 300))
        assert_matches_reference(g)
        assert restores_full_rank(g, min_drivers_exact(g).drivers)


def test_static_sf_n2000_finishes():
    # 136 s with plain elimination; peeling leaves a core of a few hundred rows
    g = generate_static_sf(StaticModelSpec(2000, 2.5, 4, seed=0))
    exact = min_drivers_exact(g)
    assert exact.n_d >= min_drivers_matching(g).n_d
    assert len(exact.drivers) == exact.n_d


@SETTINGS
@given(digraphs())
def test_unit_weights_match_leftmost_pivots(g):
    assert_matches_leftmost(g)


@SETTINGS
@given(digraphs(), st.integers(0, 2**32 - 1))
def test_random_weights_match_leftmost_pivots(g, seed):
    assert_matches_leftmost(g, weighting="random", seed=seed)


@settings(max_examples=6, deadline=None)
@given(
    st.integers(150, 350), st.integers(3, 5), st.sampled_from([2.2, 2.5, 3.0]),
    st.sampled_from(["unit", "random"]), st.integers(0, 2**32 - 1),
)
def test_static_sf_cores_match_leftmost_pivots(n, kbar, gamma, weighting, seed):
    # the oracle eliminates all n rows unpeeled, about a second each at n=350
    g = generate_static_sf(StaticModelSpec(n, gamma, kbar, seed=seed))
    assert_matches_leftmost(g, weighting=weighting, seed=seed)
