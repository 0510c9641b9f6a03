import hashlib

import numpy as np
import pytest

from mcn import (
    Digraph,
    FIELD_PRIME,
    LayerSpec,
    StaticModelSpec,
    build_layer,
    coupling_matrix,
    extract_chains,
    generate_static_sf,
    min_drivers_exact,
    min_drivers_matching,
    rank,
    verify_ssc,
)

# Published coupling matrices of the two smallest showcase layers; frozen
# entry-for-entry as golden references.
A_G19 = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [1, 1, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [1, 0, 1, 0, 0, 0, 1, 0],
    ],
    dtype=np.int64,
)

A_G09 = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 1, 0, 1, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)

GRID = [
    (r, n) for r in range(1, 11) for n in (50, 100, 500) if n >= 3 * r + 1
]


def random_digraph(n, mean_degree, seed):
    """Seeded random simple digraph on labels 1..n."""
    rng = np.random.default_rng(seed)
    p = mean_degree / (n - 1)
    succ = {}
    for i in range(1, n + 1):
        targets = [j for j in range(1, n + 1) if j != i and rng.random() < p]
        succ[i] = targets
    return Digraph(succ)


# --- coupling matrix --------------------------------------------------------


def test_coupling_matrix_g19_golden():
    m = coupling_matrix(build_layer(LayerSpec(1, 9)))
    assert m.dimension == 8
    assert np.array_equal(m.dense(), A_G19)


def test_coupling_matrix_g09_golden():
    m = coupling_matrix(build_layer(LayerSpec(0, 9)))
    assert np.array_equal(m.dense(), A_G09)


def test_coupling_matrix_empty_graph():
    m = coupling_matrix(Digraph({1: (), 2: (), 3: ()}))
    assert m.dimension == 3
    assert np.array_equal(m.dense(), np.zeros((3, 3), dtype=np.int64))


def test_random_weighting_same_sparsity_pattern():
    g = build_layer(LayerSpec(2, 40))
    unit = coupling_matrix(g)
    rand = coupling_matrix(g, weighting="random", seed=5)
    assert unit.graph is rand.graph is g
    assert np.array_equal(unit.weights, np.ones(g.num_edges, dtype=np.int64))
    assert rand.weights.shape == (g.num_edges,) and ((1 <= rand.weights) & (rand.weights < FIELD_PRIME)).all()
    assert rand == coupling_matrix(g, weighting="random", seed=5)
    assert rand != coupling_matrix(g, weighting="random", seed=6)
    # equal weights on a different graph: another target, then the same positions under other labels
    one_to_two = coupling_matrix(Digraph({1: (2,), 2: (), 3: ()}))
    assert one_to_two != coupling_matrix(Digraph({1: (3,), 2: (), 3: ()}))
    assert one_to_two != coupling_matrix(Digraph({2: (3,), 3: (), 4: ()}))
    with pytest.raises(ValueError):
        coupling_matrix(g, weighting="gaussian")


@pytest.mark.parametrize("weighting", ["unit", "random"])
@pytest.mark.parametrize("graph", ["layer", "sf"])
def test_entries_follow_the_csr_edge_order(graph, weighting):
    if graph == "layer":
        g = build_layer(LayerSpec(1, 30))
    else:
        g = generate_static_sf(StaticModelSpec(n=40, gamma=2.5, kbar=2, seed=3))
    m = coupling_matrix(g, weighting=weighting, seed=7)
    assert m.graph is g
    assert m.weights.shape == (g.num_edges,)
    assert np.array_equal(m.sources, np.repeat(np.arange(g.num_nodes), g.out_degrees))


# sha256 of the (row, column, weight) int64 entries of random-weight coupling
# matrices, taken in (row, column) order. No CLI command draws these weights,
# so the golden CLI hashes do not pin that stream. Keys: an int, a tuple and an
# int above 2^32.
RANDOM_WEIGHT_SHA256 = {
    ("layer", 7): "66a1b654a50c906a578486579e0665e2acf0665581515e0e006f313b4c907dec",
    ("layer", (7, 2, 5)): "2a4d0f9114dc1aa325dc3c59c52d58511b24e705a5accaef398c5eb86d0ca8c8",
    ("layer", 2**40): "179e4035b87568ddde66b06be41ea0cdb9258f0ff14349b1e68e64f1e6962e3d",
    ("sf", 7): "e971a612b0afe6e527f120967a2ba2e6a045de786c1c4b21ec33a7fdda63b379",
    ("sf", (7, 2, 5)): "2adbbe3dddb968872491aa503954595ec39ed9a1b326f2a24846e0ba2f1c32c4",
    ("sf", 2**40): "176b5c791889254481c8235e7814a205a012dd0cc67a2f2daad7d3f5e3749630",
}


@pytest.mark.parametrize("graph, seed", sorted(RANDOM_WEIGHT_SHA256, key=repr))
def test_random_weights_are_pinned(graph, seed):
    if graph == "layer":
        g = build_layer(LayerSpec(1, 30))
    else:
        g = generate_static_sf(StaticModelSpec(n=40, gamma=2.5, kbar=2, seed=3))
    m = coupling_matrix(g, weighting="random", seed=seed)
    entries = np.column_stack((m.graph.indices, m.sources, m.weights))
    entries = entries[np.lexsort((entries[:, 1], entries[:, 0]))]
    digest = hashlib.sha256(entries.astype("<i8").tobytes()).hexdigest()
    assert digest == RANDOM_WEIGHT_SHA256[graph, seed]


@pytest.mark.parametrize("r,n", [(0, 9), (1, 9), (3, 60), (7, 200)])
def test_layer_coupling_is_strictly_lower_triangular(r, n):
    m = coupling_matrix(build_layer(LayerSpec(r, n)))
    assert (m.graph.indices > m.sources).all()


# --- rank -------------------------------------------------------------------


def test_rank_examples():
    assert rank(coupling_matrix(build_layer(LayerSpec(1, 9)))) == 7
    assert rank(coupling_matrix(build_layer(LayerSpec(0, 9)))) == 4
    assert rank(coupling_matrix(Digraph({1: (), 2: (), 3: ()}))) == 0


@pytest.mark.parametrize("r,n", GRID)
def test_rank_identity_on_grid(r, n):
    g = build_layer(LayerSpec(r, n))
    assert rank(coupling_matrix(g)) == n - 2 * r


def test_rank_agrees_with_numpy_on_small_cases():
    for spec in (LayerSpec(1, 9), LayerSpec(0, 9), LayerSpec(2, 30)):
        m = coupling_matrix(build_layer(spec))
        assert rank(m) == np.linalg.matrix_rank(m.dense())


# --- driver nodes -----------------------------------------------------------


def test_exact_drivers_g19():
    rep = min_drivers_exact(build_layer(LayerSpec(1, 9)))
    assert (rep.n_nodes, rep.rank, rep.n_d) == (8, 7, 1)
    assert rep.drivers == (2,)
    assert rep.method == "exact_rank"


def test_exact_drivers_g3_100():
    rep = min_drivers_exact(build_layer(LayerSpec(3, 100)))
    assert rep.n_d == 3
    assert rep.drivers == (4, 5, 6)


def test_exact_drivers_divisibility():
    """The drivers are the odd labels. Row j of the r = 0 layer holds the proper
    divisors of j, so row 2k is the first to hold column k: the even rows are
    independent and, up to 2k, span columns 1..k, which hold every proper divisor
    of an odd j <= 2k + 1; row 1 is empty."""
    assert min_drivers_exact(build_layer(LayerSpec(0, 9))).n_d == 5  # ceil(9 / 2)
    for n in [*range(2, 401), 2000, 2001]:
        assert min_drivers_exact(build_layer(LayerSpec(0, n))).drivers == tuple(range(1, n + 1, 2))


def test_full_rank_graph_still_needs_one_driver():
    rep = min_drivers_exact(Digraph({1: (2,), 2: (1,)}))
    assert rep.rank == 2
    assert rep.n_d == 1
    assert rep.drivers == (1,)
    matched = min_drivers_matching(Digraph({1: (2,), 2: (1,)}))
    assert matched.n_d == 1 and matched.drivers == (1,)


def test_matching_no_edges():
    rep = min_drivers_matching(Digraph({m: () for m in range(1, 8)}))
    assert rep.n_d == 7
    assert rep.drivers == tuple(range(1, 8))


def test_empty_graph_rejected():
    with pytest.raises(ValueError, match="^graph has no nodes$"):
        min_drivers_exact(Digraph({}))
    with pytest.raises(ValueError, match="^graph has no nodes$"):
        min_drivers_matching(Digraph({}))


@pytest.mark.parametrize("r,n", GRID)
def test_methods_agree_on_layers(r, n):
    g = build_layer(LayerSpec(r, n))
    exact = min_drivers_exact(g)
    matched = min_drivers_matching(g)
    roots = tuple(c.root for c in extract_chains(LayerSpec(r, n)))
    assert exact.n_d == matched.n_d == r
    assert exact.drivers == matched.drivers == roots == tuple(range(r + 1, 2 * r + 1))
    assert exact.density == matched.density == r / (n - r)


def test_methods_agree_on_static_sf_graph():
    from mcn import StaticModelSpec, generate_static_sf

    g = generate_static_sf(StaticModelSpec(n=100, gamma=2.001, kbar=3.82, seed=0))
    exact = min_drivers_exact(g, weighting="random", seed=8)
    assert exact.n_d == min_drivers_matching(g).n_d


@pytest.mark.parametrize("seed", range(50))
def test_methods_agree_on_random_digraphs(seed):
    # Generic-weight rank equals n minus the maximum matching except with
    # negligible probability, so the two routes must report the same count.
    g = random_digraph(100, 3.0, seed)
    exact = min_drivers_exact(g, weighting="random", seed=seed)
    matched = min_drivers_matching(g)
    assert exact.n_d == matched.n_d


def test_exact_elimination_stops_at_work_budget(monkeypatch):
    from mcn import StaticModelSpec, generate_static_sf

    g = generate_static_sf(StaticModelSpec(n=2000, gamma=2.5, kbar=4, seed=0))
    monkeypatch.setattr("mcn.control.ELIMINATION_BUDGET", 10**3)
    with pytest.raises(ValueError, match=r"-row core exceeds 1000 row updates; use --method matching"):
        min_drivers_exact(g)


def test_report_json_shape():
    rep = min_drivers_matching(build_layer(LayerSpec(1, 9)))
    assert rep.to_json() == (
        '{"density":0.125,"drivers":[2],"method":"matching",'
        '"n_d":1,"n_nodes":8,"rank":7}'
    )


# --- strong structural controllability ---------------------------------------


def test_ssc_layers():
    assert verify_ssc(build_layer(LayerSpec(1, 50)), trials=20, seed=3)
    assert verify_ssc(build_layer(LayerSpec(0, 50)), trials=20, seed=3)


def test_ssc_single_edge():
    report = verify_ssc(Digraph({1: (2,), 2: ()}), trials=5, seed=0)
    assert report.is_ssc
    assert report.unit_rank == 1
    assert report.trial_ranks == (1,) * 5


def test_ssc_requires_two_trials():
    with pytest.raises(ValueError):
        verify_ssc(Digraph({1: (2,), 2: ()}), trials=1, seed=0)


def test_ssc_detects_weight_sensitivity():
    # Two sources feeding the same two sinks: 0/1 rank is 1, generic rank 2.
    g = Digraph({1: (3, 4), 2: (3, 4), 3: (), 4: ()})
    report = verify_ssc(g, trials=8, seed=1)
    assert not report.is_ssc
    assert report.unit_rank == 1
    assert set(report.trial_ranks) == {2}
