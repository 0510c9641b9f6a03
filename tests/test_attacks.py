import io
import math

import numpy as np
import pytest

from mcn import (
    AttackStrategy,
    Digraph,
    LayerSpec,
    StaticModelSpec,
    attack_curve,
    build_layer,
    generate_static_sf,
    min_drivers_matching,
    remove_nodes,
)
from mcn.control import _max_matching


def survivors_after(n_nodes, p):
    return n_nodes - math.floor(p * n_nodes)


# --- node removal -----------------------------------------------------------


def test_remove_nothing_returns_same_graph():
    g = build_layer(LayerSpec(1, 50))
    assert remove_nodes(g, "random", 0.0, seed=4) is g
    assert remove_nodes(g, "targeted", 0.0) is g


def test_targeted_removes_degree_prefix():
    g = build_layer(LayerSpec(1, 100))
    # oracle: rank nodes by floor(99/m) descending, label ascending; the
    # layer has 99 nodes, so p=0.1 removes floor(9.9) = 9 of them
    ranked = sorted(g.nodes, key=lambda m: (-(99 // m), m))
    assert ranked[:9] == list(range(2, 11))
    survivor = remove_nodes(g, AttackStrategy.TARGETED, 0.1)
    assert survivor.nodes == tuple(range(11, 101))


def test_random_removal_is_seeded_and_reproducible():
    g = build_layer(LayerSpec(1, 100))
    a = remove_nodes(g, "random", 0.5, seed=9)
    b = remove_nodes(g, "random", 0.5, seed=9)
    c = remove_nodes(g, "random", 0.5, seed=10)
    assert a.num_nodes == 50  # 99 - floor(0.5 * 99)
    assert a == b
    assert a != c


@pytest.mark.parametrize("p", [-0.1, 1.0, 1.5])
def test_removal_fraction_validated(p):
    g = build_layer(LayerSpec(1, 20))
    with pytest.raises(ValueError):
        remove_nodes(g, "random", p)


def test_unknown_strategy_rejected():
    g = build_layer(LayerSpec(1, 20))
    with pytest.raises(ValueError, match="degree"):
        remove_nodes(g, "degree", 0.1)


# --- attack curves ------------------------------------------------------------


def test_targeted_curve_keeps_one_driver():
    g = build_layer(LayerSpec(1, 100))
    grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    curve = attack_curve(g, "targeted", grid, trials=17, seed=0)
    assert curve.strategy is AttackStrategy.TARGETED
    for pt in curve.points:
        assert pt.trials == 1  # targeted attacks are deterministic
        assert pt.nd_std == 0.0
        count = pt.nd_mean * survivors_after(99, pt.p)
        assert math.isclose(count, 1.0, rel_tol=1e-12)


def test_curve_at_zero_matches_intact_density():
    g = build_layer(LayerSpec(2, 80))
    curve = attack_curve(g, "random", [0.0], trials=5, seed=1)
    assert curve.points[0].nd_mean == min_drivers_matching(g).density
    assert curve.points[0].nd_std == 0.0


@pytest.mark.parametrize("n,step", [(100, 1), (500, 11)])
def test_targeted_prefix_removal_never_adds_drivers(n, step):
    # Removing any number k <= n/2 of top-degree nodes from the r=1 layer
    # strips the chain prefix 2..k+1; the suffix is still one chain.
    g = build_layer(LayerSpec(1, n))
    nodes = g.num_nodes
    for k in range(1, n // 2 + 1, step):
        survivor = remove_nodes(g, "targeted", (k + 0.5) / nodes)
        assert survivor.num_nodes == nodes - k
        assert survivor.nodes[0] == k + 2
        assert min_drivers_matching(survivor).n_d == 1


@pytest.mark.parametrize("r", [0, 1, 2, 3, 5, 8, 13])
def test_targeted_curves_on_layers_follow_the_closed_form(r):
    # Removing the k top nodes cuts a prefix off each chain, so n_d(k) = min(n_d(0), n - k):
    # n_d(0) is r, the chain roots r+1..2r, or ceil(N/2) for r = 0, where i -> 2i matches
    # every out-copy that has a successor.
    for big_n in sorted({r + 2, r + 3, 2 * r + 1, 2 * r + 2, 60, 301} - set(range(r + 2))):
        g = build_layer(LayerSpec(r, big_n))
        n = g.num_nodes
        nd0 = min(r, n) if r else math.ceil(big_n / 2)
        curve = attack_curve(g, "targeted", [(k + 0.5) / n for k in range(n)])
        assert [pt.nd_mean for pt in curve.points] == [max(1, min(nd0, n - k)) / (n - k) for k in range(n)]


def test_random_attacks_hurt_more_than_targeted():
    g = build_layer(LayerSpec(1, 100))
    grid = [0.1, 0.2, 0.3, 0.4, 0.5]
    random_curve = attack_curve(g, "random", grid, trials=20, seed=2)
    targeted_curve = attack_curve(g, "targeted", grid)
    for rnd, tgt in zip(random_curve.points, targeted_curve.points):
        assert rnd.nd_mean > tgt.nd_mean


def test_curve_determinism_and_csv():
    g = build_layer(LayerSpec(1, 60))
    grid = [0.0, 0.25]
    one = attack_curve(g, "random", grid, trials=8, seed=5, source="mcn r=1 n=60")
    two = attack_curve(g, "random", grid, trials=8, seed=5, source="mcn r=1 n=60")
    assert one == two
    buf_one, buf_two = io.StringIO(), io.StringIO()
    one.to_csv(buf_one)
    two.to_csv(buf_two)
    assert buf_one.getvalue() == buf_two.getvalue()
    lines = buf_one.getvalue().splitlines()
    assert lines[0] == "# source=mcn r=1 n=60 seed=5"
    assert lines[1] == "p,nd_mean,nd_std,trials,strategy"
    assert len(lines) == 2 + len(grid)
    assert lines[2].endswith(",8,random")


@pytest.mark.parametrize("strategy", list(AttackStrategy))
def test_strategy_name_and_member_write_the_same_csv(strategy):
    g = build_layer(LayerSpec(1, 60))
    csvs = []
    for s in (strategy.value, strategy):
        buf = io.StringIO()
        attack_curve(g, s, [0.0, 0.25, 0.5], trials=4, seed=2, source="mcn r=1 n=60").to_csv(buf)
        csvs.append(buf.getvalue())
    assert csvs[0] == csvs[1]


def test_grid_validation():
    g = build_layer(LayerSpec(1, 30))
    with pytest.raises(ValueError):
        attack_curve(g, "random", [0.2, 0.1], trials=2)
    with pytest.raises(ValueError):
        attack_curve(g, "random", [0.0, 1.0], trials=2)
    with pytest.raises(ValueError):
        attack_curve(g, "random", [0.1], trials=0)


@pytest.mark.parametrize("strategy,p", [("random", 0.0), ("random", 0.5), ("targeted", 0.5)])
def test_curve_on_empty_graph_is_refused_by_the_matcher(strategy, p):
    with pytest.raises(ValueError, match="^graph has no nodes$"):
        attack_curve(Digraph({}), strategy, [p], trials=2)


# --- static-model scale-free baseline ----------------------------------------


def test_static_sf_edge_budget():
    g = generate_static_sf(StaticModelSpec(n=100, gamma=2.001, kbar=3.82, seed=0))
    assert g.nodes == tuple(range(1, 101))
    assert g.num_edges == 382
    edges = list(g.edges())
    assert len(set(edges)) == 382
    assert all(i != j for i, j in edges)


def test_static_sf_size_budget_is_exact(monkeypatch):
    spec = StaticModelSpec(n=100, gamma=2.5, kbar=3.82, seed=0)
    g = generate_static_sf(spec)
    monkeypatch.setattr("mcn.digraph.GRAPH_SIZE_BUDGET", 100 + 382)
    assert generate_static_sf(spec) == g
    monkeypatch.setattr("mcn.digraph.GRAPH_SIZE_BUDGET", 100 + 381)
    with pytest.raises(ValueError, match="at least 482 nodes plus edges is over GRAPH_SIZE_BUDGET = 481"):
        generate_static_sf(spec)


def test_static_sf_deterministic():
    spec = StaticModelSpec(n=100, gamma=2.001, kbar=3.82, seed=3)
    assert generate_static_sf(spec) == generate_static_sf(spec)
    other = StaticModelSpec(n=100, gamma=2.001, kbar=3.82, seed=4)
    assert generate_static_sf(spec) != generate_static_sf(other)


def test_static_sf_weight_law_limit():
    # Near-uniform weights for huge gamma: the first node keeps a small
    # out-degree; for gamma near 2 it dominates the graph.
    flat = generate_static_sf(StaticModelSpec(n=200, gamma=1e6, kbar=2.0, seed=0))
    skew = generate_static_sf(StaticModelSpec(n=200, gamma=2.001, kbar=2.0, seed=0))
    assert max(flat.out_degree(m) for m in flat.nodes) <= 10
    assert skew.out_degree(1) >= 30


def test_static_sf_validation():
    with pytest.raises(ValueError):
        StaticModelSpec(n=10, gamma=2.0, kbar=1.0)
    with pytest.raises(ValueError):
        StaticModelSpec(n=10, gamma=2.5, kbar=0.0)
    with pytest.raises(ValueError):
        generate_static_sf(StaticModelSpec(n=10, gamma=2.5, kbar=20.0))
    with pytest.raises(ValueError, match="^target mean degree must be positive and finite, got inf$"):
        StaticModelSpec(n=10, gamma=2.5, kbar=float("inf"))
    # the second product rounds up to inf; the last n is too large for a float
    for n, kbar in ((10, 1e308), (3, 5.992310449541053e307), (10**400, 1.0), (10**400, 0.5)):
        with pytest.raises(ValueError, match="^target edge count kbar \\* n overflows a float"):
            StaticModelSpec(n=n, gamma=2.5, kbar=kbar)


def reference_static_sf(spec):
    """Oracle: the static model drawn edge by edge into a set of tuples."""
    n, m = spec.n, spec.num_edges
    if m > n * (n - 1):
        raise ValueError(f"{m} edges requested but only {n * (n - 1)} are possible")
    alpha = 1.0 / (spec.gamma - 1.0)
    weights = [float(i) ** (-alpha) for i in range(1, n + 1)]
    total = math.fsum(weights)
    prob = [w / total for w in weights]
    rng = np.random.default_rng(spec.seed)
    edges = set()
    budget = 100 * m
    used = 0
    while len(edges) < m:
        if used >= budget:
            raise RuntimeError(
                f"edge budget not reached after {budget} draws "
                f"({len(edges)}/{m} edges); graph too dense for this weight law"
            )
        chunk = min(max(4096, 2 * (m - len(edges))), budget - used)
        sources = rng.choice(n, size=chunk, p=prob)
        targets = rng.choice(n, size=chunk, p=prob)
        for s, t in zip(sources.tolist(), targets.tolist()):
            used += 1
            if s == t:
                continue
            edge = (s + 1, t + 1)
            if edge in edges:
                continue
            edges.add(edge)
            if len(edges) == m:
                break
    return Digraph.from_edges(range(1, n + 1), list(edges))


def reference_grid():
    """(n, kbar) pairs: no edges, sparse, mean degree 5 and, for small n, (almost) all n(n-1) edges."""
    for n in (2, 10, 150, 350, 2000):
        dense = (n - 1 - 1 / n, n - 1) if n <= 10 else ()
        for kbar in (0.4 / n, 1.0, 5.0, *dense):
            if round(kbar * n) <= n * (n - 1):
                yield n, kbar


@pytest.mark.parametrize("gamma", [2.2, 2.5, 3.0, 1e6])
@pytest.mark.parametrize("n,kbar", list(reference_grid()))
def test_static_sf_matches_set_reference(n, kbar, gamma):
    for seed in range(3):
        spec = StaticModelSpec(n=n, gamma=gamma, kbar=kbar, seed=seed)
        assert generate_static_sf(spec) == reference_static_sf(spec)


def test_static_sf_exhausted_budget_matches_reference():
    spec = StaticModelSpec(n=60, gamma=2.0001, kbar=59, seed=1)
    message = r"^edge budget not reached after 354000 draws \(3539/3540 edges\); graph too dense for this weight law$"
    with pytest.raises(RuntimeError, match=message):
        reference_static_sf(spec)
    with pytest.raises(RuntimeError, match=message):
        generate_static_sf(spec)


def test_unremoved_points_match_once(monkeypatch):
    import mcn.attacks

    blocks = []
    g = build_layer(LayerSpec(1, 60))

    def counting(rows, cols, n):
        blocks.append(n // g.num_nodes)  # survivors in the union handed over as one graph
        return _max_matching(rows, cols, n)

    expected = attack_curve(g, "random", [0.0, 0.01, 0.2], trials=5, seed=2)
    monkeypatch.setattr(mcn.attacks, "_max_matching", counting)
    curve = attack_curve(g, "random", [0.0, 0.01, 0.2], trials=5, seed=2)
    # floor(p * 59) is 0 at p = 0 and p = 0.01: one survivor each, then 5 trials,
    # all handed to the matcher as one union of 7 copies of g
    assert blocks == [1 + 1 + 5]
    assert curve == expected
    assert curve.points[0].nd_std == 0.0
    assert curve.points[0].trials == 5
