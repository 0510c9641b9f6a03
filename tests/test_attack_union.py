"""Attack curves match their trials' survivors as the blocks of one disjoint union.

Each trial gets a maximum matching of its survivor, wherever the unions of a
curve begin and end: it leaves as many in-copies free as
``min_drivers_matching`` on the survivor that ``remove_nodes`` builds, and the
free ones are those of some maximum matching of that survivor, though not
always the ones ``min_drivers_matching`` leaves. The curves, which count
drivers only, equal those of one subgraph matched per trial bit for bit.
"""

import math
import statistics
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcn.attacks
import mcn.control
from mcn import (
    AttackPoint,
    Digraph,
    LayerSpec,
    StaticModelSpec,
    attack_curve,
    build_layer,
    generate_static_sf,
    min_drivers_matching,
    remove_nodes,
)
from mcn.attacks import AttackStrategy, _trials
from test_matching_drivers import adjacency, matching_size
from test_peeling import digraphs

GRID = [0.0, 0.1, 0.3, 0.5]


def union_sizes(g):
    """UNION_SIZE values that put 1, 2, 3 and 7 survivors of ``g`` in a union, and the default."""
    return [k * (g.num_nodes + g.num_edges) for k in (1, 2, 3, 7)] + [mcn.attacks.UNION_SIZE]


def reference_trials(g, strategy, grid, trials, seed):
    """Oracle: (grid index, survivor, report) of each trial, one subgraph and one matching apiece."""
    if AttackStrategy(strategy) is AttackStrategy.TARGETED:
        trials = 1
    for ip, p in enumerate(grid):
        count = math.floor(p * g.num_nodes)
        for t in range(trials if count else 1):
            survivor = remove_nodes(g, strategy, p, seed=(seed, ip, t))
            yield ip, survivor, min_drivers_matching(survivor)


def reference_curve(g, strategy, grid, trials, seed):
    """Oracle: the curve's points from ``reference_trials``."""
    densities = [[] for _ in grid]
    for ip, _, report in reference_trials(g, strategy, grid, trials, seed):
        densities[ip].append(report.density)
    if AttackStrategy(strategy) is AttackStrategy.TARGETED:
        trials = 1
    return tuple(
        AttackPoint(p=p, nd_mean=statistics.fmean(ds * (trials if len(ds) == 1 else 1)),
                    nd_std=statistics.pstdev(ds * (trials if len(ds) == 1 else 1)), trials=trials)
        for p, ds in zip(grid, densities)
    )


def assert_trials_match_subgraphs(g, strategy, grid=GRID, trials=3, seed=7):
    expected = list(reference_trials(g, strategy, grid, trials, seed))
    for size in union_sizes(g):
        with mock.patch.object(mcn.attacks, "UNION_SIZE", size):
            got = list(_trials(g, AttackStrategy(strategy), grid,
                               1 if strategy == "targeted" else trials, seed))
            curve = attack_curve(g, strategy, grid, trials=trials, seed=seed)
        assert len(got) == len(expected)
        for (ip, n_nodes, free), (ref_ip, survivor, report) in zip(got, expected):
            assert ip == ref_ip
            assert n_nodes == report.n_nodes == survivor.num_nodes
            labels = g.labels[free]
            assert np.isin(labels, survivor.labels).all()  # a removed node is never free
            assert len(labels) == report.n_nodes - report.rank
            # the other in-copies can all be matched together: some maximum matching leaves exactly these free
            drivers = survivor.labels.searchsorted(labels).tolist()
            assert matching_size(adjacency(survivor, drop=drivers), survivor.num_nodes) == report.rank
        assert curve.points == reference_curve(g, strategy, grid, trials, seed)


@settings(max_examples=60, deadline=None)
@given(digraphs(), st.sampled_from(["random", "targeted"]), st.integers(0, 2**16))
def test_union_drivers_match_subgraphs_on_random_digraphs(g, strategy, seed):
    assert_trials_match_subgraphs(g, strategy, seed=seed)


@pytest.mark.parametrize("strategy", ["random", "targeted"])
@pytest.mark.parametrize("r", [0, 1, 3])
def test_union_drivers_match_subgraphs_on_layers(r, strategy):
    assert_trials_match_subgraphs(build_layer(LayerSpec(r, 600)), strategy)


@pytest.mark.parametrize("strategy", ["random", "targeted"])
@pytest.mark.parametrize("kbar", [8, 12])
def test_union_drivers_match_subgraphs_on_sf_graphs_with_cores(kbar, strategy):
    # these keep a core after the degree-1 peel, which the Pothen-Fan phases match for all blocks at once
    g = generate_static_sf(StaticModelSpec(n=2000, gamma=2.5, kbar=kbar, seed=1))
    assert_trials_match_subgraphs(g, strategy, grid=[0.0, 0.05, 0.2], trials=2)


def test_unions_split_inside_and_between_grid_points():
    # 1 + 5 + 5 + 5 survivors: unions of 2, 3 and 7 end inside a point and at its last trial
    g = build_layer(LayerSpec(2, 300))
    assert_trials_match_subgraphs(g, "random", grid=[0.0, 0.2, 0.4, 0.6], trials=5)


def test_empty_grid_gives_an_empty_curve():
    for g in (build_layer(LayerSpec(1, 60)), Digraph({})):
        for strategy in ("random", "targeted"):
            assert attack_curve(g, strategy, [], trials=3).points == ()


def test_edge_free_graph_is_matched_one_survivor_at_a_time():
    # Unions are sized by nodes plus edges: sized by edges alone, the 550
    # survivors of this edge-free graph would all be held in one union.
    n = 10**5
    g = Digraph.from_edges(range(1, n + 1), [])
    grid = [0.05 * i for i in range(11)]
    tracemalloc.start()
    try:
        curve = attack_curve(g, "random", grid, trials=50, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_trial = g.labels.nbytes  # the removed positions alone of a survivor at p = 0.5 take half this
    assert peak < 8 * one_trial
    assert [pt.nd_mean for pt in curve.points] == [1.0] * len(grid)  # every node of an edge-free graph drives


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks on SF graphs (gamma 2.5, kbar 12, seed 0) whose matching
# leaves a core, 10 % above those of an earlier core matcher that ran
# Hopcroft-Karp phases: an attack curve's unions 3.55 / 3.00 MiB and one
# matching 0.29 / 1.31 MiB at n = 500 / 2000 (Python 3.11). The core matcher
# now runs Pothen-Fan phases on these cores and peaks at 3.52 / 3.01 MiB and
# 0.29 / 1.32 MiB.
CORE_PEAK_MIB = {500: (3.91, 0.32), 2000: (3.30, 1.44)}


@pytest.mark.parametrize("n", sorted(CORE_PEAK_MIB))
def test_matching_a_core_stays_within_its_memory_bound(n):
    g = generate_static_sf(StaticModelSpec(n, 2.5, 12, seed=0))
    rows = np.repeat(np.arange(n, dtype=np.int32), g.out_degrees)
    assert mcn.control._max_matching(rows, g.indices, n)[1] > 0  # a core is left
    curve_bound, matching_bound = CORE_PEAK_MIB[n]
    grid = [0.1 * i for i in range(6)]
    assert traced_peak(lambda: attack_curve(g, "random", grid, trials=5, seed=1)) < curve_bound * 2**20
    assert traced_peak(lambda: min_drivers_matching(g)) < matching_bound * 2**20
