import hashlib
import sys

import numpy as np
import pytest

from mcn import LayerSpec, StaticModelSpec, build_layer, generate_static_sf
from mcn.attacks import remove_nodes
from mcn.matching import hopcroft_karp


def kuhn_matching_size(adj, num_right):
    """Oracle: simple augmenting-path matching, independent of the Pothen-Fan phases."""
    match_r = [-1] * num_right

    def try_augment(u, seen):
        for v in adj[u]:
            if v in seen:
                continue
            seen.add(v)
            if match_r[v] < 0 or try_augment(match_r[v], seen):
                match_r[v] = u
                return True
        return False

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2 * len(adj))  # one frame per left vertex of a path
    try:
        return sum(try_augment(u, set()) for u in range(len(adj)))
    finally:
        sys.setrecursionlimit(limit)


def random_bipartite(rng, num_left, num_right, density):
    return [
        sorted(np.nonzero(rng.random(num_right) < density)[0].tolist())
        for _ in range(num_left)
    ]


def assert_maximum(adj, num_right, match_l, match_r):
    size = sum(1 for v in match_l if v >= 0)
    assert size == kuhn_matching_size(adj, num_right)
    # consistency of the two sides
    assert size == sum(1 for u in match_r if u >= 0)
    for u, v in enumerate(match_l):
        if v >= 0:
            assert v in adj[u]
            assert match_r[v] == u


SF_CASES = {f"sf seed={seed}": seed for seed in range(3)}  # SF graphs hold long augmenting paths


@pytest.mark.parametrize("case", [*range(20), *SF_CASES])
def test_matches_oracle_on_random_graphs(case):
    if case in SF_CASES:
        adj = _adjacency(generate_static_sf(StaticModelSpec(n=500, gamma=2.5, kbar=6, seed=SF_CASES[case])))
        nr = len(adj)
    else:
        rng = np.random.default_rng(case)
        nl = int(rng.integers(1, 400))
        nr = int(rng.integers(1, 400))
        adj = random_bipartite(rng, nl, nr, float(rng.uniform(0.5, 8.0)) / nr)  # mean degree 0.5-8
        if case % 2:
            for row in adj:
                rng.shuffle(row)  # rows need not ascend
    assert_maximum(adj, nr, *hopcroft_karp(adj, nr))


# --- the exits of the Pothen-Fan loop ----------------------------------------


@pytest.mark.parametrize("n", [300, 301])
def test_pothen_fan_phases_alone_match_a_shuffled_bidirected_cycle(n):
    # left i joins right i - 1 and i + 1 (mod n) under a shuffled labelling:
    # 2-regular, so some matching covers every left vertex
    perm = np.random.default_rng(n).permutation(n).tolist()
    adj = [[] for _ in range(n)]
    for i in range(n):
        adj[perm[i]] = [perm[(i - 1) % n], perm[(i + 1) % n]]
    match_l, match_r = hopcroft_karp(adj, n)
    assert_maximum(adj, n, match_l, match_r)
    assert -1 not in match_l


def test_a_phase_that_augments_nothing_ends_the_loop():
    # phase 1 matches one of three, phase 2 none of two
    assert hopcroft_karp([[0], [0], [0]], 1) == ([0, -1, -1], [0])


def test_no_edges():
    assert hopcroft_karp([[], [], []], 3) == ([-1, -1, -1], [-1, -1, -1])


def test_perfect_matching_on_cycle():
    adj = [[1], [2], [0]]
    match_l, match_r = hopcroft_karp(adj, 3)
    assert match_l == [1, 2, 0]
    assert match_r == [2, 0, 1]


def test_chain_leaves_one_side_unmatched():
    # path 0 -> 1 -> 2 -> 3 in bipartite form: left i joins right i+1
    adj = [[1], [2], [3], []]
    match_l, match_r = hopcroft_karp(adj, 4)
    assert sum(1 for v in match_l if v >= 0) == 3
    assert match_r[0] == -1  # the chain root stays unmatched on the in-side


def test_deterministic():
    rng = np.random.default_rng(123)
    adj = random_bipartite(rng, 60, 60, 0.1)
    first = hopcroft_karp(adj, 60)
    second = hopcroft_karp(adj, 60)
    assert first == second


# --- pinned matchings -------------------------------------------------------
#
# Maximum matchings are not unique; the drivers that `mcn control` prints are
# the in-copies one particular matching leaves free. These digests freeze the
# exact (match_l, match_r) pairs, so any change to the scan order shows up.


def _adjacency(g):
    ptr, indices = g.indptr.tolist(), g.indices.tolist()
    return [indices[ptr[k]:ptr[k + 1]] for k in range(g.num_nodes)]


def _pinned_corpus(family):
    if family == "layers":
        for r in (0, 1, 3):
            for n in (300, 3000):
                g = build_layer(LayerSpec(r, n))
                yield _adjacency(g), g.num_nodes
    elif family == "sf":
        for n in (300, 2000):
            for kbar in (3, 6):
                g = generate_static_sf(StaticModelSpec(n=n, gamma=2.5, kbar=kbar, seed=1))
                yield _adjacency(g), g.num_nodes
    elif family in ("attacked-layer", "attacked-sf"):
        if family == "attacked-layer":
            g = build_layer(LayerSpec(1, 3000))
        else:
            g = generate_static_sf(StaticModelSpec(n=2000, gamma=2.5, kbar=3, seed=2))
        for strategy in ("random", "targeted"):
            for p in (0.1, 0.3, 0.5):
                s = remove_nodes(g, strategy, p, seed=(5, int(p * 10)))
                yield _adjacency(s), s.num_nodes
    else:  # rectangular random bipartite graphs, about a fifth of the rows empty
        rng = np.random.default_rng(2024)
        for _ in range(300):
            nl, nr = int(rng.integers(0, 30)), int(rng.integers(1, 30))
            adj = random_bipartite(rng, nl, nr, float(rng.uniform(0.02, 0.4)))
            yield [row if rng.random() > 0.2 else [] for row in adj], nr


PINNED_MATCHING_SHA256 = {
    "layers": "a4e398cd492b13eba7c7cc69b012611aaaa0b4c7af95bccc12f335ff033e7cf2",
    "sf": "6e8b128a8a6aeca639ac85c17f9dfd9809c712ad3cf3fd2a803473ba080af133",
    "attacked-layer": "114cf37b44e6ce9772e9fed9f67a1fb30d389b502891782730e6b2096b48733e",
    "attacked-sf": "dbf9343d1590bbe6b458340eae0885101fac716db33cb664d39dcb5e98d98661",
    "bipartite": "20a4d3d26e3bbb7dc8ff86c30d0920af450d89dcfd530404d6ef3de0618933c5",
}


@pytest.mark.parametrize("family", sorted(PINNED_MATCHING_SHA256))
def test_matchings_are_pinned(family):
    h = hashlib.sha256()
    for adj, num_right in _pinned_corpus(family):
        match_l, match_r = hopcroft_karp(adj, num_right)
        h.update(repr((match_l, match_r)).encode())
    assert h.hexdigest() == PINNED_MATCHING_SHA256[family]
