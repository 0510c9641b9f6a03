import hashlib

import numpy as np
import pytest

from mcn import LayerSpec, StaticModelSpec, build_layer, generate_static_sf
from mcn.attacks import remove_nodes
from mcn.matching import hopcroft_karp


def kuhn_matching_size(adj, num_right):
    """Oracle: simple augmenting-path matching, independent of Hopcroft-Karp."""
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

    return sum(try_augment(u, set()) for u in range(len(adj)))


def random_bipartite(rng, num_left, num_right, density):
    return [
        sorted(np.nonzero(rng.random(num_right) < density)[0].tolist())
        for _ in range(num_left)
    ]


@pytest.mark.parametrize("seed", range(20))
def test_matches_oracle_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    nl = int(rng.integers(1, 40))
    nr = int(rng.integers(1, 40))
    adj = random_bipartite(rng, nl, nr, float(rng.uniform(0.02, 0.5)))
    match_l, match_r = hopcroft_karp(adj, nr)
    size = sum(1 for v in match_l if v >= 0)
    assert size == kuhn_matching_size(adj, nr)
    # consistency of the two sides
    assert size == sum(1 for u in match_r if u >= 0)
    for u, v in enumerate(match_l):
        if v >= 0:
            assert v in adj[u]
            assert match_r[v] == u


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
    "sf": "fbbcb2cf8c377bf38c2a0a3790d667448767c25bcdee31022793a376656c25bc",
    "attacked-layer": "a195453d2697d63dd05151283dc736d2f05c10a1a4ee7a115490010b55f75e12",
    "attacked-sf": "39c5505c21d276a3463547b5fa30a74051176c3ab481a73c8ba9bb18c50a1211",
    "bipartite": "40d3e929b7acaad86824bed4bc09ce76f323d2896e5d66e741cf9820e7a0c784",
}


@pytest.mark.parametrize("family", sorted(PINNED_MATCHING_SHA256))
def test_matchings_are_pinned(family):
    h = hashlib.sha256()
    for adj, num_right in _pinned_corpus(family):
        match_l, match_r = hopcroft_karp(adj, num_right)
        h.update(repr((match_l, match_r)).encode())
    assert h.hexdigest() == PINNED_MATCHING_SHA256[family]
