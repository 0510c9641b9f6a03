"""Maximum bipartite matching via the Hopcroft-Karp algorithm.

Each phase of one loop layers the graph by a BFS from the free left vertices
(https://en.wikipedia.org/wiki/Hopcroft%E2%80%93Karp_algorithm), then augments
along shortest vertex-disjoint paths by an iterative DFS, so long augmenting
paths cannot hit the interpreter recursion limit.
"""

from __future__ import annotations

from collections.abc import Sequence

_INF = float("inf")


def hopcroft_karp(adj: Sequence[Sequence[int]], num_right: int) -> tuple[list[int], list[int]]:
    """Maximum-cardinality matching of a bipartite graph.

    ``adj[u]`` lists the right vertices adjacent to left vertex ``u`` in
    increasing order. Returns ``(match_left, match_right)``; unmatched
    vertices map to -1. Left vertices and their adjacencies are always
    scanned in increasing index order, so ties between equal-cardinality
    matchings resolve identically on every run.
    """
    match_l = [-1] * len(adj)
    match_r = [-1] * num_right
    dist = [_INF] * len(adj)  # BFS layer of each left vertex in this phase
    free = [u for u, row in enumerate(adj) if row]  # a vertex without edges never matches
    while free:
        for u in free:
            dist[u] = 0
        queue = free[:]  # grows while it is walked; every vertex the BFS layered
        d_free = _INF  # length of the shortest augmenting paths
        for u in queue:
            if dist[u] >= d_free:
                continue
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    d_free = dist[u] + 1  # once set, every u past the skip gives the same
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if d_free == _INF:
            break
        for root in free:
            path, scans = [root], [iter(adj[root])]
            while path:
                u = path[-1]
                for v in scans[-1]:
                    w = match_r[v]
                    if w < 0:
                        if dist[u] + 1 == d_free:
                            for x in reversed(path):  # x's old partner is how the path entered x
                                match_r[v] = x
                                match_l[x], v = v, match_l[x]
                            path = []
                            break
                    elif dist[w] == dist[u] + 1:
                        path.append(w)
                        scans.append(iter(adj[w]))
                        break
                else:
                    dist[u] = _INF  # dead end for this phase
                    path.pop()
                    scans.pop()
        for u in queue:
            dist[u] = _INF
        free = [u for u in free if match_l[u] < 0]  # a matched vertex stays matched
    return match_l, match_r
