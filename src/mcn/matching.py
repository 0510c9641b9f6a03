"""Maximum bipartite matching: Pothen-Fan phases, then Hopcroft-Karp.

A Pothen-Fan phase (Pothen and Fan, ACM TOMS 16:303, 1990; Duff, Kaya and
Ucar, ACM TOMS 38(2):13, 2011) runs one depth-first search from every free
left vertex. No right vertex is visited twice in a phase, a forward-only
lookahead pointer per left vertex takes a free right neighbour before the
search descends, and rows are scanned forward in odd phases and backward in
even ones (fairness). Such phases match most vertices cheaply but can take
many phases over the last long augmenting paths, so once a phase matches
fewer than 1/HANDOVER of the free left vertices, Hopcroft-Karp phases
finish from the matching at hand: each layers the graph by a BFS from the
free left vertices
(https://en.wikipedia.org/wiki/Hopcroft%E2%80%93Karp_algorithm), then
augments along shortest vertex-disjoint paths. Both searches are iterative,
so long augmenting paths cannot hit the interpreter recursion limit.
"""

from __future__ import annotations

from collections.abc import Sequence

_INF = float("inf")

# A phase that matches fewer than 1/HANDOVER of its free left vertices hands
# the rest to Hopcroft-Karp. Matching SF n=1e5, kbar 12 (gamma 2.5, seed 0;
# a core of 768,376 edges), peel included, on a 2-core Xeon under Python 3.11:
# Pothen-Fan alone took 60 phases and 4.4 s, Hopcroft-Karp alone 3.5-3.8 s,
# and the handover at 10, after 7 phases, 2.5-3.0 s.
HANDOVER = 10


def hopcroft_karp(adj: Sequence[Sequence[int]], num_right: int) -> tuple[list[int], list[int]]:
    """Maximum-cardinality matching of a bipartite graph.

    ``adj[u]`` lists the right vertices adjacent to left vertex ``u``, in any
    order. Returns ``(match_left, match_right)``; unmatched vertices map to
    -1. Pothen-Fan phases open and Hopcroft-Karp phases finish (see the
    module docstring). Left vertices are taken in increasing index order and
    every row is scanned in its given order or reversed, so ties between
    equal-cardinality matchings resolve identically on every run.
    """
    match_l = [-1] * len(adj)
    match_r = [-1] * num_right
    look = [0] * len(adj)  # the entries of adj[u] before look[u] are matched
    seen = [0] * num_right  # the last phase that visited each right vertex
    free = [u for u, row in enumerate(adj) if row]  # a vertex without edges never matches
    phase = 0
    while free:
        phase += 1
        scan = iter if phase % 2 else reversed
        for root in free:
            u, path, scans = root, [], []
            while True:  # u has just joined the search path
                row = adj[u]
                k = look[u]  # lookahead: the first free right neighbour ends the search
                while k < len(row) and match_r[row[k]] >= 0:
                    k += 1
                look[u] = k + 1
                path.append(u)
                if k < len(row):
                    v = row[k]
                    for x in reversed(path):  # x's old partner is how the path entered x
                        match_r[v] = x
                        match_l[x], v = v, match_l[x]
                    break
                scans.append(scan(row))
                while scans:  # descend to the partner of an unvisited neighbour, or back up
                    for v in scans[-1]:
                        if seen[v] != phase:
                            seen[v] = phase
                            u = match_r[v]
                            break
                    else:
                        path.pop()
                        scans.pop()
                        continue
                    break
                else:
                    break  # no augmenting path from root in this phase
        still = [u for u in free if match_l[u] < 0]  # a matched vertex stays matched
        if len(still) == len(free):
            break  # no augmenting path is left
        if (len(free) - len(still)) * HANDOVER < len(free):
            return _hopcroft_karp(adj, match_l, match_r, still)
        free = still
    return match_l, match_r


def _hopcroft_karp(
    adj: Sequence[Sequence[int]], match_l: list[int], match_r: list[int], free: list[int]
) -> tuple[list[int], list[int]]:
    """Hopcroft-Karp phases from a matching whose free left vertices are ``free``."""
    dist = [_INF] * len(adj)  # BFS layer of each left vertex in this phase
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
