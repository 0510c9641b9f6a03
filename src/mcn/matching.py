"""Maximum bipartite matching by Pothen-Fan phases.

A Pothen-Fan phase (Pothen and Fan, ACM TOMS 16:303, 1990; Duff, Kaya and
Ucar, ACM TOMS 38(2):13, 2011) runs one depth-first search from every free
left vertex. No right vertex is visited twice in a phase, a forward-only
lookahead pointer per left vertex takes a free right neighbour before the
search descends, and rows are scanned forward in odd phases and backward in
even ones (fairness). Phases repeat until one augments nothing, and then no
augmenting path is left. The search is iterative, so long augmenting paths
cannot hit the interpreter recursion limit.
"""

from __future__ import annotations

from collections.abc import Sequence


def hopcroft_karp(adj: Sequence[Sequence[int]], num_right: int) -> tuple[list[int], list[int]]:
    """Maximum-cardinality matching of a bipartite graph, by Pothen-Fan phases.

    ``adj[u]`` lists the right vertices adjacent to left vertex ``u``, in any
    order. Returns ``(match_left, match_right)``; unmatched vertices map to
    -1. Despite the name, no Hopcroft-Karp phase runs: Pothen-Fan phases
    repeat until one augments nothing (see the module docstring). Left
    vertices are taken in increasing index order and every row is scanned in
    its given order or reversed, so ties between equal-cardinality matchings
    resolve identically on every run.
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
        free = still
    return match_l, match_r
