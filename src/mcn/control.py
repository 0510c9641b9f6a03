"""Minimum driver-node analysis for directed graphs.

Two independent routes to the same quantity:

* exact rank: the minimum number of driver nodes of a network with linear
  time-invariant dynamics is max(1, n - rank(A)), where A is the coupling
  matrix (transpose of the adjacency matrix). Rank is computed by exact
  Gaussian elimination over a large prime field.
* structural matching: drivers are the nodes left unmatched on their
  incoming side by a maximum matching of the bipartite out/in
  representation, so the count is max(1, n - |matching|).

On congruence layers both give r drivers, the chain roots r+1..2r; the two
implementations share no code and serve as cross-checks for each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .matching import hopcroft_karp
from .seeding import derive_rng

# Elimination runs over GF(p) with a Mersenne prime near 2^61: arithmetic is
# exact, and at desk scale a 0/1 or random-weight rank cannot collide with
# the generic rank modulo p except with negligible probability.
FIELD_PRIME = (1 << 61) - 1


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Sparse coupling matrix: entry (j, i) is nonzero iff edge i -> j exists.

    Rows and columns are indexed by the position of the node label in
    ``labels`` (ascending). ``entries`` is an (nnz, 3) int64 array of
    (row, column, weight) sorted by (row, column); weights are elements of
    GF(FIELD_PRIME).
    """

    labels: np.ndarray
    entries: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingMatrix):
            return NotImplemented
        return np.array_equal(self.labels, other.labels) and np.array_equal(self.entries, other.entries)

    def rows(self) -> list[dict[int, int]]:
        """Row-index -> {column: weight} view for elimination, in Python ints."""
        rows: list[dict[int, int]] = [{} for _ in range(self.dimension)]
        for r, c, w in zip(*self.entries.T.tolist()):
            rows[r][c] = w
        return rows

    def dense(self) -> np.ndarray:
        """Dense int64 array, mainly for inspection and golden tests."""
        a = np.zeros((self.dimension, self.dimension), dtype=np.int64)
        a[self.entries[:, 0], self.entries[:, 1]] = self.entries[:, 2]
        return a


def coupling_matrix(g: Digraph, weighting: str = "unit", seed: int | tuple[int, ...] = 0) -> CouplingMatrix:
    """Build the coupling matrix of a graph: the transpose of its CSR adjacency.

    ``weighting="unit"`` places 1 at every entry; ``weighting="random"``
    places independent uniform nonzero field elements drawn from ``seed``,
    one per edge in ascending (source, target) order.
    """
    rows = g.indices
    cols = np.repeat(np.arange(g.num_nodes), g.out_degrees)
    if weighting == "unit":
        weights = np.ones_like(rows)
    elif weighting == "random":
        weights = derive_rng(seed).integers(1, FIELD_PRIME, size=len(rows))
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    entries = np.column_stack((rows, cols, weights))[np.lexsort((cols, rows))]
    return CouplingMatrix(labels=g.labels, entries=entries)


def _eliminate(rows: list[dict[int, int]]) -> tuple[int, list[int]]:
    """Sparse Gaussian elimination over GF(FIELD_PRIME).

    Processes rows in index order, reducing each against the pivot rows
    found so far; rows that vanish are linearly dependent on earlier ones.
    Returns (rank, indices of dependent rows).
    """
    p = FIELD_PRIME
    pivots: dict[int, dict[int, int]] = {}
    dependent: list[int] = []
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


def rank(m: CouplingMatrix) -> int:
    """Rank of the coupling matrix over GF(FIELD_PRIME)."""
    return _eliminate(m.rows())[0]


@dataclass(frozen=True)
class ControlReport:
    """Result of a minimum driver-node computation.

    ``rank`` is the coupling-matrix rank for the exact method and the
    maximum-matching cardinality for the matching method (the two coincide
    generically); either way ``n_d = max(1, n_nodes - rank)``.
    """

    n_nodes: int
    rank: int
    n_d: int
    density: float
    drivers: tuple[int, ...]
    method: str

    def to_json(self) -> str:
        payload = {
            "n_nodes": self.n_nodes,
            "rank": self.rank,
            "n_d": self.n_d,
            "density": self.density,
            "drivers": list(self.drivers),
            "method": self.method,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _report(g: Digraph, rank_value: int, drivers: list[int], method: str) -> ControlReport:
    """Report with ``drivers`` given as node positions, turned into labels here."""
    n = g.num_nodes
    n_d = max(1, n - rank_value)
    return ControlReport(
        n_nodes=n,
        rank=rank_value,
        n_d=n_d,
        density=n_d / n,
        drivers=tuple(g.labels[drivers or [0]].tolist()),  # full rank still needs one input signal
        method=method,
    )


def min_drivers_exact(g: Digraph, weighting: str = "unit", seed: int | tuple[int, ...] = 0) -> ControlReport:
    """Driver nodes by the exact rank condition.

    Drivers are the nodes whose coupling-matrix rows stay linearly dependent
    under elimination in ascending label order; input signals on those rows
    are what restores full rank. On a congruence layer these are exactly the
    r chain roots, whose rows are all-zero. For graphs that are not strongly
    structurally controllable the 0/1 rank can undershoot the generic rank;
    pass ``weighting="random"`` to sample the generic case instead.
    """
    if g.num_nodes == 0:
        raise ValueError("graph has no nodes")
    rank_value, dependent = _eliminate(coupling_matrix(g, weighting=weighting, seed=seed).rows())
    return _report(g, rank_value, dependent, "exact_rank")


def min_drivers_matching(g: Digraph) -> ControlReport:
    """Driver nodes by maximum matching of the bipartite out/in representation.

    Every directed edge i -> j becomes a bipartite edge between the
    out-copy of i and the in-copy of j; nodes whose in-copy is unmatched
    need a driving signal. Weight-free, so this is the default route for
    arbitrary graphs such as attacked subgraphs.
    """
    if g.num_nodes == 0:
        raise ValueError("graph has no nodes")
    ptr, indices = g.indptr.tolist(), g.indices.tolist()
    adj = [indices[ptr[k]:ptr[k + 1]] for k in range(g.num_nodes)]
    _, match_r = hopcroft_karp(adj, g.num_nodes)
    size = sum(1 for w in match_r if w >= 0)
    return _report(g, size, [v for v, w in enumerate(match_r) if w < 0], "matching")


@dataclass(frozen=True)
class SscReport:
    """Outcome of a strong-structural-controllability check."""

    is_ssc: bool
    unit_rank: int
    trial_ranks: tuple[int, ...]
    trials: int
    seed: int

    def __bool__(self) -> bool:
        return self.is_ssc


def verify_ssc(g: Digraph, trials: int, seed: int) -> SscReport:
    """Check that the coupling-matrix rank ignores the choice of link weights.

    Draws ``trials`` independent random-weight assignments (per-trial seeds
    derived deterministically from the master seed) and compares every rank
    against the unit-weight rank. Trials are independent, so the verdict
    does not depend on evaluation order.
    """
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    unit_rank = rank(coupling_matrix(g))
    trial_ranks = tuple(
        rank(coupling_matrix(g, weighting="random", seed=(seed, t)))
        for t in range(trials)
    )
    is_ssc = all(tr == unit_rank for tr in trial_ranks)
    return SscReport(
        is_ssc=is_ssc,
        unit_rank=unit_rank,
        trial_ranks=trial_ranks,
        trials=trials,
        seed=seed,
    )
