"""Minimum driver-node analysis for directed graphs.

Two independent routes to the same quantity:

* exact rank: max(1, n - rank(A)), where A is the coupling matrix
  (transpose of the adjacency matrix) and rank is computed by exact
  Gaussian elimination over a large prime field. n - rank(A) is the
  geometric multiplicity of the eigenvalue 0, i.e. the driver count that
  the PBH test demands at lambda = 0. On a congruence layer A is strictly
  triangular, hence nilpotent, 0 is its only eigenvalue and the count is
  exact; on a general unit-weight graph it is only a lower bound on the
  exact-controllability driver count max over lambda of
  n - rank(lambda I - A) (Yuan et al., Nat. Commun. 4:2447, 2013).
* structural matching: drivers are the nodes left unmatched on their
  incoming side by a maximum matching of the bipartite out/in
  representation, so the count is max(1, n - |matching|). The matching
  peels degree-1 copies in numpy rounds and leaves only the remaining core
  to Hopcroft-Karp.

On congruence layers both give r drivers, the chain roots r+1..2r; the two
implementations share no code and serve as cross-checks for each other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .matching import hopcroft_karp

# Elimination runs over GF(p) with a Mersenne prime near 2^61, so arithmetic
# is exact. Under independent uniform nonzero weights every minor of A is a
# polynomial of degree at most n in the weights, so by the Schwartz-Zippel
# lemma one random-weight trial falls below the generic rank with probability
# at most n/(p-1), about n/p: below 1e-14 for n <= 10^4.
FIELD_PRIME = (1 << 61) - 1

# Row-entry updates one elimination may spend, seconds of pure Python: SF
# graphs (gamma 2.5) need 1.2e5 at n=10^4, kbar=6 and 9.3e6 at n=10^4, kbar=8.
ELIMINATION_BUDGET = 10**7


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Sparse coupling matrix: entry (j, i) is nonzero iff edge i -> j exists.

    Rows and columns are indexed by the position of the node label in
    ``labels`` (ascending). ``entries`` is an (nnz, 3) int64 array of
    (row, column, weight) in the graph's CSR edge order, i.e. sorted by
    (column, row); weights are elements of GF(FIELD_PRIME).
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
        return _row_dicts(self.entries, self.dimension)

    def dense(self) -> np.ndarray:
        """Dense int64 array, mainly for inspection and golden tests."""
        a = np.zeros((self.dimension, self.dimension), dtype=np.int64)
        a[self.entries[:, 0], self.entries[:, 1]] = self.entries[:, 2]
        return a


def _row_dicts(entries: np.ndarray, count: int) -> list[dict[int, int]]:
    rows: list[dict[int, int]] = [{} for _ in range(count)]
    for r, c, w in zip(*entries.T.tolist()):
        rows[r][c] = w
    return rows


def coupling_matrix(g: Digraph, weighting: str = "unit", seed: int | tuple[int, ...] = 0) -> CouplingMatrix:
    """Build the coupling matrix of a graph: the transpose of its CSR adjacency.

    Entry k is edge k of the graph, source ``i`` -> target ``j`` in CSR order,
    stored as (row j, column i). ``weighting="unit"`` places 1 at every
    entry; ``weighting="random"`` places independent uniform nonzero field
    elements drawn from ``seed``, one per edge in that order.
    """
    if weighting not in ("unit", "random"):
        raise ValueError(f"unknown weighting {weighting!r}")
    entries = np.empty((g.num_edges, 3), dtype=np.int64)
    entries[:, 0] = g.indices
    entries[:, 1] = np.repeat(np.arange(g.num_nodes), g.out_degrees)
    if weighting == "unit":
        entries[:, 2] = 1
    else:
        entries[:, 2] = np.random.default_rng(seed).integers(1, FIELD_PRIME, size=g.num_edges)
    return CouplingMatrix(labels=g.labels, entries=entries)


def _eliminate(rows: list[dict[int, int]]) -> tuple[int, list[int]]:
    """Sparse Gaussian elimination over GF(FIELD_PRIME).

    Processes rows in index order, reducing each against the pivot rows
    found so far; rows that vanish are linearly dependent on earlier ones.
    Returns (rank, indices of dependent rows). Each row pivots on its
    largest column key, and a pivot row holds only smaller keys, so the
    reduction terminates. Whether a row is dependent is fixed by the rows
    before it, so any fixed column order gives the same rank and dependent
    rows; the fewest-entry-first keys of ``_dependent_rows`` curb fill-in.

    Fill-in makes the work hard to predict, so the row-entry updates are a
    running count, not an up-front estimate: past ``ELIMINATION_BUDGET`` a
    ``ValueError`` stops the elimination.
    """
    p = FIELD_PRIME
    pivots: dict[int, dict[int, int]] = {}
    dependent: list[int] = []
    updates = 0
    for idx, row in enumerate(rows):
        row = dict(row)
        while row:
            j = max(row)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(row[j], p - 2, p)
                pivots[j] = {c: (v * inv) % p for c, v in row.items()}
                break
            f = row.pop(j)
            updates += len(piv) - 1
            if updates > ELIMINATION_BUDGET:
                raise ValueError(
                    f"exact elimination of a {len(rows)}-row core exceeds "
                    f"{ELIMINATION_BUDGET} row updates; use --method matching"
                )
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


# Both peels stop once a round drops fewer than 1/PEEL_STOP of the live edges
# (coupling-matrix entries, for the rank): a long cascade that sheds an edge or
# two per round is left to elimination (Hopcroft-Karp).
PEEL_STOP = 64


def _dependent_rows(m: CouplingMatrix) -> tuple[int, list[int]]:
    """Rank of ``m`` and its ascending dependent rows, as ``_eliminate`` finds them.

    Row j is dependent iff it lies in the span of the rows before it, a
    property of the matrix alone. Singleton lines are peeled first, in
    rounds over the live (not yet peeled) rows and columns, without any
    arithmetic:

    * a row that is the only live one in some column lies outside the span
      of all other rows, so it is independent;
    * a row whose one live entry sits in column c, where it is the first
      live row of c, is a multiple of e_c outside the span of the rows
      before it, so it is independent; after it is dropped, deleting
      column c changes the status of no later row.

    None of the rules changes the status of a row left live, in any field,
    so ``_eliminate`` on the surviving core rows, in their original order
    and restricted to the live columns, completes the lex-first basis. Rows
    left without entries stay in the core, where ``_eliminate`` finds them
    dependent.
    """
    n = m.dimension
    row_live = np.ones(n, dtype=bool)
    col_live = np.ones(n, dtype=bool)
    entries = m.entries
    while len(entries):
        rows, cols = entries[:, 0], entries[:, 1]
        row_count = np.bincount(rows, minlength=n)
        first = np.full(n, n, dtype=np.int64)
        np.minimum.at(first, cols, rows)
        only_in_col = np.bincount(cols, minlength=n)[cols] == 1
        lone = (row_count[rows] == 1) & (first[cols] == rows)
        row_live[rows[only_in_col | lone]] = False
        col_live[cols[lone]] = False
        live = len(entries)
        entries = entries[row_live[rows] & col_live[cols]]
        if (live - len(entries)) * PEEL_STOP < live:
            break
    core = np.flatnonzero(row_live)
    position = np.cumsum(row_live) - 1
    # columns keyed by descending core entry count, ties by index, for _eliminate's max(row) pivot
    key = np.argsort(np.argsort(-np.bincount(entries[:, 1], minlength=n), kind="stable"), kind="stable")
    entries = np.column_stack((position[entries[:, 0]], key[entries[:, 1]], entries[:, 2]))
    core_rank, core_dependent = _eliminate(_row_dicts(entries, len(core)))
    return n - len(core) + core_rank, core[core_dependent].tolist()


def rank(m: CouplingMatrix) -> int:
    """Rank of the coupling matrix over GF(FIELD_PRIME)."""
    return _dependent_rows(m)[0]


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
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))


def _report(g: Digraph, rank_value: int, drivers: list[int], method: str) -> ControlReport:
    """Report with ``drivers`` given as node positions, turned into labels here."""
    n = g.num_nodes
    if n == 0:
        raise ValueError("graph has no nodes")
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
    """Driver nodes by the exact rank condition at lambda = 0.

    Drivers are the nodes whose coupling-matrix rows are linearly dependent
    on the rows before them in ascending label order; input signals on those
    rows are what restores full rank. On a congruence layer these are
    exactly the r chain roots, whose rows are all-zero. For graphs that are
    not strongly structurally controllable the 0/1 rank can undershoot the
    generic rank; pass ``weighting="random"`` to sample the generic case
    instead.

    Before elimination, singleton rows and columns are peeled in rounds, by
    the rules listed in ``_dependent_rows``. Each settles a row exactly as
    elimination in label order would, in any field and without fill-in, so
    the rank and the driver set are unchanged; the peel stops once a round
    drops fewer than 1/PEEL_STOP of the live entries, and only the remaining
    core is eliminated, rows left empty among them.
    """
    rank_value, dependent = _dependent_rows(coupling_matrix(g, weighting=weighting, seed=seed))
    return _report(g, rank_value, dependent, "exact_rank")


def _pick_lone(pick: np.ndarray, side: np.ndarray, partner: np.ndarray) -> None:
    """Lower ``pick[p]`` to the smallest edge to partner ``p`` whose ``side`` end has one live edge."""
    degree = np.zeros(len(pick), dtype=np.int64)
    np.add.at(degree, side, 1)  # bincount would copy an int32 side to int64
    e = np.flatnonzero((degree == 1)[side])
    np.minimum.at(pick, partner[e], e)


def _max_matching(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """``match[v]``, the out-copy matched to in-copy ``v`` or -1, and the core's edge count.

    Edge ``e`` joins out-copy ``rows[e]`` to in-copy ``cols[e]`` of a graph of
    ``n`` nodes, and ``rows`` ascends. Degree-1 copies are matched in numpy
    rounds, as some maximum matching does (Karp and Sipser, FOCS 1981). The
    smallest edge wins a shared partner, and an edge taken at an out-copy and
    one taken at an in-copy are equal or disjoint, so a round is one matching.
    Hopcroft-Karp matches the core left once no copy has degree 1 or a round
    drops under 1/PEEL_STOP of the live edges. On a disjoint union of graphs
    the result is a maximum matching of each part, though not always the one
    that part would get alone.
    """
    match = np.full(n, -1, dtype=np.int32)
    unused = np.ones(n, dtype=bool)  # out-copies not matched so far
    while len(rows):
        pick = np.full(2 * n, len(rows))  # per in-copy, then per out-copy
        _pick_lone(pick[:n], rows, cols)
        _pick_lone(pick[n:], cols, rows)
        chosen = pick[pick < len(rows)]
        match[cols[chosen]] = rows[chosen]
        unused[rows[chosen]] = False
        keep = (match < 0)[cols] & unused[rows]  # edges between two unmatched copies
        rows = rows[keep]
        cols = cols[keep]
        if (len(keep) - len(rows)) * PEEL_STOP < len(keep):
            break
    heads = np.flatnonzero(np.diff(rows, prepend=-1))  # first core edge of each core out-copy
    bounds, targets = np.append(heads, len(rows)).tolist(), cols.tolist()
    match_l = np.array(hopcroft_karp([targets[a:b] for a, b in zip(bounds, bounds[1:])], n)[0], dtype=np.int64)
    match[match_l[match_l >= 0]] = rows[heads][match_l >= 0]
    return match, len(rows)


def min_drivers_matching(g: Digraph) -> ControlReport:
    """Driver nodes by maximum matching of the bipartite out/in representation.

    Every directed edge i -> j becomes a bipartite edge between the
    out-copy of i and the in-copy of j; nodes whose in-copy is unmatched
    need a driving signal. Weight-free, so this is the default route for
    arbitrary graphs such as attacked subgraphs. The drivers are the
    in-copies that ``_max_matching`` leaves free.
    """
    n = g.num_nodes
    match, _ = _max_matching(np.repeat(np.arange(n, dtype=np.int32), g.out_degrees), g.indices, n)
    drivers = np.flatnonzero(match < 0).tolist()
    return _report(g, n - len(drivers), drivers, "matching")


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
