"""Minimum driver-node analysis for directed graphs.

Two independent routes to the same quantity:

* exact rank: max(1, n - rank(A)), where A is the coupling matrix
  (transpose of the adjacency matrix), held as the graph's own CSR arrays
  plus one weight per edge with nothing copied, and rank is computed by
  exact Gaussian elimination over a large prime field. n - rank(A) is the
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
  to a matcher: ``matching.hopcroft_karp`` (Pothen-Fan phases) on small
  cores, scipy's compiled ``maximum_bipartite_matching`` on large ones.

Both routes peel singletons first. Their live edges keep the graph's CSR
order, so each round reads an out-copy's degree, and a column's first live
row, from where runs of equal sources begin and end.

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

    The matrix is ``graph``'s own CSR arrays plus one weight per edge, and
    nothing is copied. Rows and columns are node positions in
    ``graph.labels``; CSR edge k, source i -> target j, is the entry at row
    ``graph.indices[k]``, column ``sources[k]``, with weight ``weights[k]``,
    an element of GF(FIELD_PRIME). The entries are thus sorted by (column, row).
    """

    graph: Digraph
    weights: np.ndarray

    @property
    def dimension(self) -> int:
        return self.graph.num_nodes

    @property
    def sources(self) -> np.ndarray:
        """Column of every entry: the source position of each CSR edge, int64."""
        return np.repeat(np.arange(self.dimension), self.graph.out_degrees)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingMatrix):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.weights, other.weights)

    def rows(self) -> list[dict[int, int]]:
        """Row-index -> {column: weight} view for elimination, in Python ints."""
        return _row_dicts(self.graph.indices, self.sources, self.weights, self.dimension)

    def dense(self) -> np.ndarray:
        """Dense int64 array, mainly for inspection and golden tests."""
        a = np.zeros((self.dimension, self.dimension), dtype=np.int64)
        a[self.graph.indices, self.sources] = self.weights
        return a


def _row_dicts(rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, count: int) -> list[dict[int, int]]:
    row_dicts: list[dict[int, int]] = [{} for _ in range(count)]
    for r, c, w in zip(rows.tolist(), cols.tolist(), weights.tolist()):
        row_dicts[r][c] = w
    return row_dicts


def coupling_matrix(g: Digraph, weighting: str = "unit", seed: int | tuple[int, ...] = 0) -> CouplingMatrix:
    """Build the coupling matrix of a graph: the transpose of its CSR adjacency.

    The matrix keeps ``g`` itself and allocates only the weights, one per
    edge in CSR order; no array of ``g`` is copied. ``weighting="unit"``
    places 1 at every entry; ``weighting="random"`` places independent
    uniform nonzero field elements drawn from ``seed``, one per edge in that
    order.
    """
    if weighting not in ("unit", "random"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighting == "unit":
        weights = np.ones(g.num_edges, dtype=np.int64)
    else:
        weights = np.random.default_rng(seed).integers(1, FIELD_PRIME, size=g.num_edges)
    return CouplingMatrix(graph=g, weights=weights)


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
# two per round is left to elimination (the core matcher).
PEEL_STOP = 64


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``a`` starts."""
    heads = np.empty(len(a), dtype=bool)
    heads[:1] = True
    np.not_equal(a[1:], a[:-1], out=heads[1:])
    return heads


def _dependent_rows(m: CouplingMatrix) -> tuple[int, list[int]]:
    """Rank of ``m`` and its ascending dependent rows, as ``_eliminate`` finds them.

    Row j is dependent iff it lies in the span of the rows before it, a
    property of the matrix alone. Singleton lines are peeled first, in
    rounds over the live (not yet peeled) rows and columns, without any
    arithmetic. The live entries are three 1-D arrays, rows, columns and
    weights, starting as ``m.graph.indices``, ``m.sources`` and
    ``m.weights`` and filtered by one mask per round, so they stay sorted by
    (column, row) and each column's live entries are one run of columns:

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
    rows, cols, weights = m.graph.indices, m.sources, m.weights
    while len(rows):
        first = _run_heads(cols)  # the first live row of its column
        only_in_col = first & np.append(first[1:], True)  # first and last
        lone = (np.bincount(rows, minlength=n)[rows] == 1) & first
        row_live[rows[only_in_col | lone]] = False
        col_live[cols[lone]] = False
        keep = row_live[rows] & col_live[cols]
        rows, cols, weights = rows[keep], cols[keep], weights[keep]
        if (len(keep) - len(rows)) * PEEL_STOP < len(keep):
            break
    core = np.flatnonzero(row_live)
    position = np.cumsum(row_live) - 1
    # columns keyed by descending core entry count, ties by index, for _eliminate's max(row) pivot
    key = np.argsort(np.argsort(-np.bincount(cols, minlength=n), kind="stable"), kind="stable")
    core_rank, core_dependent = _eliminate(_row_dicts(position[rows], key[cols], weights, len(core)))
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
    core is eliminated, rows left empty among them. The coupling matrix is
    ``g``'s own CSR arrays plus one weight per edge, so no copy of the graph
    is made.
    """
    rank_value, dependent = _dependent_rows(coupling_matrix(g, weighting=weighting, seed=seed))
    return _report(g, rank_value, dependent, "exact_rank")


# Cores of more than SCIPY_CORE_EDGES edges go to scipy's compiled matcher.
# The constant is the parity point, where Pothen-Fan alone costs as much as
# scipy's import plus its call, about 0.25 s. Timed in fresh processes on SF
# cores (gamma 2.5, seed 0, kbar 8-16; a shared 2-CPU Xeon, Python 3.11,
# scipy 1.17), Pothen-Fan reaches that cost between 1.1e5 and 3.2e5 core
# edges, sooner where augmenting paths are long; above 2^17 it took up to
# 1.5 s (n=7e4, kbar 9: 169,396 edges), scipy at most 0.47 s.
SCIPY_CORE_EDGES = 1 << 17


def _max_matching(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """``match[v]``, the out-copy matched to in-copy ``v`` or -1, and the core's edge count.

    Edge ``e`` joins out-copy ``rows[e]`` to in-copy ``cols[e]`` of a graph of
    ``n`` nodes, and ``rows`` ascends. Degree-1 copies are matched in numpy
    rounds, as some maximum matching does (Karp and Sipser, FOCS 1981). The
    smallest edge wins a shared partner, and an edge taken at an out-copy and
    one taken at an in-copy are equal or disjoint, so a round is one matching.
    The live edges keep their order, so each out-copy's are one run of
    ``rows``: a lone out-copy is a run of length 1, and an out-copy's smallest
    edge to a lone in-copy is the first such edge of its run.
    The core left once no copy has degree 1 or a round drops under
    1/PEEL_STOP of the live edges is matched by ``hopcroft_karp`` (Pothen-Fan
    phases) up to SCIPY_CORE_EDGES edges, and above that by one call to
    scipy's ``maximum_bipartite_matching`` on the core's CSR arrays, imported
    only then. On a disjoint union of graphs
    the result is a maximum matching of each part, though not always the one
    that part would get alone.
    """
    match = np.full(n, -1, dtype=np.int32)
    free_in = np.ones(n, dtype=bool)  # in-copies not matched so far
    unused = np.ones(n, dtype=bool)  # out-copies not matched so far
    while len(rows):
        heads = _run_heads(rows)
        lone_out = np.flatnonzero(heads & np.append(heads[1:], True))
        lone_out = lone_out[np.unique(cols[lone_out], return_index=True)[1]]  # the smallest edge per in-copy
        lone_in = np.flatnonzero((np.bincount(cols, minlength=n) == 1)[cols])
        lone_in = lone_in[_run_heads(rows[lone_in])]  # the smallest edge per out-copy
        for chosen in (lone_out, lone_in):
            match[cols[chosen]] = rows[chosen]
            free_in[cols[chosen]] = False
            unused[rows[chosen]] = False
        keep = free_in[cols] & unused[rows]  # edges between two unmatched copies
        rows = rows[keep]
        cols = cols[keep]
        if (len(keep) - len(rows)) * PEEL_STOP < len(keep):
            break
    heads = np.flatnonzero(_run_heads(rows))  # first core edge of each core out-copy
    if len(rows) > SCIPY_CORE_EDGES:
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import maximum_bipartite_matching

        core = csr_array((np.ones(len(cols), dtype=np.int8), cols, np.append(heads, len(rows))), shape=(len(heads), n))
        match_l = maximum_bipartite_matching(core, perm_type="column")
    else:
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
