"""Congruence layers over the natural numbers and their degree statistics.

The layer with remainder r and ceiling N is the directed graph on the
integers r+1, ..., N with an edge i -> j whenever j % i == r (and, for
r = 0, j != i). Layers with different remainders share one node universe,
which makes the family a multiplex network keyed by remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterator, Mapping

import numpy as np

from .digraph import Digraph, check_graph_size

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class LayerSpec:
    """Identifies one congruence layer: remainder ``r``, largest label ``n``."""

    r: int
    n: int

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError(f"remainder must be non-negative, got {self.r}")
        if self.n < self.r + 2:
            raise ValueError(
                f"ceiling n={self.n} too small for r={self.r}; need n >= r + 2"
            )

    @property
    def node_count(self) -> int:
        return self.n - self.r

    @property
    def numerator(self) -> int:
        """s such that node m has ``s // m - (r == 0)`` successors: n - r, or n for r = 0."""
        return self.n - self.r if self.r > 0 else self.n


def first_successor(m, r: int):
    """Smallest successor of node m (an int or an array) in the layer with remainder r."""
    return m + r if r > 0 else 2 * m


def build_layer(spec: LayerSpec) -> Digraph:
    """Materialize the congruence layer G(r, N).

    Node m links to m+r, 2m+r, ... for r > 0, and to its proper multiples
    2m, 3m, ... for r = 0, all truncated at the ceiling: floor((N-r)/m)
    successors, or floor(N/m) - 1 for r = 0. The layer has ~N ln N edges; a
    layer over GRAPH_SIZE_BUDGET nodes plus edges is refused before any
    array is allocated. Its targets are one in-place running sum over one
    edge-sized array: each row steps by its label, and a row's first slot
    jumps from the previous row's last target to the row's first successor.
    """
    check_graph_size(spec.node_count)  # keeps the O(sqrt n) edge count below small
    check_graph_size(spec.node_count + degree_histogram(spec).degree_sum)
    r, n = spec.r, spec.n
    labels = np.arange(r + 1, n + 1, dtype=np.int64)
    degrees = spec.numerator // labels - (r == 0)
    indptr = np.append(0, np.cumsum(degrees))
    rows = np.flatnonzero(degrees)
    first = first_successor(labels[rows], r) - (r + 1)  # target positions
    last = first + (degrees[rows] - 1) * labels[rows]
    indices = np.repeat(labels, degrees)
    indices[indptr[rows]] = first - np.append(0, last[:-1])
    return Digraph._from_csr(labels, indptr, np.cumsum(indices, out=indices))


@dataclass(frozen=True)
class Chain:
    """An arithmetic progression of node labels linked consecutively in a layer."""

    members: tuple[int, ...]
    step: int

    @property
    def root(self) -> int:
        return self.members[0]

    def __len__(self) -> int:
        return len(self.members)


def extract_chains(spec: LayerSpec) -> list[Chain]:
    """Decompose a layer with r > 0 into its arithmetic-progression chains.

    The node set splits into the progressions i + r, i + 2r, ... for
    i = 1..r; consecutive members differ by r and are therefore layer edges.
    For n >= 2r every progression is non-empty and exactly r chains come
    back, rooted at r+1, ..., 2r; below that, empty progressions are
    dropped. The r = 0 layer has no such decomposition and is rejected.
    """
    if spec.r == 0:
        raise ValueError("the divisibility layer (r=0) has no chain decomposition")
    r, n = spec.r, spec.n
    chains = []
    for i in range(1, r + 1):
        members = tuple(range(i + r, n + 1, r))
        if members:
            chains.append(Chain(members=members, step=r))
    return chains


@dataclass(frozen=True)
class DegreeHistogram:
    """Out-degree counts over every node of a layer."""

    counts: Mapping[int, int]
    total_nodes: int

    def empirical_p(self, k: int) -> float:
        return self.counts.get(k, 0) / self.total_nodes

    @property
    def degree_sum(self) -> int:
        return sum(k * c for k, c in self.counts.items())


def _floor_runs(s: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Yield ``(s // m, run length)`` over the maximal runs of m in lo..hi with constant s // m.

    s // m takes at most 2 sqrt(s) values and is 0 for every m > s: at most 2 sqrt(s) + 1 runs.
    """
    m = lo
    while m <= hi:
        q = s // m
        last = min(hi, s // q) if q else hi
        yield q, last - m + 1
        m = last + 1


def degree_histogram(spec: LayerSpec) -> DegreeHistogram:
    """Out-degree histogram of a layer from arithmetic alone, in O(sqrt n) for n up to 10^12.

    Node m has ``s // m - (r == 0)`` successors (``s = spec.numerator``), one
    histogram entry per run of consecutive m with equal degree; no graph is built.
    """
    if spec.n > 10**12:
        raise ValueError(f"degree histogram is limited to n <= 10^12, got n={spec.n}")
    counts = {q - (spec.r == 0): c for q, c in _floor_runs(spec.numerator, spec.r + 1, spec.n)}
    return DegreeHistogram(counts=counts, total_nodes=spec.node_count)


def theoretical_pk(r: int, k: int) -> float:
    """Limiting out-degree probability P(k) of an infinite layer.

    For r > 0 the fraction of nodes with out-degree k is
    1 / (k (k+1)), defined for k >= 1; for the divisibility layer (r = 0)
    it is 1 / ((k+1) (k+2)), defined for k >= 0. Both decay as 1/k^2, so
    every layer is scale-free with exponent 2.
    """
    if r < 0:
        raise ValueError(f"remainder must be non-negative, got {r}")
    if r > 0:
        if k < 1:
            raise ValueError(f"degree law for r>0 layers is defined for k >= 1, got k={k}")
        return 1.0 / (k * (k + 1))
    if k < 0:
        raise ValueError(f"degree must be non-negative, got k={k}")
    return 1.0 / ((k + 1) * (k + 2))


def theoretical_average_degree(spec: LayerSpec) -> float:
    """Asymptotic mean out-degree of a layer.

    With C the Euler constant and s = n - r nodes:

        r > 0:  ln(s) + 2C - 1 - (sum_{i=1..r} floor(s / i)) / s
        r = 0:  ln(n) + 2C - 2

    Both come from the Dirichlet estimate sum_{i<=s} floor(s/i)
    ~ s ln(s) + (2C - 1) s; the r > 0 correction removes the terms of the
    first r divisors, which fall outside the node range. The correction is
    summed over runs of constant floor(s / i), in O(sqrt s) whatever r is.
    """
    r, n = spec.r, spec.n
    if r == 0:
        return math.log(n) + 2.0 * EULER_GAMMA - 2.0
    size = n - r
    correction = sum(q * c for q, c in _floor_runs(size, 1, r)) / size
    return math.log(size) + 2.0 * EULER_GAMMA - 1.0 - correction


HISTOGRAM_CSV_HEADER = "k,count,empirical_p,theoretical_p"


def write_histogram_csv(hist: DegreeHistogram, r: int, fh: IO[str]) -> None:
    """Write observed degrees as CSV rows ``k,count,empirical_p,theoretical_p``.

    Only degrees that occur get a row. For r > 0 the k = 0 row carries a
    theoretical value of 0.0: the limiting distribution puts no mass on
    sinks (their fraction r / (n - r) vanishes as n grows).
    """
    fh.write(HISTOGRAM_CSV_HEADER + "\n")
    for k in sorted(hist.counts):
        if r > 0 and k == 0:
            theo = 0.0
        else:
            theo = theoretical_pk(r, k)
        fh.write(f"{k},{hist.counts[k]},{hist.empirical_p(k)!r},{theo!r}\n")
