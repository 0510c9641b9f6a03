"""Immutable sparse directed graphs with natural-number node labels."""

from __future__ import annotations

import re
from array import array
from collections.abc import Iterable, Mapping
from contextlib import nullcontext
from itertools import chain
from typing import IO, Union

import numpy as np

_BATCH = 1 << 16  # Digraph.edges() turns this many edges into Python ints at a time

# Nodes plus edges one graph may hold. `mcn control --r 1 --n 1000000` builds and
# matches 1.0M nodes and 13.0M edges at a 271 MB process peak, about 20 B per node
# or edge (335 MB at r=0). Reading that layer's edge list peaks at 982 MB, about
# 70 B per node or edge, and the static-model sampler needs about 105 B (`mcn sf
# --n 200000 --kbar 13`: 321 MB), so a graph at the budget needs at most 1.5 GB.
GRAPH_SIZE_BUDGET = 15 * 10**6


def check_graph_size(size: int) -> None:
    """Refuse, before allocating, a graph of ``size`` nodes plus edges over the budget."""
    if size > GRAPH_SIZE_BUDGET:
        raise ValueError(
            f"graph of at least {size} nodes plus edges is over GRAPH_SIZE_BUDGET "
            f"= {GRAPH_SIZE_BUDGET}; use a smaller --n"
        )


def _integers(values: Iterable[int] | np.ndarray, what: str) -> np.ndarray:
    """``values`` as an int64 array; anything but integers is rejected."""
    a = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be 64-bit integers, not {a.dtype}")
    return a.astype(np.int64, copy=False)


def _csr(nodes: Iterable[int], pairs: Iterable[tuple[int, int]] | np.ndarray):
    """Validate a simple digraph and return its arrays ``(labels, indptr, indices)``.

    ``pairs`` lists the edges (i, j) grouped by ascending source, each
    source's targets in strictly increasing order; a repeated edge is named
    as a duplicate. Every validating constructor funnels through here.
    """
    labels = np.sort(_integers(nodes, "node labels"))
    if labels.size and labels[0] < 1:
        raise ValueError(f"node labels must be positive integers, got {int(labels[0])}")
    labels = labels[np.diff(labels, prepend=0) > 0]  # drop repeated labels
    edges = _integers(pairs, "edge endpoints").reshape(-1, 2)
    src, dst = np.searchsorted(labels, edges[:, 0]), np.searchsorted(labels, edges[:, 1])

    def reject(bad: np.ndarray, message: str) -> None:
        if bad.any():
            i, j = edges[int(np.argmax(bad))].tolist()
            raise ValueError(message.format(i=i, j=j))

    reject(~np.isin(edges[:, 0], labels), "edge {i}->{j} starts outside the node set")
    reject(~np.isin(edges[:, 1], labels), "edge {i}->{j} points outside the node set")
    reject(src == dst, "self-loop on node {i}")
    same_row = src[1:] == src[:-1]
    reject(np.append(False, same_row & (dst[1:] == dst[:-1])), "duplicate edge {i}->{j}")
    reject(np.append(False, same_row & (dst[1:] < dst[:-1])), "successor list of node {i} is not strictly increasing")
    return labels, np.searchsorted(src, np.arange(len(labels) + 1)), dst


class Digraph:
    """A simple directed graph in compressed sparse row (CSR) form.

    ``labels`` holds the node labels, positive integers in ascending order
    that need not be contiguous. The successors of ``labels[k]`` are
    ``labels[indices[indptr[k]:indptr[k+1]]]``: ``indices`` stores target
    positions, ascending within each row. The three int64 arrays are
    read-only, so a graph may be shared freely between readers; derived
    graphs (induced subgraphs) are new instances. Self-loops and duplicate
    edges are rejected.
    """

    __slots__ = ("labels", "indptr", "indices")

    def __init__(self, successors: Mapping[int, Iterable[int]]):
        nodes = sorted(successors)
        self._set(*_csr(nodes, [(m, j) for m in nodes for j in successors[m]]))

    def _set(self, *arrays: np.ndarray) -> None:
        for a in arrays:
            a.flags.writeable = False
        self.labels, self.indptr, self.indices = arrays

    @classmethod
    def _from_csr(cls, labels: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> "Digraph":
        """Wrap CSR arrays that are valid by construction, without checking them."""
        g = cls.__new__(cls)
        g._set(labels, indptr, indices)
        return g

    @classmethod
    def from_edges(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]] | np.ndarray) -> "Digraph":
        """Graph on ``nodes`` with the (i, j) ``edges``, given in any order."""
        pairs = _integers(edges, "edge endpoints").reshape(-1, 2)
        prev, nxt = pairs[:-1].T, pairs[1:].T
        if not np.all((nxt[0] > prev[0]) | (nxt[0] == prev[0]) & (nxt[1] >= prev[1])):  # as write_edge_list writes
            pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        return cls._from_csr(*_csr(nodes, pairs))

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(self.labels.tolist())

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every node, aligned with ``labels``."""
        return np.diff(self.indptr)

    def __contains__(self, m: int) -> bool:
        k = np.searchsorted(self.labels, m)
        return bool(k < len(self.labels) and self.labels[k] == m)

    def __len__(self) -> int:
        return len(self.labels)

    def _row(self, m: int) -> np.ndarray:
        """Target positions of node ``m``."""
        if m not in self:
            raise KeyError(f"node {m} is not in the graph")
        k = np.searchsorted(self.labels, m)
        return self.indices[self.indptr[k]:self.indptr[k + 1]]

    def successors(self, m: int) -> tuple[int, ...]:
        return tuple(self.labels[self._row(m)].tolist())

    def out_degree(self, m: int) -> int:
        return len(self._row(m))

    def edges(self):
        """Yield edges as (i, j) pairs of ints in ascending lexicographic order."""
        for a in range(0, self.num_edges, _BATCH):
            b = min(a + _BATCH, self.num_edges)
            k0, k1 = self.indptr.searchsorted((a, b - 1), "right") - 1  # rows of the batch's first and last edge
            sources = np.repeat(self.labels[k0:k1 + 1], np.diff(np.clip(self.indptr[k0:k1 + 2], a, b)))
            yield from zip(sources.tolist(), self.labels[self.indices[a:b]].tolist())

    def subgraph(self, keep: Iterable[int] | np.ndarray) -> "Digraph":
        """Induced subgraph on the given node labels."""
        keep = _integers(keep, "node labels")
        unknown = keep[~np.isin(keep, self.labels)]
        if unknown.size:
            raise ValueError(f"nodes {unknown[:5].tolist()} are not in the graph")
        mask = np.isin(self.labels, keep)
        kept = np.repeat(mask, self.out_degrees) & mask[self.indices]
        before = np.append(0, np.cumsum(kept))  # kept edges ahead of each edge
        indptr = np.append(before[self.indptr[:-1]][mask], before[-1])
        renumber = np.cumsum(mask) - 1
        return Digraph._from_csr(self.labels[mask], indptr, renumber[self.indices[kept]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in self.__slots__)

    def __repr__(self) -> str:
        return f"Digraph(nodes={self.num_nodes}, edges={self.num_edges})"


# --- edge-list file format ---------------------------------------------------
#
# One edge per line, "i<TAB>j", ascending by (i, j). An optional structured
# header line records how the node universe was generated so that isolated
# nodes survive a round trip:
#   "# mcn r=<r> n=<N>"              nodes are r+1 .. N
#   "# sf gamma=<g> n=<N> seed=<s>"  nodes are 1 .. N
# Under a header every edge must join two nodes of that universe, and under
# an mcn header it must also be a layer edge: j > i and j % i == r.

_MCN_HEADER = re.compile(r"^# mcn r=(\d+) n=(\d+)\s*$")
_SF_HEADER = re.compile(r"^# sf gamma=(\S+) n=(\d+) seed=(\d+)\s*$")

FileOrPath = Union[str, "IO[str]"]


def layer_header(r: int, n: int) -> str:
    return f"# mcn r={r} n={n}"


def sf_header(gamma: float, n: int, seed: int) -> str:
    return f"# sf gamma={gamma:g} n={n} seed={seed}"


def write_edge_list(g: Digraph, file: FileOrPath, header: str | None = None) -> None:
    """Write the graph in the tab-separated edge-list format."""
    with nullcontext(file) if hasattr(file, "write") else open(file, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(header + "\n")
        for i, j in g.edges():
            fh.write(f"{i}\t{j}\n")


def read_edge_list(file: FileOrPath) -> Digraph:
    """Read a graph written by :func:`write_edge_list`.

    A recognised header line reconstructs the full node universe, including
    isolated nodes, and every edge is checked against it; errors name the
    offending line. Without a header, the node set is what the edges mention.
    """
    with nullcontext(file) if hasattr(file, "read") else open(file, "r", encoding="utf-8") as fh:
        header = nodes = fits = None  # a recognised header, its node range and its edge rule
        lines = enumerate(fh, 1)
        # the first non-blank line is the only one that can be a header
        first = next(((lineno, s) for lineno, line in lines if (s := line.strip())), (0, ""))
        if m := _MCN_HEADER.match(first[1]):
            r, n = int(m.group(1)), int(m.group(2))
            check_graph_size(n - r)
            header, nodes = first[1], np.arange(r + 1, n + 1)
            fits = lambda i, j: r < i < j <= n and j % i == r
        elif m := _SF_HEADER.match(first[1]):
            n = int(m.group(2))
            check_graph_size(n)
            header, nodes = first[1], np.arange(1, n + 1)
            fits = lambda i, j: 1 <= i <= n and 1 <= j <= n
        sources, targets = array("q"), array("q")
        for lineno, line in chain((first,), lines):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                a, b = line.split("\t")  # a wrong field count raises here too
                i, j = int(a), int(b)
                sources.append(i)  # an endpoint beyond int64 raises OverflowError here
                targets.append(j)
            except (ValueError, OverflowError):
                raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}") from None
            if fits is not None and not fits(i, j):
                raise ValueError(f"line {lineno}: edge {i}->{j} is not an edge of {header!r}")
        edges = np.column_stack((sources, targets))
        return Digraph.from_edges(np.ravel(edges) if nodes is None else nodes, edges)
