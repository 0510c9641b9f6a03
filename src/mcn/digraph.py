"""Immutable sparse directed graphs with natural-number node labels."""

from __future__ import annotations

import io
import re
from array import array
from collections.abc import Iterable, Mapping
from contextlib import nullcontext
from itertools import chain
from typing import IO, Union

import numpy as np

_BATCH = 1 << 16  # edges that Digraph.edges() and write_edge_list handle at a time

# Nodes plus edges one graph may hold. `mcn control --r 1 --n 1000000` builds and
# matches 1.0M nodes and 13.0M edges at a 271 MB process peak, about 20 B per node
# or edge (335 MB at r=0). Reading that layer's edge list peaks at 562 MB, about
# 40 B per node or edge, and the static-model sampler needs about 105 B (`mcn sf
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


def _outside(labels: np.ndarray, pos: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """True where ``ends`` is not in the sorted ``labels``, given ``pos = labels.searchsorted(ends)``."""
    return labels.take(pos, mode="clip") != ends if labels.size else np.ones(len(ends), dtype=bool)


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

    reject(_outside(labels, src, edges[:, 0]), "edge {i}->{j} starts outside the node set")
    reject(_outside(labels, dst, edges[:, 1]), "edge {i}->{j} points outside the node set")
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

    def _batches(self):
        """Yield the source and target positions of the edges, ``_BATCH`` edges at a time."""
        for a in range(0, self.num_edges, _BATCH):
            b = min(a + _BATCH, self.num_edges)
            k0, k1 = self.indptr.searchsorted((a, b - 1), "right") - 1  # rows of the batch's first and last edge
            yield np.repeat(np.arange(k0, k1 + 1), np.diff(np.clip(self.indptr[k0:k1 + 2], a, b))), self.indices[a:b]

    def edges(self):
        """Yield edges as (i, j) pairs of ints in ascending lexicographic order."""
        for sources, targets in self._batches():
            yield from zip(self.labels[sources].tolist(), self.labels[targets].tolist())

    def subgraph(self, keep: Iterable[int] | np.ndarray) -> "Digraph":
        """Induced subgraph on the given node labels."""
        keep = _integers(keep, "node labels")
        pos = self.labels.searchsorted(keep)
        unknown = keep[_outside(self.labels, pos, keep)]
        if unknown.size:
            raise ValueError(f"nodes {unknown[:5].tolist()} are not in the graph")
        mask = np.bincount(pos, minlength=self.num_nodes) > 0
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

# Bytes of the body read_edge_list parses at a time, extended to the next line
# end. A block's temporaries come to a few times its size; 2^18-byte blocks left
# the heap fragmented enough to lift the layers benchmark's process peak 2-4 MB.
_BLOCK = 1 << 16
_INT64_MAX = np.iinfo(np.int64).max

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
        if not g.num_edges:
            return
        w = len(str(int(g.labels[-1])))
        digits = g.labels.astype(f"S{w}").view(np.uint8).reshape(-1, w)  # each label's digits, NUL-padded
        for sources, targets in g._batches():
            lines = np.empty((len(sources), 2 * w + 2), np.uint8)
            lines[:, :w], lines[:, w], lines[:, w + 1:-1], lines[:, -1] = digits[sources], 9, digits[targets], 10
            fh.write(lines[lines != 0].tobytes().decode("ascii"))


def _header(first: str):
    """Header, node range and edge rule that a first non-blank line declares; Nones if none.

    The rule takes (i, j) as ints or as int64 arrays and is true where (i, j)
    may be an edge under the header.
    """
    if m := _MCN_HEADER.match(first):
        r, n = int(m.group(1)), int(m.group(2))
        check_graph_size(n - r)
        return first, np.arange(r + 1, n + 1), lambda i, j: (r < i) & (i < j) & (j <= n) & (j % np.maximum(i, 1) == r)
    if m := _SF_HEADER.match(first):
        n = int(m.group(2))
        check_graph_size(n)
        return first, np.arange(1, n + 1), lambda i, j: (1 <= i) & (i <= n) & (1 <= j) & (j <= n)
    return None, None, None


def _block_values(block: bytes) -> np.ndarray | None:
    """The integers of ``block``, "i<TAB>j" lines each ended by LF or CRLF.

    Returns None if any line may be anything else, or has a field of more
    than 19 digits or at 2^63-1, where ``np.fromstring`` saturates.
    """
    block = block.replace(b"\r\n", b"\n")
    b = np.frombuffer(block, np.uint8)
    seps = np.flatnonzero(b < ord("0"))
    kind, digits = b[seps], np.diff(seps, prepend=-1) - 1  # digits just before each separator
    if (b.max() > ord("9") or (kind[0::2] != 9).any() or (kind[1::2] != 10).any()
            or digits.min() < 1 or digits.max() > 19):
        return None
    values = np.fromstring(block, dtype=np.int64, sep=" ")
    return None if (values == _INT64_MAX).any() else values


def _read_blocks(data: bytes):
    """Node range (None without a header) and (E, 2) edges of ``data`` in the layout
    write_edge_list writes, parsed ``_BLOCK`` bytes at a time; None for any other."""
    body, nodes, fits = 0, None, None
    if data.startswith(b"#"):  # the writer puts a header on line 1 or nowhere
        body = data.find(b"\n") + 1 or len(data)
        if not data[:body].isascii():
            return None
        header, nodes, fits = _header(data[:body].decode("ascii").strip())
        if header is None:
            return None
    edges = np.empty((data.count(b"\t", body), 2), np.int64)
    flat, filled = edges.reshape(-1), 0
    while body < len(data):
        end = data.find(b"\n", body + _BLOCK - 1) + 1 or len(data)
        values = _block_values(data[body:end] if data[end - 1] == 10 else data[body:] + b"\n")
        if values is None or fits is not None and not fits(values[0::2], values[1::2]).all():
            return None
        flat[filled:filled + len(values)] = values
        filled, body = filled + len(values), end
    return nodes, edges


def _read_lines(fh: Iterable[str]):
    """Node range (None without a header) and (E, 2) edges of the lines of ``fh``,
    one line at a time; the first bad line raises a ValueError naming it."""
    lines = enumerate(fh, 1)
    # the first non-blank line is the only one that can be a header
    first = next(((lineno, s) for lineno, line in lines if (s := line.strip())), (0, ""))
    header, nodes, fits = _header(first[1])
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
    return nodes, np.column_stack((sources, targets))


def read_edge_list(file: FileOrPath) -> Digraph:
    """Read a graph written by :func:`write_edge_list`.

    A recognised header line reconstructs the full node universe, including
    isolated nodes, and every edge is checked against it; errors name the
    offending line. Without a header, the node set is what the edges mention.
    A lone CR ends a line, read from a path or from a handle.

    The writer's layout is parsed in numpy blocks; any other layout goes
    through the line loop, which gives the same graph and words the errors.
    """
    if hasattr(file, "read"):
        data, errors = file.read().encode("utf-8", "surrogatepass"), "surrogatepass"
    else:  # a path's decoding errors are those of open(file, encoding="utf-8")
        with open(file, "rb") as fh:
            data, errors = fh.read(), "strict"
    parsed = _read_blocks(data)
    if parsed is None:
        parsed = _read_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors))
    del data  # before the graph's arrays are built
    nodes, edges = parsed
    return Digraph.from_edges(np.ravel(edges) if nodes is None else nodes, edges)
