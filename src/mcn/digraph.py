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
# or edge (335 MB at r=0). Reading that layer's edge list peaks at 370 MB, about
# 28 B per node or edge, and the static-model sampler needs about 90 B (`mcn sf
# --n 200000 --kbar 13`: 241 MB), so a graph at the budget needs at most 1.4 GB.
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
    if a.dtype == np.uint64 and a.size and a.max() >> 63:  # would wrap to a negative int64
        raise ValueError(f"{what} must be below 2^63, got {a.max()}")
    return a.astype(np.int64, copy=False)


def _positions(labels: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``ends`` in the sorted, distinct ``labels``, and where an end is no label: by
    subtraction if the labels are ``lo..hi``, as in every layer and static-model graph."""
    lo, hi = (labels[0], labels[-1]) if labels.size else (1, 0)  # no labels: the empty range 1..0
    if hi - lo == len(labels) - 1:
        return ends - lo, (ends < lo) | (ends > hi)
    pos = labels.searchsorted(ends)
    return pos, labels.take(pos, mode="clip") != ends


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
        pairs = np.array([(m, j) for m in nodes for j in successors[m]]).reshape(-1, 2)
        g = Digraph.from_edges(nodes, pairs)
        bad = g.labels[g.indices] != pairs[:, 1]  # from_edges sorts the rows; a mapping's must already ascend
        if bad.any():
            raise ValueError(f"successor list of node {pairs[np.argmax(bad), 0]} is not strictly increasing")
        self.labels, self.indptr, self.indices = g.labels, g.indptr, g.indices

    @classmethod
    def _from_csr(cls, labels: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> "Digraph":
        """Wrap CSR arrays that are valid by construction, without checking them."""
        g = cls.__new__(cls)
        for a in (labels, indptr, indices):
            a.flags.writeable = False
        g.labels, g.indptr, g.indices = labels, indptr, indices
        return g

    @classmethod
    def from_edges(cls, nodes: Iterable[int], edges: Iterable[tuple[int, int]] | np.ndarray) -> "Digraph":
        """Graph on ``nodes`` with the (i, j) ``edges``, given in any order: the one validating
        constructor, whose errors name the first bad edge in (i, j) order."""
        labels = np.sort(_integers(nodes, "node labels"))  # a bad label is named before a bad edge
        if labels.size and labels[0] < 1:
            raise ValueError(f"node labels must be positive integers, got {int(labels[0])}")
        labels = labels[np.diff(labels, prepend=0) > 0]  # drop repeated labels
        edges = _integers(edges, "edge endpoints").reshape(-1, 2)
        prev, nxt = edges[:-1].T, edges[1:].T
        if not np.all((nxt[0] > prev[0]) | (nxt[0] == prev[0]) & (nxt[1] >= prev[1])):  # as write_edge_list writes
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        i, j = edges.T

        def reject(bad: np.ndarray, message: str) -> None:
            if bad.any():
                raise ValueError(message.format(*edges[int(np.argmax(bad))].tolist()))  # {0}->{1} is the edge i->j

        reject(_positions(labels, i)[1], "edge {0}->{1} starts outside the node set")
        indices, outside = _positions(labels, j)
        reject(outside, "edge {0}->{1} points outside the node set")
        del outside  # before the edge-sized masks below
        reject(i == j, "self-loop on node {0}")  # both ends are nodes, so equal labels are equal positions
        reject(np.append(False, (i[1:] == i[:-1]) & (j[1:] == j[:-1])), "duplicate edge {0}->{1}")
        return cls._from_csr(labels, np.append(i.searchsorted(labels), len(edges)), indices)

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
        pos, outside = _positions(self.labels, keep)
        unknown = keep[outside]
        if unknown.size:
            raise ValueError(f"nodes {unknown[:5].tolist()} are not in the graph")
        mask = np.bincount(pos, minlength=self.num_nodes) > 0
        kept = np.repeat(mask, self.out_degrees) & mask[self.indices]
        indptr = np.cumsum(np.append(False, kept))[self.indptr][np.append(mask, True)]  # kept edges before kept rows
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
# end. A block's temporaries come to about 18 times its size, 8 of them the words
# that take copies; 2^18-byte blocks left the heap fragmented enough to lift the
# layers benchmark's process peak 2-4 MB.
_BLOCK = 1 << 16

# A field of d <= 8 digits is the d high bytes of the little-endian 8-byte word
# that ends where the field ends, most significant digit at the lowest address.
# _DIGIT_MASKS[d] keeps the low nibbles of those bytes, the digits. Each of the
# three _FOLDS then adds every lane (of 1, 2, then 4 digits) to 10, 100 or 10^4
# times the lane before it, and keeps every other sum in a lane twice as wide:
# a word at a time (SWAR), the 8 digits become the field's value.
_DIGIT_MASKS = np.array([0x0F0F0F0F0F0F0F0F >> 8 * (8 - d) << 8 * (8 - d) for d in range(9)], np.uint64)
_LANES = np.uint64(0x00FF00FF00FF00FF), np.uint64(0x0000FFFF0000FFFF)  # kept before the second and third fold
_FOLDS = tuple((np.uint64(10**w << 8 * w | 1), np.uint64(8 * w)) for w in (1, 2, 4))  # (multiplier, shift)

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
        digits = np.zeros((g.num_nodes, w), np.uint8)  # each label's digits, right-aligned and NUL-padded
        x, d = g.labels.copy(), np.empty_like(g.labels)
        for c in range(w - 1, -1, -1):  # a column at a time, so every temporary is node-sized
            np.remainder(x, 10, out=d)
            np.add(d, ord("0"), out=digits[:, c], where=x > 0, casting="unsafe")
            x //= 10
        del x, d
        digits = digits.view(f"V{w}").ravel()
        line = np.dtype([("i", f"V{w}"), ("tab", "u1"), ("j", f"V{w}"), ("lf", "u1")])
        for sources, targets in g._batches():  # positions in range, so "clip" only skips a bounds check
            lines = np.empty(len(sources), line)
            lines["i"], lines["j"] = digits.take(sources, mode="clip"), digits.take(targets, mode="clip")
            lines["tab"], lines["lf"] = 9, 10
            fh.write(lines.tobytes().translate(None, b"\0").decode("ascii"))  # the padding dropped


def _header(first: str):
    """Header, node range and edge rule that a first non-blank line declares; Nones if none.

    The rule takes (i, j) as ints or as int64 arrays and is true where (i, j)
    may be an edge under the header. It calls no numpy function, so the line
    loop checks a line in plain int arithmetic; ``i | (i < 1)`` is ``i``, or
    an odd divisor in place of a ``0`` or negative ``i``, where ``r < i``
    fails anyway.
    """
    if m := _MCN_HEADER.match(first):
        r, n = int(m.group(1)), int(m.group(2))
        check_graph_size(n - r)
        return first, range(r + 1, n + 1), lambda i, j: (r < i) & (i < j) & (j <= n) & (j % (i | (i < 1)) == r)
    if m := _SF_HEADER.match(first):
        n = int(m.group(2))
        check_graph_size(n)
        return first, range(1, n + 1), lambda i, j: (1 <= i) & (i <= n) & (1 <= j) & (j <= n)
    return None, None, None


def _field_values(words: np.ndarray, ends: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """uint64 values of the fields of ``digits`` digits (at most 8 are read) that end with ``words[ends]``."""
    values = words.take(ends)  # take copies the strided words first, 8 bytes per byte of the block
    for mask, (multiplier, shift) in zip((_DIGIT_MASKS.take(digits, mode="clip"), *_LANES), _FOLDS):
        values &= mask
        values *= multiplier
        values >>= shift
    return values


def _block_values(window: bytes) -> np.ndarray | None:
    """The integers of ``window[8:]``, "i<TAB>j" lines each ended by LF or CRLF.

    ``window[:8]`` may be any bytes. The field that ends before byte ``s`` of
    the block is the 8-byte word ``window[s:s + 8]``, and a field of 9 to 19
    digits adds the words 8 and 16 bytes before it. Returns None if any line
    may be anything else, or has a field of more than 19 digits or above 2^63-1.
    """
    if window.find(b"\r", 8) >= 0:  # a one-byte scan, about 60 times faster than the two-byte search in replace
        window = bytes(8) + window[8:].replace(b"\r\n", b"\n")
    b = np.frombuffer(window, np.uint8, offset=8)
    seps = np.flatnonzero(b < ord("0"))
    digits = np.empty_like(seps)  # digits just before each separator
    digits[:1] = seps[:1]
    np.subtract(seps[1:], seps[:-1] + 1, out=digits[1:])
    if len(seps) % 2 or b.max() > ord("9") or (b[seps].view("<u2") != 0x0A09).any():  # TAB, then LF
        return None
    fewest, most = digits.min(), digits.max()
    if fewest < 1 or most > 19:
        return None
    words = np.ndarray(len(window) - 7, "<u8", window, strides=1)  # words[s] ends before byte s of the block
    values = _field_values(words, seps, digits)
    for k in range(1, (most + 7) // 8):  # the 8 digits before, in fields of more than 8 k digits
        long = np.flatnonzero(digits > 8 * k)
        values[long] += _field_values(words, seps[long] - 8 * k, digits[long] - 8 * k) * np.uint64(10 ** (8 * k))
    values = values.view(np.int64)  # at most 10^19 - 1, so a value above 2^63 - 1 is negative here
    return None if most == 19 and values.min() < 0 else values


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
        lead = max(0, body - 8)  # the 8 bytes before the block, zeros before byte 0
        # bytes + b"" is the bytes itself, so only a first block at byte 0 or a last one without LF is copied twice
        window = bytes(8 - body + lead) + data[lead:end] + (b"" if data[end - 1] == 10 else b"\n")
        values = _block_values(window)
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
    pairs = array("q")  # i, j, i, j, ...
    for lineno, line in chain((first,), lines):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            a, b = line.split("\t")  # a wrong field count raises here too
            i, j = int(a), int(b)
            pairs.append(i)  # an endpoint beyond int64 raises OverflowError here
            pairs.append(j)
        except (ValueError, OverflowError):
            raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}") from None
        if fits is not None and not fits(i, j):
            raise ValueError(f"line {lineno}: edge {i}->{j} is not an edge of {header!r}")
    return nodes, np.frombuffer(pairs, np.int64).reshape(-1, 2)


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
    return Digraph.from_edges(np.ravel(edges) if nodes is None else np.arange(nodes.start, nodes.stop), edges)
