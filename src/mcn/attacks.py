"""Node-removal attacks on controllability, and a scale-free baseline.

An attack removes a fraction p of the nodes, either uniformly at random or
targeting the highest out-degrees, and tracks the driver-node density of
the surviving induced subgraph. The static-model generator provides
directed scale-free comparison graphs with matched size and mean degree.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys
from dataclasses import dataclass
from enum import Enum
from typing import IO

import numpy as np

from .control import _max_matching
from .digraph import Digraph, check_graph_size


# Nodes plus edges of g that one union of attack-trial survivors may hold.
# Matching survivors together pays the peel's per-round numpy calls once per
# union, not once per trial. Random and targeted curves (6 points, 5 trials,
# 3 seeds) on the layers r = 1, 2, 3 at N = 500, 1000, 2000 and an SF graph of
# each one's size and mean degree took 1.19 s one trial at a time and
# 0.83 / 0.78 / 0.76 / 0.78 s at 2^15 / 2^16 / 2^17 / 2^18, with tracemalloc
# peaks of 0.3 / 0.8 / 1.4 / 2.7 / 4.9 MiB (min of 9 runs, Python 3.11, numpy
# 2.4, shared 2-CPU VM): past 2^16 the peak doubles for no clear gain. A union's
# whole core is matched at once, so SF graphs of mean degree 12 peak
# at 1.3 / 1.9 / 3.7 / 7.1 / 12.7 MiB on the same scale.
UNION_SIZE = 1 << 16


class AttackStrategy(str, Enum):
    RANDOM = "random"
    TARGETED = "targeted"


def _removal(g: Digraph, strategy: AttackStrategy):
    """How one trial picks the positions it removes, as a function of (count, seed).

    A random attack draws a uniform subset of ``count`` positions from the
    seed; a targeted one takes the first ``count`` of one order, highest
    out-degree first and ties broken by ascending label, computed here once.
    """
    if strategy is AttackStrategy.TARGETED:
        order = np.lexsort((g.labels, -g.out_degrees))
        return lambda count, seed: order[:count]
    return lambda count, seed: np.random.default_rng(seed).choice(g.num_nodes, size=count, replace=False)


def remove_nodes(
    g: Digraph,
    strategy: AttackStrategy | str,
    p: float,
    seed: int | tuple[int, ...] = 0,
) -> Digraph:
    """Induced subgraph after removing floor(p * n) nodes; ``g`` itself if that is 0.

    Random attacks draw a uniform node subset from the seed; targeted
    attacks deterministically remove the top nodes by out-degree, ties
    broken by ascending label (degrees in congruence layers decrease with
    the label, so ties never arise there). ``attack_curve`` removes the
    same nodes for the same seed, without building the subgraph.
    """
    strategy = AttackStrategy(strategy)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"removal fraction must lie in [0, 1), got {p}")
    count = math.floor(p * g.num_nodes)
    if count == 0:
        return g
    return g.subgraph(np.delete(g.labels, _removal(g, strategy)(count, seed)))


def _copies(a: np.ndarray, blocks: int, n: int) -> np.ndarray:
    """``a``, node positions of g, for each of ``blocks`` copies of g, copy b shifted by b * n."""
    return a if blocks == 1 else (a + np.arange(blocks, dtype=np.int32)[:, None] * n).ravel()


def _free_in_copies(g: Digraph, keep: np.ndarray) -> np.ndarray:
    """Free in-copies of the survivors of ``g`` whose nodes ``keep`` marks, as a (survivors, n) bool array.

    Row b marks the drivers of survivor b before the at-least-one rule. The
    survivors are matched together as one graph, the disjoint union of
    copies of g, block b holding g's positions shifted by b * n, so a removed
    node is an isolated copy that no row marks. A maximum matching of the
    union is one of every block, so row b holds as many marks as survivor b
    has drivers alone, though not always the same ones.
    """
    blocks, n = keep.shape
    flat = keep.ravel()
    cols = _copies(g.indices, blocks, n)
    kept = slice(None)  # nothing removed: the edges go in as they are, uncopied
    if not flat.all():
        kept = np.repeat(flat, np.tile(g.out_degrees, blocks)) & flat[cols]  # edges between two kept nodes
    match = _max_matching(  # unnamed, so the peel frees the edges as it drops them
        _copies(np.repeat(np.arange(n, dtype=np.int32), g.out_degrees), blocks, n)[kept], cols[kept], n * blocks)[0]
    return (match < 0).reshape(blocks, n) & keep


def _trials(g: Digraph, strategy: AttackStrategy, p_grid: list[float], trials: int, seed: int):
    """Yield (grid index, survivor's node count, its free in-copies) for each trial, in (point, trial) order.

    A point that removes nothing is one trial. Consecutive survivors go to
    ``_free_in_copies`` together, at most ``UNION_SIZE`` nodes plus edges of
    ``g`` at a time (one survivor when ``g`` alone is larger).
    """
    n = g.num_nodes
    removal = _removal(g, strategy)
    draws = (
        (ip, count, removal(count, (seed, ip, t)) if count else None)
        for ip, count in enumerate(math.floor(p * n) for p in p_grid)
        for t in range(trials if count else 1)
    )
    per_union = max(1, UNION_SIZE // max(1, n + g.num_edges))
    while group := list(itertools.islice(draws, per_union)):
        keep = np.ones((len(group), n), dtype=bool)
        for b, (_, _, positions) in enumerate(group):
            if positions is not None:
                keep[b, positions] = False
        for (ip, count, _), free in zip(group, _free_in_copies(g, keep)):
            yield ip, n - count, free


@dataclass(frozen=True)
class AttackPoint:
    p: float
    nd_mean: float
    nd_std: float
    trials: int


@dataclass(frozen=True)
class AttackCurve:
    """Driver-node density as a function of the removed fraction."""

    points: tuple[AttackPoint, ...]
    strategy: AttackStrategy
    source: str
    seed: int

    def to_csv(self, fh: IO[str]) -> None:
        fh.write(f"# source={self.source} seed={self.seed}\n")
        fh.write("p,nd_mean,nd_std,trials,strategy\n")
        for pt in self.points:
            fh.write(
                f"{pt.p!r},{pt.nd_mean!r},{pt.nd_std!r},{pt.trials},{self.strategy.value}\n"
            )


def attack_curve(
    g: Digraph,
    strategy: AttackStrategy | str,
    p_grid: list[float],
    trials: int = 50,
    seed: int = 0,
    source: str | None = None,
) -> AttackCurve:
    """Sample driver density over a grid of removal fractions.

    Each (grid point, trial) pair derives its own seed from the master
    seed and removes the nodes ``remove_nodes`` removes with that seed, so
    the curve is bit-identical no matter how trials are scheduled. Targeted
    attacks are deterministic and run a single trial per point, and a point
    that removes nothing is matched once. No subgraph is built: consecutive
    survivors are matched together as the blocks of one disjoint union of
    at most ``UNION_SIZE`` nodes plus edges of ``g`` (one survivor at a time
    when ``g`` is larger). Each trial gets a maximum matching of its
    survivor, so its driver count, and the curve, equal those of the
    survivor matched alone, while its free in-copies may differ.
    """
    strategy = AttackStrategy(strategy)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if strategy is AttackStrategy.TARGETED:
        trials = 1
    for a, b in zip(p_grid, p_grid[1:]):
        if not a < b:
            raise ValueError("removal fractions must be strictly increasing")
    if p_grid and not (0.0 <= p_grid[0] and p_grid[-1] < 1.0):
        raise ValueError("removal fractions must lie in [0, 1)")
    if source is None:
        source = f"digraph(nodes={g.num_nodes},edges={g.num_edges})"

    if p_grid and not g.num_nodes:
        raise ValueError("graph has no nodes")
    densities: list[list[float]] = [[] for _ in p_grid]
    for ip, size, free in _trials(g, strategy, p_grid, trials, seed):
        densities[ip].append(max(1, np.count_nonzero(free)) / size)
    points = []
    for p, ds in zip(p_grid, densities):
        if len(ds) == 1:  # nothing removed, matched once: every trial would match g
            ds *= trials
        points.append(
            AttackPoint(
                p=p,
                nd_mean=statistics.fmean(ds),
                nd_std=statistics.pstdev(ds),
                trials=trials,
            )
        )
    return AttackCurve(points=tuple(points), strategy=strategy, source=source, seed=seed)


@dataclass(frozen=True)
class StaticModelSpec:
    """Directed static-model scale-free graph: n nodes, exponent gamma, mean degree kbar."""

    n: int
    gamma: float
    kbar: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        if not self.gamma > 2.0:
            raise ValueError(f"degree exponent must exceed 2, got {self.gamma}")
        if not 0.0 < self.kbar < math.inf:
            raise ValueError(f"target mean degree must be positive and finite, got {self.kbar}")
        # an n above the largest float cannot be converted; the product can still overflow to inf
        if self.n > sys.float_info.max or math.isinf(self.kbar * self.n):
            raise ValueError(f"target edge count kbar * n overflows a float, got kbar={self.kbar}, n={self.n}")

    @property
    def num_edges(self) -> int:
        return round(self.kbar * self.n)


def generate_static_sf(spec: StaticModelSpec) -> Digraph:
    """Directed static-model graph with power-law in- and out-degrees.

    Node i carries weight i^(-alpha) with alpha = 1/(gamma - 1); source and
    target of each edge are drawn independently in proportion to the
    weights until round(kbar * n) distinct non-loop edges exist, which makes
    both degree sequences follow exponent gamma asymptotically. Self-loops
    and duplicates are redrawn, within a budget of 100 * m draws.
    """
    n, m = spec.n, spec.num_edges
    if m > n * (n - 1):
        raise ValueError(f"{m} edges requested but only {n * (n - 1)} are possible")
    check_graph_size(n + m)
    alpha = 1.0 / (spec.gamma - 1.0)
    prob = np.fromiter((float(i) ** -alpha for i in range(1, n + 1)), np.float64, n)  # libm pow, not numpy's
    prob /= math.fsum(prob)

    rng = np.random.default_rng(spec.seed)
    codes = np.empty(0, dtype=np.int64)  # distinct edges s * n + t, in first-draw order
    budget = 100 * m
    used = 0
    while len(codes) < m:
        if used >= budget:
            raise RuntimeError(
                f"edge budget not reached after {budget} draws "
                f"({len(codes)}/{m} edges); graph too dense for this weight law"
            )
        chunk = min(max(4096, 2 * (m - len(codes))), budget - used)
        drawn = rng.choice(n, size=chunk, p=prob) * n + rng.choice(n, size=chunk, p=prob)  # s * n + t
        used += chunk
        drawn = np.concatenate((codes, drawn[drawn % (n + 1) != 0]))  # s == t exactly when n + 1 divides s * n + t
        order = np.argsort(drawn, kind="stable")
        first = np.sort(order[np.diff(drawn[order], prepend=-1) != 0])  # first draw of each code
        codes = drawn[first][:m]

    codes.sort()
    indptr = np.searchsorted(codes // n, np.arange(n + 1))
    return Digraph._from_csr(np.arange(1, n + 1, dtype=np.int64), indptr, codes % n)
