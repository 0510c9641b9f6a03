"""Node-removal attacks on controllability, and a scale-free baseline.

An attack removes a fraction p of the nodes, either uniformly at random or
targeting the highest out-degrees, and tracks the driver-node density of
the surviving induced subgraph. The static-model generator provides
directed scale-free comparison graphs with matched size and mean degree.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import IO

import numpy as np

from .control import min_drivers_matching
from .digraph import Digraph, check_graph_size


class AttackStrategy(str, Enum):
    RANDOM = "random"
    TARGETED = "targeted"


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
    the label, so ties never arise there).
    """
    strategy = AttackStrategy(strategy)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"removal fraction must lie in [0, 1), got {p}")
    count = math.floor(p * g.num_nodes)
    if count == 0:
        return g
    if strategy is AttackStrategy.TARGETED:
        positions = np.lexsort((g.labels, -g.out_degrees))[:count]
    else:
        positions = np.random.default_rng(seed).choice(g.num_nodes, size=count, replace=False)
    return g.subgraph(np.delete(g.labels, positions))


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
    seed, so the curve is bit-identical no matter how trials are scheduled.
    Targeted attacks are deterministic and run a single trial per point.
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

    points = []
    for ip, p in enumerate(p_grid):
        densities = []
        for t in range(trials):
            survivor = remove_nodes(g, strategy, p, seed=(seed, ip, t))
            densities.append(min_drivers_matching(survivor).density)
            if survivor is g:  # nothing removed: every trial would match the same graph
                densities *= trials
                break
        points.append(
            AttackPoint(
                p=p,
                nd_mean=statistics.fmean(densities),
                nd_std=statistics.pstdev(densities),
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
        sources = rng.choice(n, size=chunk, p=prob)
        targets = rng.choice(n, size=chunk, p=prob)
        used += chunk
        drawn = np.concatenate((codes, (sources * n + targets)[sources != targets]))
        order = np.argsort(drawn, kind="stable")
        first = np.sort(order[np.diff(drawn[order], prepend=-1) != 0])  # first draw of each code
        codes = drawn[first][:m]

    codes.sort()
    indptr = np.searchsorted(codes // n, np.arange(n + 1))
    return Digraph._from_csr(np.arange(1, n + 1, dtype=np.int64), indptr, codes % n)
