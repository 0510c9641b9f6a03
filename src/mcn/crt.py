"""Simultaneous congruences: graphical solution and Garner cross-check.

A system x = r_i (mod m_i) with pairwise coprime moduli has one solution
x0 in [0, M), M the product of the moduli. Two solvers are provided:

* graphical: in the congruence layer with remainder r_i, the successors of
  node m_i are exactly the candidates exceeding m_i, so the smallest common
  successor of the moduli nodes across their layers is a witness for the
  solution; reducing it mod M recovers x0. It is found by walking the
  successor list of the largest-modulus node and testing each successor
  against the other congruences.
* Garner: classic mixed-radix reconstruction via modular inverses of the
  partial modulus products.

The graphical route is a brute-force walk of at most (M + max m) // max m
steps and exists for its explanatory value; Garner is the algebraic
reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import combinations

from .layers import first_successor

MAX_MODULUS_PRODUCT = 1 << 63
# The graphical walk visits at most (M + max m) // max m successors; above
# this many it refuses up front instead of running for minutes.
GRAPHICAL_STEP_BUDGET = 10**6


class NonCoprimeModuliError(ValueError):
    """The moduli share a factor, so no unique solution mod M exists."""

    def __init__(self, a: int, b: int, g: int):
        super().__init__(f"moduli {a} and {b} are not coprime (gcd {g})")
        self.pair = (a, b)
        self.gcd = g


@dataclass(frozen=True)
class Congruence:
    """One equation x = remainder (mod modulus)."""

    remainder: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {self.modulus}")
        if not 0 <= self.remainder < self.modulus:
            raise ValueError(
                f"remainder {self.remainder} out of range for modulus {self.modulus}"
            )


@dataclass(frozen=True)
class CongruenceSystem:
    items: tuple[Congruence, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("system must contain at least one congruence")

    @classmethod
    def from_pairs(cls, pairs: list[tuple[int, int]]) -> "CongruenceSystem":
        """Build from (remainder, modulus) pairs."""
        return cls(tuple(Congruence(r, m) for r, m in pairs))

    @property
    def modulus_product(self) -> int:
        return math.prod(c.modulus for c in self.items)


def validate_system(system: CongruenceSystem) -> None:
    """Reject systems without a unique solution or beyond native-integer scale."""
    for a, b in combinations((c.modulus for c in system.items), 2):
        g = math.gcd(a, b)
        if g != 1:
            raise NonCoprimeModuliError(a, b, g)
    if system.modulus_product >= MAX_MODULUS_PRODUCT:
        raise ValueError(
            f"modulus product {system.modulus_product} exceeds the "
            f"supported bound 2^63"
        )


@dataclass(frozen=True)
class CrtSolution:
    """Canonical solution x0 in [0, M), with the graphical witness if one was found."""

    x0: int
    modulus_product: int
    witness: int | None
    method: str

    def to_json(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if v is not None}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def successor_set(r: int, m: int, limit: int) -> list[int]:
    """Successors of node m in the layer with remainder r, up to the limit.

    These are the numbers m + r, 2m + r, ... that exceed m and do not
    exceed the limit: precisely the x = r (mod m) with m < x <= limit.
    """
    if r < 0:
        raise ValueError(f"remainder must be non-negative, got {r}")
    if m <= r:
        raise ValueError(f"node {m} is absent from the layer with remainder {r}")
    if limit < m:
        raise ValueError(f"limit {limit} is below node {m}")
    return list(range(first_successor(m, r), limit + 1, m))


def solve_graphical(system: CongruenceSystem) -> CrtSolution:
    """Solve by finding the smallest common successor of the moduli nodes.

    The search walks the successor list of the largest-modulus node m* in
    its layer r*, lazily, up to the layer ceiling N = M + m*, and stops at
    the first x with x = r_i (mod m_i) for every other congruence. Every x
    on the walk exceeds m*, which exceeds every other m_i, so that x is a
    successor of every moduli node: it is the minimum of the intersection
    of successor_set(r_i, m_i, N). The CRT places exactly one solution in
    (m*, m* + M], so the walk always hits; the ceiling extends one period
    beyond M because successors are strictly larger than their node, and
    x0 is the witness reduced mod M.

    Raises ValueError, before searching, when the walk's length bound
    (M + max m) // max m exceeds GRAPHICAL_STEP_BUDGET.
    """
    validate_system(system)
    big_m = system.modulus_product
    top = max(system.items, key=lambda c: c.modulus)
    steps = (big_m + top.modulus) // top.modulus
    if steps > GRAPHICAL_STEP_BUDGET:
        raise ValueError(
            f"graphical search would take about {steps} steps, over the budget of "
            f"{GRAPHICAL_STEP_BUDGET}; use --method garner"
        )
    ceiling = big_m + top.modulus
    walk = range(first_successor(top.modulus, top.remainder), ceiling + 1, top.modulus)
    others = [(c.remainder, c.modulus) for c in system.items if c is not top]
    witness = next(x for x in walk if all(x % m == r for r, m in others))
    return CrtSolution(
        x0=witness % big_m,
        modulus_product=big_m,
        witness=witness,
        method="graphical",
    )


def solve_garner(system: CongruenceSystem) -> CrtSolution:
    """Solve by Garner's mixed-radix reconstruction.

    Builds x = c_1 + c_2 m_1 + c_3 m_1 m_2 + ... where each digit comes
    from one modular inverse of the partial product; the result lies in
    [0, M) by construction.
    """
    validate_system(system)
    x = 0
    partial = 1
    for c in system.items:
        digit = ((c.remainder - x) * pow(partial, -1, c.modulus)) % c.modulus
        x += digit * partial
        partial *= c.modulus
    return CrtSolution(
        x0=x,
        modulus_product=partial,
        witness=None,
        method="garner",
    )
