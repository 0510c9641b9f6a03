"""Simultaneous congruences: graphical solution and Garner cross-check.

A system x = r_i (mod m_i) with pairwise coprime moduli has one solution
x0 in [0, M), M the product of the moduli. Two solvers are provided:

* graphical: in the congruence layer with remainder r_i, the successors of
  node m_i are exactly the candidates exceeding m_i, so the smallest common
  successor of the moduli nodes across their layers is a witness for the
  solution; reducing it mod M recovers x0. It is found by intersecting
  the successor lists one node at a time (search by sieving).
* Garner: classic mixed-radix reconstruction via modular inverses of the
  partial modulus products, kept as the independent cross-check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations

from .layers import first_successor

MAX_MODULUS_PRODUCT = 1 << 63
# The graphical search takes at most the sum of the non-largest moduli in
# steps; above this many it refuses up front instead of running for minutes.
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
    """Reject systems beyond native-integer scale or without a unique solution."""
    product = 1
    for c in system.items:  # moduli >= 2: over 2^63 within 63 factors, before any gcd
        product *= c.modulus
        if product >= MAX_MODULUS_PRODUCT:
            raise ValueError("modulus product exceeds the supported bound 2^63")
    for a, b in combinations((c.modulus for c in system.items), 2):
        g = math.gcd(a, b)
        if g != 1:
            raise NonCoprimeModuliError(a, b, g)


@dataclass(frozen=True)
class CrtSolution:
    """Canonical solution x0 in [0, M), with the graphical witness if one was found."""

    x0: int
    modulus_product: int
    witness: int | None
    method: str

    def to_json(self) -> str:
        payload = {k: v for k, v in vars(self).items() if v is not None}
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

    The search starts at the first successor x of the largest-modulus node
    m* in its layer r*, with period m*. For each other congruence it steps
    x by the period until x = r_i (mod m_i), then multiplies the period by
    m_i. The period is coprime to m_i, so this takes fewer than m_i steps,
    and x stays the smallest number above m* that satisfies every
    congruence so far. As m* exceeds every other m_i, the final x is a
    successor of every moduli node: it is the minimum of the intersection
    of their successor lists, and x0 is this witness reduced mod M.

    Raises ValueError, before searching, when the step bound, the sum of
    the moduli other than m*, exceeds GRAPHICAL_STEP_BUDGET.
    """
    validate_system(system)
    big_m = system.modulus_product
    top = max(system.items, key=lambda c: c.modulus)
    others = [c for c in system.items if c is not top]
    steps = sum(c.modulus for c in others)
    if steps > GRAPHICAL_STEP_BUDGET:
        raise ValueError(
            f"graphical search would take about {steps} steps, over the budget of "
            f"{GRAPHICAL_STEP_BUDGET}; use --method garner"
        )
    witness, period = first_successor(top.modulus, top.remainder), top.modulus
    for c in others:
        while witness % c.modulus != c.remainder:
            witness += period
        period *= c.modulus
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
