import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcn import (
    Congruence,
    CongruenceSystem,
    CrtSolution,
    NonCoprimeModuliError,
    solve_garner,
    solve_graphical,
    successor_set,
    validate_system,
)
from mcn.layers import first_successor

PRIMES_BELOW_50 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

SUNZI = CongruenceSystem.from_pairs([(2, 3), (3, 5), (2, 7)])


def scan_solution(system):
    """Oracle: exhaustive scan of [0, M) against every congruence."""
    big_m = system.modulus_product
    xs = np.arange(big_m, dtype=np.int64)
    mask = np.ones(big_m, dtype=bool)
    for c in system.items:
        mask &= (xs % c.modulus) == c.remainder
    hits = np.flatnonzero(mask)
    assert hits.size == 1
    return int(hits[0])


def random_system(rng):
    k = int(rng.integers(1, 5))
    moduli = rng.choice(PRIMES_BELOW_50, size=k, replace=False)
    pairs = [(int(rng.integers(0, m)), int(m)) for m in moduli]
    return CongruenceSystem.from_pairs(pairs)


@st.composite
def coprime_systems(draw):
    """1-4 pairwise coprime moduli in 2..60, composites included, with M <= 2e5."""
    moduli = []
    for _ in range(draw(st.integers(1, 4))):
        product = math.prod(moduli)
        choices = [
            m for m in range(2, 61) if math.gcd(m, product) == 1 and m * product <= 2 * 10**5
        ]
        if not choices:
            break
        moduli.append(draw(st.sampled_from(choices)))
    return CongruenceSystem.from_pairs([(draw(st.integers(0, m - 1)), m) for m in moduli])


def walk_solution(system):
    """Reference: walk the successors of the largest-modulus node up to M + max m."""
    big_m = system.modulus_product
    top = max(system.items, key=lambda c: c.modulus)
    walk = range(first_successor(top.modulus, top.remainder), big_m + top.modulus + 1, top.modulus)
    others = [(c.remainder, c.modulus) for c in system.items if c is not top]
    witness = next(x for x in walk if all(x % m == r for r, m in others))
    return CrtSolution(x0=witness % big_m, modulus_product=big_m, witness=witness, method="graphical")


# --- validation ---------------------------------------------------------------


def test_validate_accepts_sunzi():
    validate_system(SUNZI)  # must not raise


def test_validate_rejects_shared_factor():
    with pytest.raises(NonCoprimeModuliError) as err:
        validate_system(CongruenceSystem.from_pairs([(1, 4), (3, 6)]))
    assert err.value.pair == (4, 6)
    assert err.value.gcd == 2
    assert "4 and 6" in str(err.value)


def test_congruence_field_validation():
    with pytest.raises(ValueError):
        Congruence(5, 3)  # remainder must stay below the modulus
    with pytest.raises(ValueError):
        Congruence(0, 1)
    with pytest.raises(ValueError):
        CongruenceSystem(())


def test_validate_rejects_oversized_product():
    pairs = []
    product = 1
    for m in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]:
        pairs.append((1, m))
        product *= m
    assert product >= 1 << 63
    with pytest.raises(ValueError, match="2\\^63"):
        validate_system(CongruenceSystem.from_pairs(pairs))


# --- successor sets -------------------------------------------------------------


def test_successor_sets_of_the_sunzi_moduli():
    assert successor_set(3, 5, 23) == [8, 13, 18, 23]
    assert successor_set(2, 3, 23) == [5, 8, 11, 14, 17, 20, 23]
    assert successor_set(2, 7, 23) == [9, 16, 23]


def test_successor_set_edges():
    assert successor_set(1, 2, 2) == []
    assert successor_set(0, 4, 13) == [8, 12]
    with pytest.raises(ValueError, match="absent"):
        successor_set(5, 3, 100)
    with pytest.raises(ValueError):
        successor_set(1, 4, 3)


@pytest.mark.parametrize("r,m,limit", [(0, 3, 40), (2, 5, 57), (4, 9, 100)])
def test_successor_set_law(r, m, limit):
    # oracle: direct scan of the congruence condition
    assert successor_set(r, m, limit) == [
        x for x in range(m + 1, limit + 1) if x % m == r
    ]


# --- solvers --------------------------------------------------------------------


def test_graphical_solves_sunzi():
    sol = solve_graphical(SUNZI)
    assert (sol.x0, sol.modulus_product, sol.witness) == (23, 105, 23)
    assert sol.method == "graphical"


def test_garner_solves_sunzi():
    sol = solve_garner(SUNZI)
    assert (sol.x0, sol.modulus_product, sol.witness) == (23, 105, None)
    assert sol.method == "garner"


def test_single_congruence():
    sol = solve_graphical(CongruenceSystem.from_pairs([(1, 2)]))
    assert sol.witness == 3  # smallest successor of node 2 in its layer
    assert sol.x0 == 1


def test_witness_wraps_when_solution_is_small():
    # oracle: scan x in [0, 15) for both congruences
    system = CongruenceSystem.from_pairs([(1, 3), (1, 5)])
    assert scan_solution(system) == 1
    sol = solve_graphical(system)
    assert sol.x0 == 1
    assert sol.witness == 16  # 1 + 15: successors must exceed their node


@pytest.mark.parametrize("m", [2, 5, 97])
def test_garner_zero_remainders(m):
    assert solve_garner(CongruenceSystem.from_pairs([(0, m)])).x0 == 0


def test_all_zero_remainders_graphical():
    system = CongruenceSystem.from_pairs([(0, 2), (0, 5)])
    sol = solve_graphical(system)
    assert sol.x0 == 0
    assert sol.witness == 10


def test_solvers_match_scan_oracle_on_200_random_systems():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        system = random_system(rng)
        expected = scan_solution(system)
        graphical = solve_graphical(system)
        garner = solve_garner(system)
        assert graphical.x0 == garner.x0 == expected
        big_m = system.modulus_product
        largest = max(c.modulus for c in system.items)
        assert largest < graphical.witness <= big_m + largest
        assert graphical.witness % big_m == expected % big_m
        assert 0 <= garner.x0 < big_m


def test_witness_is_minimum_of_successor_intersection():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        system = random_system(rng)
        big_m = system.modulus_product
        if big_m > 20000:
            continue
        checked += 1
        ceiling = big_m + max(c.modulus for c in system.items)
        sets = [
            set(successor_set(c.remainder, c.modulus, ceiling))
            for c in system.items
        ]
        common = set.intersection(*sets)
        assert solve_graphical(system).witness == min(common)


def test_solution_json():
    assert solve_garner(SUNZI).to_json() == (
        '{"method":"garner","modulus_product":105,"x0":23}'
    )
    assert solve_graphical(SUNZI).to_json() == (
        '{"method":"graphical","modulus_product":105,"witness":23,"x0":23}'
    )


def test_graphical_refuses_over_step_budget():
    from mcn.crt import GRAPHICAL_STEP_BUDGET

    system = CongruenceSystem.from_pairs([(1, 1000003), (2, 1000033)])
    steps = 1000003  # the sum of the moduli other than the largest
    assert steps > GRAPHICAL_STEP_BUDGET
    with pytest.raises(ValueError, match="--method garner"):
        solve_graphical(system)
    x0 = solve_garner(system).x0
    assert [x0 % m for m in (1000003, 1000033)] == [1, 2]


def test_graphical_budget_admits_every_small_system():
    # the largest system random_system draws: 37 + 41 + 43 = 121 steps
    system = CongruenceSystem.from_pairs([(1, 37), (2, 41), (3, 43), (4, 47)])
    assert solve_graphical(system).x0 == solve_garner(system).x0


@settings(max_examples=300, deadline=None)
@given(coprime_systems())
def test_graphical_garner_and_scan_agree_on_coprime_systems(system):
    big_m = system.modulus_product
    largest = max(c.modulus for c in system.items)
    graphical = solve_graphical(system)
    assert graphical.x0 == solve_garner(system).x0 == scan_solution(system)
    common = set.intersection(
        *(set(successor_set(c.remainder, c.modulus, big_m + largest)) for c in system.items)
    )
    assert graphical.witness == min(common)
    assert largest < graphical.witness <= big_m + largest


@settings(max_examples=300, deadline=None)
@given(coprime_systems())
def test_graphical_json_matches_the_successor_walk(system):
    assert solve_graphical(system).to_json() == walk_solution(system).to_json()
