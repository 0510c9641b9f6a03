"""End-to-end acceptance checks, one per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE <nn> <label>: PASS/FAIL`` line per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from mcn import (
    LayerSpec,
    StaticModelSpec,
    attack_curve,
    build_layer,
    coupling_matrix,
    degree_histogram,
    generate_static_sf,
    min_drivers_exact,
    min_drivers_matching,
    rank,
    solve_garner,
    solve_graphical,
    successor_set,
    theoretical_pk,
    verify_ssc,
)
from mcn.cli import main
from mcn.layers import EULER_GAMMA

from test_control import A_G09, A_G19, GRID
from test_crt import SUNZI, random_system, scan_solution


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_criterion_01_degree_law():
    with criterion(1, "out-degree law at N=10000"):
        for r in (1, 2, 5):
            start = time.perf_counter()
            hist = degree_histogram(LayerSpec(r, 10000))
            for k in range(1, 11):
                assert abs(hist.empirical_p(k) - theoretical_pk(r, k)) <= 0.01
            assert time.perf_counter() - start <= 5.0
        start = time.perf_counter()
        hist = degree_histogram(LayerSpec(0, 10000))
        for k in range(0, 11):
            assert abs(hist.empirical_p(k) - theoretical_pk(0, k)) <= 0.01
        assert time.perf_counter() - start <= 5.0


def test_criterion_02_average_degree():
    with criterion(2, "average degree vs log law"):
        for n in (10**3, 10**4, 10**5):
            hist = degree_histogram(LayerSpec(1, n))
            value = hist.degree_sum / hist.total_nodes
            theory = math.log(n - 1) + 2 * EULER_GAMMA - 2
            assert abs(value - theory) <= 0.02 * theory
        hist0 = degree_histogram(LayerSpec(0, 10**4))
        value0 = hist0.degree_sum / hist0.total_nodes
        theory0 = math.log(10**4) + 2 * EULER_GAMMA - 2
        assert abs(value0 - theory0) <= 0.02 * theory0
        # N=100, r=1: the acceptance band covers the all-node mean 374/99
        # and the out-link-node mean 374/98.
        g = build_layer(LayerSpec(1, 100))
        assert 3.77 <= g.num_edges / g.num_nodes <= 3.83
        active = sum(1 for m in g.nodes if g.out_degree(m) > 0)
        assert 3.77 <= g.num_edges / active <= 3.83


def test_criterion_03_controllability_exactness():
    with criterion(3, "driver counts on the layer grid"):
        start = time.perf_counter()
        for r, n in GRID:
            g = build_layer(LayerSpec(r, n))
            exact = min_drivers_exact(g)
            matched = min_drivers_matching(g)
            assert exact.rank == n - 2 * r
            assert exact.n_d == matched.n_d == r
            assert exact.drivers == matched.drivers == tuple(range(r + 1, 2 * r + 1))
            assert exact.density == matched.density == r / (n - r)
        for n in (9, 50, 100):
            g = build_layer(LayerSpec(0, n))
            assert min_drivers_exact(g).n_d == math.ceil(n / 2)
            assert min_drivers_matching(g).n_d == math.ceil(n / 2)
        assert time.perf_counter() - start <= 10.0


def test_criterion_04_printed_matrices():
    with criterion(4, "golden coupling matrices"):
        assert np.array_equal(
            coupling_matrix(build_layer(LayerSpec(1, 9))).dense(), A_G19
        )
        assert np.array_equal(
            coupling_matrix(build_layer(LayerSpec(0, 9))).dense(), A_G09
        )


def test_criterion_05_strong_structural_controllability():
    with criterion(5, "rank is weight-independent"):
        for r, n in GRID:
            assert verify_ssc(build_layer(LayerSpec(r, n)), trials=20, seed=17)
        assert verify_ssc(build_layer(LayerSpec(0, 50)), trials=20, seed=17)


def test_criterion_06_targeted_robustness():
    with criterion(6, "targeted attacks leave one driver"):
        g = build_layer(LayerSpec(1, 100))
        grid = [0.05 * i for i in range(1, 11)]
        curve = attack_curve(g, "targeted", grid)
        for pt in curve.points:
            survivors = 99 - math.floor(pt.p * 99)
            count = pt.nd_mean * survivors
            assert math.isclose(count, 1.0, rel_tol=1e-9)


def test_criterion_07_random_fragility_ordering():
    with criterion(7, "random attacks cost more drivers"):
        g = build_layer(LayerSpec(1, 100))
        grid = [0.1, 0.2, 0.3, 0.4, 0.5]
        random_curve = attack_curve(g, "random", grid, trials=50, seed=1)
        targeted_curve = attack_curve(g, "targeted", grid)
        for rnd, tgt in zip(random_curve.points, targeted_curve.points):
            assert rnd.trials == 50
            assert rnd.nd_mean > tgt.nd_mean


def mle_tail_exponent(degrees, k_min):
    """Discrete maximum-likelihood tail-exponent estimate."""
    tail = [d for d in degrees if d >= k_min]
    return 1.0 + len(tail) / sum(math.log(d / (k_min - 0.5)) for d in tail)


def test_criterion_08_scale_free_baseline():
    with criterion(8, "static-model baseline"):
        g = generate_static_sf(StaticModelSpec(n=100, gamma=2.001, kbar=3.82, seed=0))
        edges = list(g.edges())
        assert len(edges) == 382
        assert len(set(edges)) == 382
        assert all(i != j for i, j in edges)
        assert min_drivers_matching(g).density > 1 / 99
        big = generate_static_sf(StaticModelSpec(n=10**5, gamma=2.5, kbar=4.0, seed=1))
        degrees = [big.out_degree(m) for m in big.nodes]
        assert abs(mle_tail_exponent(degrees, k_min=10) - 2.5) <= 0.3


def test_criterion_09_simultaneous_congruences():
    with criterion(9, "congruence solving"):
        start = time.perf_counter()
        assert solve_graphical(SUNZI).x0 == 23
        assert solve_garner(SUNZI).x0 == 23
        assert successor_set(3, 5, 23) == [8, 13, 18, 23]
        assert successor_set(2, 3, 23) == [5, 8, 11, 14, 17, 20, 23]
        assert successor_set(2, 7, 23) == [9, 16, 23]
        rng = np.random.default_rng(99)
        for _ in range(200):
            system = random_system(rng)
            expected = scan_solution(system)
            assert solve_graphical(system).x0 == expected
            assert solve_garner(system).x0 == expected
        assert time.perf_counter() - start <= 5.0


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "seeded commands are byte-identical"):
        file_commands = [
            ["build", "--r", "2", "--n", "40", "--out"],
            ["stats", "--r", "2", "--n", "40", "--csv"],
            ["attack", "--r", "1", "--n", "60", "--strategy", "random",
             "--pmax", "0.3", "--steps", "3", "--trials", "5", "--seed", "21",
             "--csv"],
            ["sf", "--n", "80", "--gamma", "2.2", "--kbar", "3.0", "--seed", "21",
             "--out"],
        ]
        for idx, base in enumerate(file_commands):
            first = tmp_path / f"{idx}_first.out"
            second = tmp_path / f"{idx}_second.out"
            assert main(base + [str(first)]) == 0
            assert main(base + [str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
        stdout_commands = [
            ["control", "--r", "2", "--n", "40", "--method", "both"],
            ["crt", "2 mod 3", "3 mod 5", "2 mod 7", "--method", "both"],
        ]
        for argv in stdout_commands:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            assert capsys.readouterr().out == first
            assert first  # something was printed
