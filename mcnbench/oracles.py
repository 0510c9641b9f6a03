"""Independent checks of `mcn` command outputs.

Every expected value comes from a route that shares no code with `mcn`:
closed-form layer arithmetic, the generator's own edge budget, structural
bounds read straight from the edge file, and the congruence system the
benchmark drew. The checks run outside the timed interval.
"""

from __future__ import annotations

import json
import math
from typing import Callable


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def collect(checks: dict[int, Callable[[], None]], outcomes: list) -> dict[int, str]:
    """Run the check of every command that exited 0; return the mismatches."""
    found = {}
    for index, check in checks.items():
        if outcomes[index].rc != 0:
            continue  # already counted as a failed command
        try:
            check()
        except Mismatch as exc:
            found[index] = f"oracle: {exc}"
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            found[index] = f"oracle could not read the output: {type(exc).__name__}: {exc}"
    return found


# --- closed forms -------------------------------------------------------------


def layer_edge_count(r: int, n: int) -> int:
    """Edges of the layer G(r, n): node m has floor((n-r)/m) successors."""
    if r == 0:
        return sum(n // m - 1 for m in range(1, n + 1))
    return sum((n - r) // m for m in range(r + 1, n + 1))


def layer_driver_count(r: int, n: int) -> int:
    """Minimum drivers of G(r, n): the r chain roots, or ceil(n/2) for r = 0."""
    return r if r > 0 else (n + 1) // 2


def crt_step_estimate(moduli: list[int]) -> int:
    """Steps of the graphical CRT search, (M + max m) // max m."""
    top = max(moduli)
    return (math.prod(moduli) + top) // top


# --- file and stdout checks --------------------------------------------------


def check_edge_file(path: str, header_prefix: str, edges: int) -> None:
    with open(path, "rb") as fh:
        data = fh.read()
    expect(data.startswith(header_prefix.encode()), f"{path}: header does not start with {header_prefix!r}")
    lines = data.count(b"\n") - 1
    expect(lines == edges, f"{path}: {lines} edges, expected {edges}")


def check_stats(path: str, r: int, n: int, edges: int) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    expect(f"# nodes={n - r} edges={edges}" in lines,
           f"{path}: no '# nodes={n - r} edges={edges}' header")
    rows = [line.split(",") for line in lines if line and line[0].isdigit()]
    nodes = sum(int(row[1]) for row in rows)
    degree_sum = sum(int(row[0]) * int(row[1]) for row in rows)
    expect((nodes, degree_sum) == (n - r, edges),
           f"{path}: histogram covers {nodes} nodes and {degree_sum} edges, expected {n - r} and {edges}")


def _reports(stdout: str, methods: tuple[str, ...]) -> list[dict]:
    reports = [json.loads(line) for line in stdout.splitlines()]
    got = tuple(rep["method"] for rep in reports)
    expect(got == methods, f"methods {got}, expected {methods}")
    return reports


def check_layer_control(stdout: str, r: int, n: int) -> None:
    expected = layer_driver_count(r, n)
    for rep in _reports(stdout, ("exact_rank", "matching")):
        expect(rep["n_nodes"] == n - r, f"{rep['method']}: n_nodes {rep['n_nodes']}, expected {n - r}")
        expect(rep["n_d"] == expected, f"{rep['method']}: n_d {rep['n_d']}, expected {expected}")
        if r > 0:
            roots = list(range(r + 1, 2 * r + 1))
            expect(rep["drivers"] == roots, f"{rep['method']}: drivers are not the chain roots {roots}")


def control_density(stdout: str) -> float:
    return json.loads(stdout.splitlines()[0])["density"]


def _unmatchable(path: str, n: int) -> int:
    """Lower bound on n_d: a matching is no larger than the nodes with out-edges or with in-edges."""
    sources, targets = set(), set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                i, j = line.split("\t")
                sources.add(i)
                targets.add(j)
    return max(1, n - min(len(sources), len(targets)))


def check_sf_control(stdout: str, path: str, n: int, methods: tuple[str, ...]) -> None:
    reports = _reports(stdout, methods)
    bound = _unmatchable(path, n)
    for rep in reports:
        expect(rep["n_nodes"] == n, f"{rep['method']}: n_nodes {rep['n_nodes']}, expected {n}")
        expect(rep["n_d"] >= bound, f"{rep['method']}: n_d {rep['n_d']} below the structural bound {bound}")
        expect(rep["density"] == rep["n_d"] / n, f"{rep['method']}: density is not n_d / n")
    if len(reports) == 2:
        # 0/1 rank <= generic rank = maximum matching size.
        exact, matching = reports
        expect(exact["n_d"] >= matching["n_d"],
               f"exact n_d {exact['n_d']} below matching n_d {matching['n_d']}")


def check_attack(path: str, strategy: str, density: float, steps: int, trials: int) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    expect(lines[1] == "p,nd_mean,nd_std,trials,strategy", f"{path}: unexpected CSV header {lines[1]!r}")
    rows = [line.split(",") for line in lines[2:]]
    expect(len(rows) == steps + 1, f"{path}: {len(rows)} rows, expected {steps + 1}")
    expected_trials = trials if strategy == "random" else 1
    for row in rows:
        expect(int(row[3]) == expected_trials, f"{path}: trials {row[3]}, expected {expected_trials}")
        expect(row[4] == strategy, f"{path}: strategy {row[4]}, expected {strategy}")
    p, nd_mean, nd_std = (float(v) for v in rows[0][:3])
    expect(p == 0.0 and nd_std == 0.0, f"{path}: first row is not p=0 with nd_std=0")
    expect(math.isclose(nd_mean, density, rel_tol=1e-12),
           f"{path}: p=0 density {nd_mean}, expected the control density {density}")


def check_crt(stdout: str, moduli: list[int], x0: int) -> None:
    big_m = math.prod(moduli)
    for sol in _reports(stdout, ("graphical", "garner")):
        got = sol["x0"]
        expect(sol["modulus_product"] == big_m, f"{sol['method']}: M {sol['modulus_product']}, expected {big_m}")
        expect(0 <= got < big_m and all(got % m == x0 % m for m in moduli),
               f"{sol['method']}: x0 {got} does not solve the system")
        expect(got == x0, f"{sol['method']}: x0 {got}, expected {x0}")
