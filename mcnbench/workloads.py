"""Seeded jobs for the three benchmark workloads.

A job is a short list of `mcn` commands (argv lists) plus the oracle that
checks their outputs. Job ``j`` of a run depends only on the workload, the
seed and ``j``.

Sizes are drawn from a two-dimensional Sobol sequence with a seeded
random digital shift. Every aligned block of 2^m jobs then puts exactly
one job in each cell of any 2^a x 2^b grid with a + b = m over the two
sized parameters, and any prefix of the job list comes close. Job costs
grow steeply with both sizes (elimination with fill-in spans two orders of
magnitude), so runs with different seeds must see the same size mix for
their medians to agree; the seed still changes every concrete size,
remainder, graph seed, congruence system and the order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("layers", "attack", "exact")
COMMANDS = ("build", "stats", "control", "attack", "sf", "crt")

LAYER_REMAINDERS = (0, 1, 2, 3, 5, 8)
ATTACK_REMAINDERS = (1, 2, 3)
ATTACK_GRID = ("--pmax", "0.5", "--steps", "5")
ATTACK_STEPS = 5
ATTACK_TRIALS = 5
# Graphical CRT work is about (M + max m) // max m steps. Below 3e4 a
# system solves in ~2 ms and shows nothing; the cap stays well below the
# sizes at which `mcn crt` stops returning in reasonable time.
CRT_STEPS = (3e4, 3e5)
CRT_MODULI = (20, 1000)

_BITS = 32


@dataclass
class Command:
    name: str
    argv: list[str]
    outputs: tuple[str, ...] = ()  # files the command writes, for the replay


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Job:
    commands: list[Command]
    # Maps the outcomes of all commands to {command index: mismatch message}.
    check: Callable[[list[Outcome]], dict[int, str]] = field(repr=False)


def _sobol_directions() -> tuple[list[int], list[int]]:
    """Direction numbers of the first two Sobol dimensions, as 32-bit integers.

    Dimension 1 is the base-2 van der Corput sequence; dimension 2 uses the
    primitive polynomial x + 1, i.e. m_k = 2 m_(k-1) XOR m_(k-1).
    """
    first = [1 << (_BITS - 1 - k) for k in range(_BITS)]
    second, m = [], 1
    for k in range(_BITS):
        second.append(m << (_BITS - 1 - k))
        m = (m << 1) ^ m
    return first, second


_DIRECTIONS = _sobol_directions()


def _sobol_point(i: int, shift: tuple[int, int]) -> tuple[float, float]:
    """Point i of the digitally shifted two-dimensional Sobol sequence."""
    coords = list(shift)
    bit = 0
    while i:
        if i & 1:
            coords = [c ^ d[bit] for c, d in zip(coords, _DIRECTIONS)]
        i >>= 1
        bit += 1
    return coords[0] / 2.0**_BITS, coords[1] / 2.0**_BITS


class JobSource:
    """The job sequence of one workload and seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        shift_rng = random.Random(f"mcnbench/{workload}/{seed}/shift")
        self._shift = (shift_rng.getrandbits(_BITS), shift_rng.getrandbits(_BITS))

    def _point(self, i: int) -> tuple[float, float]:
        return _sobol_point(i, self._shift)

    def _rng(self, j: int) -> random.Random:
        return random.Random(f"mcnbench/{self.workload}/{self.seed}/{j}")

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def job(self, j: int) -> Job:
        """Job ``j`` of the timed loop."""
        if self.workload == "exact":
            kind = self._sf_job if j % 2 == 0 else self._crt_job
            return kind(self._point(j // 2), self._rng(j))
        builder = self._layers_job if self.workload == "layers" else self._attack_job
        return builder(self._point(j), self._rng(j))

    def warmup(self) -> list[Job]:
        """Small untimed jobs that load every code path of the workload."""
        zero = (0.0, 0.0)
        rng = self._rng(-1)
        if self.workload == "exact":
            return [self._sf_job(zero, rng), self._crt_job(zero, rng)]
        builder = self._layers_job if self.workload == "layers" else self._attack_job
        return [builder(zero, rng)]

    # --- layers: build, stats and control on one congruence layer ----------

    def _layers_job(self, u: tuple[float, float], rng: random.Random) -> Job:
        n = round(2e3 * 10.0 ** u[0])
        r = LAYER_REMAINDERS[int(u[1] * len(LAYER_REMAINDERS))]
        layer = self._path("layer.tsv")
        commands = [
            Command("build", ["build", "--r", str(r), "--n", str(n), "--out", layer], (layer,)),
            Command("stats", ["stats", "--r", str(r), "--n", str(n), "--csv", self._path("stats.csv")],
                    (self._path("stats.csv"),)),
            Command("control", ["control", "--input", layer, "--method", "both"]),
        ]

        def check(out: list[Outcome]) -> dict[int, str]:
            edges = oracles.layer_edge_count(r, n)
            return oracles.collect({
                0: lambda: oracles.check_edge_file(layer, "# mcn ", edges),
                1: lambda: oracles.check_stats(self._path("stats.csv"), r, n, edges),
                2: lambda: oracles.check_layer_control(out[2].stdout, r, n),
            }, out)

        return Job(commands, check)

    # --- attack: attack curves on a layer and on its matched SF graph ------

    def _attack_job(self, u: tuple[float, float], rng: random.Random) -> Job:
        n = round(500 * 4.0 ** u[0])
        r = ATTACK_REMAINDERS[int(u[1] * len(ATTACK_REMAINDERS))]
        gamma = rng.uniform(2.2, 3.0)
        nodes = n - r
        edges = oracles.layer_edge_count(r, n)
        kbar = edges / nodes
        attack_seed, sf_seed = rng.randrange(1 << 20), rng.randrange(1 << 20)
        sf = self._path("sf.tsv")
        layer_args = ["--r", str(r), "--n", str(n)]
        sf_args = ["--input", sf]

        def attack(name: str, source: list[str], strategy: str) -> Command:
            csv = self._path(f"{name}.csv")
            argv = ["attack", *source, "--strategy", strategy, *ATTACK_GRID,
                    "--trials", str(ATTACK_TRIALS), "--seed", str(attack_seed), "--csv", csv]
            return Command("attack", argv, (csv,))

        commands = [
            attack("layer_random", layer_args, "random"),
            attack("layer_targeted", layer_args, "targeted"),
            Command("sf", ["sf", "--n", str(nodes), "--kbar", repr(kbar), "--gamma", repr(gamma),
                           "--seed", str(sf_seed), "--out", sf], (sf,)),
            Command("control", ["control", *sf_args]),
            attack("sf_random", sf_args, "random"),
            attack("sf_targeted", sf_args, "targeted"),
        ]

        def check(out: list[Outcome]) -> dict[int, str]:
            def curve(name: str, strategy: str, density: Callable[[], float]) -> Callable[[], None]:
                return lambda: oracles.check_attack(
                    self._path(f"{name}.csv"), strategy, density(), ATTACK_STEPS, ATTACK_TRIALS)

            def layer_density() -> float:
                return oracles.layer_driver_count(r, n) / nodes

            def sf_density() -> float:
                return oracles.control_density(out[3].stdout)

            return oracles.collect({
                0: curve("layer_random", "random", layer_density),
                1: curve("layer_targeted", "targeted", layer_density),
                2: lambda: oracles.check_edge_file(sf, "# sf ", edges),
                3: lambda: oracles.check_sf_control(out[3].stdout, sf, nodes, ("matching",)),
                4: curve("sf_random", "random", sf_density),
                5: curve("sf_targeted", "targeted", sf_density),
            }, out)

        return Job(commands, check)

    # --- exact: elimination with fill-in, and the graphical CRT search -----

    def _sf_job(self, u: tuple[float, float], rng: random.Random) -> Job:
        n = round(150 * (350 / 150) ** u[0])
        kbar = 3.0 + 2.0 * u[1]
        gamma = rng.uniform(2.2, 3.0)
        sf = self._path("sf.tsv")
        commands = [
            Command("sf", ["sf", "--n", str(n), "--kbar", repr(kbar), "--gamma", repr(gamma),
                           "--seed", str(rng.randrange(1 << 20)), "--out", sf], (sf,)),
            Command("control", ["control", "--input", sf, "--method", "both"]),
        ]

        def check(out: list[Outcome]) -> dict[int, str]:
            return oracles.collect({
                0: lambda: oracles.check_edge_file(sf, "# sf ", round(kbar * n)),
                1: lambda: oracles.check_sf_control(out[1].stdout, sf, n, ("exact_rank", "matching")),
            }, out)

        return Job(commands, check)

    def _crt_job(self, u: tuple[float, float], rng: random.Random) -> Job:
        moduli = _coprime_moduli(CRT_STEPS[0] * (CRT_STEPS[1] / CRT_STEPS[0]) ** u[0], rng)
        big_m = math.prod(moduli)
        x0 = int(u[1] * big_m)
        argv = ["crt", *(f"{x0 % m} mod {m}" for m in moduli), "--method", "both"]

        def check(out: list[Outcome]) -> dict[int, str]:
            return oracles.collect({0: lambda: oracles.check_crt(out[0].stdout, moduli, x0)}, out)

        return Job([Command("crt", argv)], check)


def _coprime_moduli(target_steps: float, rng: random.Random) -> list[int]:
    """3 or 4 pairwise-coprime moduli whose step estimate is near the target.

    Two moduli of at most 1000 never reach 3e4 steps, so systems have 3 or
    4. Rejection sampling keeps a system whose estimate lies within 10% of
    the target and inside CRT_STEPS.
    """
    lo, hi = max(CRT_STEPS[0], target_steps / 1.1), min(CRT_STEPS[1], target_steps * 1.1)
    log_lo, log_hi = math.log(CRT_MODULI[0]), math.log(CRT_MODULI[1])
    while True:
        moduli = [round(math.exp(rng.uniform(log_lo, log_hi))) for _ in range(rng.choice((3, 4)))]
        if any(math.gcd(a, b) != 1 for i, a in enumerate(moduli) for b in moduli[i + 1:]):
            continue
        if lo <= oracles.crt_step_estimate(moduli) <= hi:
            return moduli
