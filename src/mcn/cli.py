"""Command-line surface for the congruence-network toolkit.

Exit codes: 0 on success, 2 for argument or validation problems and for
running out of memory, 3 for an infeasible (non-coprime) congruence system,
130 for an interrupt (Ctrl-C). Every failure prints a single diagnostic line
prefixed with "error:" to stderr, never a traceback. Randomized subcommands
take an explicit --seed and record it in their output, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import nullcontext

from .attacks import StaticModelSpec, attack_curve, generate_static_sf
from .control import min_drivers_exact, min_drivers_matching
from .crt import CongruenceSystem, NonCoprimeModuliError, solve_garner, solve_graphical
from .digraph import Digraph, check_graph_size, layer_header, read_edge_list, sf_header, write_edge_list
from .layers import (
    LayerSpec,
    build_layer,
    degree_histogram,
    theoretical_average_degree,
    write_histogram_csv,
)

# Work one `mcn attack` may do: (steps+1) x trials x (nodes + edges), one
# trial per targeted point. `attack_curve` took 8-37 ns per unit on layers
# (r = 0-3, N = 2e3-1e6), 50-170 ns on SF graphs (gamma 2.5, kbar 8-12,
# n = 2e3-1e5), 250-460 ns at --r 1 --n 50 and up to 530 ns where the peel
# leaves a core for Pothen-Fan phases (SF n = 7e3-5e4, kbar 9-12; a shared
# 2-CPU Xeon, Python 3.11): 1-4 s on layers, about a minute at worst.
ATTACK_WORK_BUDGET = 10**8

_CONGRUENCE = re.compile(r"^\s*0*(\d+)\s+mod\s+0*(\d+)\s*$")  # groups without leading zeros


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(2, f"error: {message}\n")


def _output(path: str | None):
    return nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8")


def _layer_spec(args: argparse.Namespace) -> LayerSpec:
    if args.r is None or args.n is None:
        raise ValueError("provide either --input or both --r and --n")
    return LayerSpec(args.r, args.n)


def _cmd_build(args: argparse.Namespace) -> None:
    spec = LayerSpec(args.r, args.n)
    g = build_layer(spec)
    with _output(args.out) as fh:
        write_edge_list(g, fh, header=layer_header(spec.r, spec.n))


def _cmd_stats(args: argparse.Namespace) -> None:
    spec = LayerSpec(args.r, args.n)
    hist = degree_histogram(spec)
    nodes, edges = hist.total_nodes, hist.degree_sum
    active = nodes - hist.counts.get(0, 0)
    with _output(args.csv) as fh:
        fh.write(f"# layer r={spec.r} n={spec.n}\n")
        fh.write(f"# nodes={nodes} edges={edges}\n")
        fh.write(f"# average_degree={edges / nodes!r}\n")
        if active:
            fh.write(f"# average_degree_active={edges / active!r}\n")
        fh.write(f"# average_degree_theory={theoretical_average_degree(spec)!r}\n")
        write_histogram_csv(hist, spec.r, fh)


def _cmd_control(args: argparse.Namespace) -> None:
    g = build_layer(_layer_spec(args)) if args.input is None else read_edge_list(args.input)
    if args.method in ("exact", "both"):
        print(min_drivers_exact(g).to_json())
    if args.method in ("matching", "both"):
        print(min_drivers_matching(g).to_json())


def _check_attack_work(args: argparse.Namespace, size: int) -> None:
    """Refuse an attack of more than ATTACK_WORK_BUDGET on a graph of ``size`` nodes plus edges."""
    trials = 1 if args.strategy == "targeted" else args.trials
    if (args.steps + 1) * trials * size > ATTACK_WORK_BUDGET:
        raise ValueError(
            f"attack needs (--steps + 1) x --trials x graph size = {args.steps + 1} x {trials} x {size} "
            f"nodes plus edges, over ATTACK_WORK_BUDGET = {ATTACK_WORK_BUDGET}; "
            "use fewer --steps or --trials, or a smaller graph"
        )


def _cmd_attack(args: argparse.Namespace) -> None:
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    if not 0.0 < args.pmax < 1.0:
        raise ValueError(f"--pmax must lie in (0, 1), got {args.pmax}")
    if args.steps < 1:
        raise ValueError(f"--steps must be positive, got {args.steps}")
    if args.input is None:  # a layer is sized by arithmetic alone, before it is built
        spec = _layer_spec(args)
        check_graph_size(spec.node_count)  # keeps the O(sqrt n) edge count below small
        _check_attack_work(args, spec.node_count + degree_histogram(spec).degree_sum)
        g, source = build_layer(spec), f"mcn r={args.r} n={args.n}"
    else:
        g, source = read_edge_list(args.input), f"input:{args.input}"
        _check_attack_work(args, g.num_nodes + g.num_edges)
    grid = [args.pmax * i / args.steps for i in range(args.steps + 1)]
    curve = attack_curve(
        g,
        args.strategy,
        grid,
        trials=args.trials,
        seed=args.seed,
        source=source,
    )
    with _output(args.csv) as fh:
        curve.to_csv(fh)


def _cmd_sf(args: argparse.Namespace) -> None:
    spec = StaticModelSpec(n=args.n, gamma=args.gamma, kbar=args.kbar, seed=args.seed)
    g = generate_static_sf(spec)
    with _output(args.out) as fh:
        write_edge_list(g, fh, header=sf_header(spec.gamma, spec.n, spec.seed))


def _cmd_crt(args: argparse.Namespace) -> None:
    pairs = []
    for text in args.congruence:
        m = _CONGRUENCE.match(text)
        if not m:
            raise ValueError(f'cannot parse congruence {text!r}; expected "<r> mod <m>"')
        if len(m.group(1)) > 19 or len(m.group(2)) > 19:  # at least 10^19 > 2^63
            raise ValueError("remainder or modulus exceeds the supported bound 2^63")
        pairs.append((int(m.group(1)), int(m.group(2))))
    system = CongruenceSystem.from_pairs(pairs)
    if args.method in ("graph", "both"):
        print(solve_graphical(system).to_json())
    if args.method in ("garner", "both"):
        print(solve_garner(system).to_json())


def _build_parser() -> _Parser:
    parser = _Parser(prog="mcn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="write a congruence layer as an edge list")
    p.add_argument("--r", type=int, required=True, help="layer remainder")
    p.add_argument("--n", type=int, required=True, help="largest node label")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("stats", help="degree histogram and average-degree figures")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("control", help="minimum driver-node report as JSON")
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--input", help="edge-list file instead of --r/--n")
    p.add_argument(
        "--method",
        choices=("exact", "matching", "both"),
        default="matching",
        help="rank condition, bipartite matching, or both (default: matching)",
    )
    p.set_defaults(func=_cmd_control)

    p = sub.add_parser("attack", help="driver density under node-removal attacks")
    p.add_argument("--r", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--input", help="edge-list file instead of --r/--n")
    p.add_argument("--strategy", choices=("random", "targeted"), required=True)
    p.add_argument("--pmax", type=float, default=0.5, help="largest removal fraction")
    p.add_argument(
        "--steps", type=int, default=10,
        help="grid has steps+1 points: 0, pmax/steps, ..., pmax",
    )
    p.add_argument("--trials", type=int, default=50, help="trials per point (random only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("sf", help="generate a static-model scale-free digraph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True, help="degree exponent (> 2)")
    p.add_argument("--kbar", type=float, required=True, help="target mean out-degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_sf)

    p = sub.add_parser("crt", help="solve simultaneous congruences")
    p.add_argument(
        "congruence", nargs="+", metavar='"<r> mod <m>"',
        help='congruences such as "2 mod 3"',
    )
    p.add_argument(
        "--method",
        choices=("graph", "garner", "both"),
        default="both",
        help="graphical search, Garner reconstruction, or both (default: both)",
    )
    p.set_defaults(func=_cmd_crt)

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        args.func(args)
        return 0
    except NonCoprimeModuliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except KeyError as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
