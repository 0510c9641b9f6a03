"""End-to-end benchmark of the `mcn` command line.

    python3 mcnbench/run.py --workload layers|attack|exact --seed N \
        --seconds S --trace 0|1

Run from the repository root. Each workload is a closed loop with one
client: one process and one thread that starts the next job only after the
previous one has finished. A job is a short seeded sequence of in-process
``mcn.cli.main`` calls; stdout and stderr are captured, and every output is
checked by an independent oracle outside the timed interval. ``mcn`` only
ever sees the generated argv.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs every job twice, once with spans around the calls between ``mcn``
modules and once without, and reports the per-layer metrics plus the
tracing overhead. The last stdout line is the JSON result; the lines before
it are a readable report with the environment, every metric with its unit,
and any failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from tracing import PER_LAYER, Tracer
from workloads import COMMANDS, WORKLOADS, Command, Job, JobSource, Outcome

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
MAX_LISTED_FAILURES = 20

# Every end-to-end metric the benchmark computes, with its unit. The
# gated subset is the "end_to_end" list of BENCHMARK.json; the rest are
# printed in the report because not every workload runs every command.
END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    **{f"{name}_p50_s": "s" for name in COMMANDS},
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_ratio": "ratio",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here: no package source or a broken set-up."""


def import_cli() -> Callable[[list[str]], int]:
    """``mcn.cli.main`` from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "mcn" / "cli.py").is_file():
        raise SetupError(f"no mcn package source under {src}")
    sys.path.insert(0, str(src))
    # One BLAS thread, set before numpy loads: the benchmark is a single
    # client and must not spread over the cores of a small shared machine.
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from mcn import cli

    if Path(cli.__file__).resolve().parent != (src / "mcn").resolve():
        raise SetupError(f"imported mcn from {cli.__file__}, not from {src}")
    return cli.main


def execute(main: Callable[[list[str]], int], argv: list[str], tracer: Tracer | None) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = tracer.call("cli.main", main, argv) if tracer else main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed command, not a failed run
            print(f"error: uncaught {type(exc).__name__}: {exc}", file=err)
            rc = 1
    return Outcome(rc, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _error_line(stderr: str) -> str:
    lines = stderr.strip().splitlines()
    return next((line for line in lines if line.startswith("error:")), lines[-1] if lines else "")


class Bench:
    """Runs jobs, checks them and keeps the tallies of one benchmark run."""

    def __init__(self, main: Callable[[list[str]], int], source: JobSource):
        self.main = main
        self.source = source
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.job_seconds: list[float] = []
        self.command_seconds: dict[str, list[float]] = {name: [] for name in COMMANDS}
        self.commands: Counter[str] = Counter()
        self.last: list[Outcome] = []

    def _fail(self, command: Command, error: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_LISTED_FAILURES:
            self.failures.append({"argv": command.argv, "error": error})

    def run(self, job: Job, tracer: Tracer | None = None, timed: bool = True) -> float:
        """Run and check one job; return its latency in seconds."""
        start = time.perf_counter()
        outcomes = [execute(self.main, c.argv, tracer) for c in job.commands]
        seconds = time.perf_counter() - start
        self.last = outcomes
        mismatches = job.check(outcomes)
        for index, (command, outcome) in enumerate(zip(job.commands, outcomes)):
            self.attempted += 1
            if outcome.rc != 0:
                self._fail(command, f"exit {outcome.rc}: {_error_line(outcome.stderr)}")
            elif index in mismatches:
                self._fail(command, mismatches[index])
            if timed:
                self.commands[command.name] += 1
                if tracer is None:
                    self.command_seconds[command.name].append(outcome.seconds)
        if timed and tracer is None:
            self.job_seconds.append(seconds)
        return seconds

    def snapshot(self, job: Job) -> list[str]:
        """Everything the last run of ``job`` produced: stdout and output files."""
        texts = [o.stdout for o in self.last]
        for command in job.commands:
            for path in command.outputs:
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
        return texts

    def replay(self, job: Job, expected: list[str]) -> None:
        """Run a job again, untimed, and require byte-identical outputs."""
        self.run(job, timed=False)
        if self.snapshot(job) != expected:
            self._fail(job.commands[0], "replay of the first job gave different output bytes")


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import mcn, make inputs and run the warm-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        samples.append(time.perf_counter() - start)
        if child.returncode != 0:
            raise SetupError(f"set-up process failed: {child.stderr.strip()[-500:]}")
    return statistics.median(samples)


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() or "unknown"


def environment(args: argparse.Namespace, bench: Bench, jobs: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "commands": dict(bench.commands),
        "src_lines (information only)": src_lines,
    }


def run_untraced(bench: Bench, seconds: float, setup_s: float) -> dict[str, float]:
    first = bench.source.job(0)
    busy = bench.run(first)
    expected = bench.snapshot(first)
    j = 1
    while busy < seconds:
        busy += bench.run(bench.source.job(j))
        j += 1
    bench.replay(first, expected)
    jobs = len(bench.job_seconds)
    metrics = {
        "jobs_per_s": jobs / busy,
        "job_p50_s": statistics.median(bench.job_seconds),
        "job_p90_s": _quantile(bench.job_seconds, 90),
    }
    for name, values in bench.command_seconds.items():
        if values:
            metrics[f"{name}_p50_s"] = statistics.median(values)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = setup_s
    metrics["failed_ratio"] = bench.failed / bench.attempted
    return metrics


def run_traced(bench: Bench, seconds: float) -> tuple[dict[str, float], Tracer, int]:
    """Each job runs with and without spans, alternating which goes first."""
    tracer = Tracer()
    with_spans = without = 0.0
    j = 0
    first = bench.source.job(0)
    while with_spans + without < seconds:
        job = first if j == 0 else bench.source.job(j)
        for traced in ((True, False) if j % 2 == 0 else (False, True)):
            if traced:
                with tracer:
                    with_spans += bench.run(job, tracer)
            else:
                without += bench.run(job, timed=False)
        if j == 0:
            expected = bench.snapshot(first)
        j += 1
    bench.replay(first, expected)
    return tracer.metrics(j, without / with_spans), tracer, j


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cli_main = import_cli()
        workdir.mkdir(parents=True, exist_ok=True)
        bench = Bench(cli_main, JobSource(args.workload, args.seed, workdir))
        for job in bench.source.warmup():
            bench.run(job, timed=False)
        if args.setup_only:
            return 0 if bench.failed == 0 else 1

        if args.trace:
            metrics, tracer, jobs = run_traced(bench, args.seconds)
            units = {name: unit for name, (unit, *_) in PER_LAYER.items()}
            gated = [m["name"] for m in spec["per_layer"]]
            extra = {"silent_spans (absent or not called: read 0)": tracer.silent(),
                     "moves": {name: {"metric": moves, "workload": on} for name, (_, _, moves, on) in PER_LAYER.items()}}
        else:
            setup_s = measure_setup(args.workload, args.seed)
            metrics = run_untraced(bench, args.seconds, setup_s)
            jobs = len(bench.job_seconds)
            units = END_TO_END_UNITS
            gated = [m["name"] for m in spec["end_to_end"]]
            extra = {"samples": {"jobs": jobs, **{f"{k}_p50_s": len(v) for k, v in bench.command_seconds.items() if v}}}
        missing = [name for name in gated if name not in metrics]
        if missing:
            raise SetupError(f"BENCHMARK.json names metrics this run did not produce: {missing}")
    except (SetupError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    report = {
        "environment": environment(args, bench, jobs),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        **extra,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
    }
    print(json.dumps(report, indent=1))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in gated},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
