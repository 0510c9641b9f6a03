"""Smoke test of the benchmark itself.

    python3 mcnbench/selfcheck.py

Runs every workload briefly in both modes and checks the result contract:
every metric is present with its unit, nothing fails on a correct program,
oracles fed a wrong expected value record a failure, the determinism replay
catches changed bytes, and a directory without the package source makes
the benchmark exit non-zero without a result. Exits 1 on the first problem.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import oracles
import run
from tracing import PER_LAYER
from workloads import JobSource

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Commands each workload runs, hence the per-command medians it reports.
COMMANDS_RUN = {
    "layers": {"build", "stats", "control"},
    "attack": {"attack", "sf", "control"},
    "exact": {"sf", "control", "crt"},
}


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def bench_run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "mcnbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        require(run.END_TO_END_UNITS.get(m["name"]) == m["unit"], f"end_to_end {m['name']}: unit mismatch")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    require(declared == {k: v[:2] for k, v in PER_LAYER.items()}, "per_layer differs from tracing.PER_LAYER")
    return spec


def check_workload(spec: dict, workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        rc, lines = bench_run(workload, trace)
        require(rc == 0 and lines, f"{workload} trace={trace}: exit {rc}")
        result = json.loads(lines[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{workload} trace={trace}: {result['failed']} of {result['attempted']} commands failed")
        declared = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: v["unit"] for name, v in result["metrics"].items()}
        require(got == declared, f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(declared)}")
        if trace == 0:
            report = json.loads("\n".join(lines[:-1]))
            expected = {k for k in run.END_TO_END_UNITS if not k.endswith("_p50_s") or k == "job_p50_s"}
            expected |= {f"{c}_p50_s" for c in COMMANDS_RUN[workload]}
            shown = {name: v["unit"] for name, v in report["metrics"].items()}
            require(shown == {k: run.END_TO_END_UNITS[k] for k in expected},
                    f"{workload}: report metrics {sorted(shown)}")
        print(f"ok  {workload} trace={trace}: {result['attempted']} commands")


def check_oracles_can_fail() -> None:
    """Wrong expectations must show up as failed commands."""
    cli_main = run.import_cli()
    workdir = ROOT / ".bench_work" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload, name in (("layers", "layer_edge_count"), ("attack", "layer_driver_count")):
            bench = run.Bench(cli_main, JobSource(workload, 0, workdir))
            job = bench.source.warmup()[0]
            true_value = getattr(oracles, name)
            setattr(oracles, name, lambda r, n: true_value(r, n) + 1)
            try:
                bench.run(job)
            finally:
                setattr(oracles, name, true_value)
            require(bench.failed > 0 and all(f["error"].startswith("oracle") for f in bench.failures),
                    f"{workload}: a wrong {name} went unnoticed")
            bench.replay(job, ["different bytes"])
            require(any("replay" in f["error"] for f in bench.failures), "a changed replay went unnoticed")
            print(f"ok  {workload}: wrong {name} gave {bench.failed} failures; replay mismatch caught")
        bench = run.Bench(cli_main, JobSource("exact", 0, workdir))
        crt_job = bench.source.warmup()[1]
        bench.run(crt_job)
        require(bench.failed == 0, "exact warm-up failed")
        moduli = [int(a.split(" mod ")[1]) for a in crt_job.commands[0].argv if " mod " in a]
        try:
            oracles.check_crt(bench.last[0].stdout, moduli, x0=1)
        except oracles.Mismatch as exc:
            print(f"ok  exact: wrong x0 rejected ({exc})")
        else:
            raise CheckFailed("exact: a wrong x0 went unnoticed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_source() -> None:
    bare = ROOT / ".bench_work" / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "mcnbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = bench_run("layers", 0, cwd=bare)
        require(rc != 0 and not any(line.startswith("{") for line in lines),
                f"without src/ the benchmark exited {rc} with {lines[-1:]}")
        print(f"ok  no package source: exit {rc}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    try:
        spec = check_spec()
        check_oracles_can_fail()
        check_refuses_without_source()
        for workload in COMMANDS_RUN:
            check_workload(spec, workload)
    except CheckFailed as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
