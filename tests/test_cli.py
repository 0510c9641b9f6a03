import argparse
import json
import resource
import subprocess
import sys

import pytest

from mcn.cli import ATTACK_WORK_BUDGET, main
from mcn.digraph import GRAPH_SIZE_BUDGET
from mcn.layers import LayerSpec, degree_histogram


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- build -------------------------------------------------------------------


def test_build_writes_edge_list(capsys, tmp_path):
    path = tmp_path / "g19.tsv"
    code, out, err = run_cli(capsys, "build", "--r", "1", "--n", "9", "--out", str(path))
    assert (code, out, err) == (0, "", "")
    lines = path.read_text().splitlines()
    assert lines[0] == "# mcn r=1 n=9"
    assert lines[1:4] == ["2\t3", "2\t5", "2\t7"]


def test_build_validation_error(capsys):
    code, _, err = run_cli(capsys, "build", "--r", "5", "--n", "6")
    assert code == 2
    assert err.startswith("error:")


# --- stats -------------------------------------------------------------------


def test_stats_stdout(capsys):
    code, out, _ = run_cli(capsys, "stats", "--r", "1", "--n", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# layer r=1 n=100"
    assert lines[1] == "# nodes=99 edges=374"
    assert lines[2].startswith("# average_degree=3.7777")
    assert lines[3].startswith("# average_degree_active=3.8163")
    assert lines[4].startswith("# average_degree_theory=")
    assert lines[5] == "k,count,empirical_p,theoretical_p"


def test_stats_csv_file(capsys, tmp_path):
    path = tmp_path / "hist.csv"
    code, out, _ = run_cli(capsys, "stats", "--r", "0", "--n", "50", "--csv", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert "k,count,empirical_p,theoretical_p" in text
    assert "0,25,0.5,0.5" in text  # half the divisibility nodes are sinks


def test_stats_builds_no_graph(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("stats must not build a graph")

    monkeypatch.setattr("mcn.layers.build_layer", fail)
    monkeypatch.setattr("mcn.cli.build_layer", fail)
    monkeypatch.setattr("mcn.digraph.Digraph._from_csr", fail)
    code, out, err = run_cli(capsys, "stats", "--r", "1", "--n", str(10**9))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1].startswith(f"# nodes={10**9 - 1} edges=")
    rows = [line.split(",") for line in lines[6:]]
    assert sum(int(c) for _, c, _, _ in rows) == 10**9 - 1
    assert f"edges={sum(int(k) * int(c) for k, c, _, _ in rows)}" in lines[1]


def test_stats_beyond_1e12_exits_2(capsys, tmp_path):
    path = tmp_path / "hist.csv"
    code, out, err = run_cli(capsys, "stats", "--r", "1", "--n", str(10**13), "--csv", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "10^12" in err


# --- control -----------------------------------------------------------------


def test_control_both_methods(capsys):
    code, out, _ = run_cli(capsys, "control", "--r", "1", "--n", "9", "--method", "both")
    assert code == 0
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["method"] == "exact_rank"
    assert second["method"] == "matching"
    for rep in (first, second):
        assert rep["n_d"] == 1
        assert rep["drivers"] == [2]


def test_control_roundtrip_through_edge_list(capsys, tmp_path):
    path = tmp_path / "layer.tsv"
    assert main(["build", "--r", "3", "--n", "60", "--out", str(path)]) == 0
    capsys.readouterr()
    _, direct, _ = run_cli(capsys, "control", "--r", "3", "--n", "60", "--method", "both")
    _, from_file, _ = run_cli(capsys, "control", "--input", str(path), "--method", "both")
    assert direct == from_file


def test_control_exact_over_budget_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "sf.tsv"
    assert main(["sf", "--n", "2000", "--gamma", "2.5", "--kbar", "4", "--seed", "0", "--out", str(path)]) == 0
    monkeypatch.setattr("mcn.control.ELIMINATION_BUDGET", 10**3)
    code, out, err = run_cli(capsys, "control", "--input", str(path), "--method", "exact")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--method matching" in err


def test_control_exact_sf_n2000_kbar7_exits_0(capsys, tmp_path):
    path = tmp_path / "sf.tsv"
    assert main(["sf", "--n", "2000", "--gamma", "2.5", "--kbar", "7", "--seed", "1", "--out", str(path)]) == 0
    code, out, err = run_cli(capsys, "control", "--input", str(path), "--method", "exact")
    assert (code, err) == (0, "")
    assert json.loads(out)["n_nodes"] == 2000


def test_control_requires_a_graph(capsys):
    code, _, err = run_cli(capsys, "control", "--r", "1")
    assert code == 2
    assert err.startswith("error:")


# --- attack --------------------------------------------------------------------


def test_attack_targeted_csv(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys,
        "attack", "--r", "1", "--n", "100", "--strategy", "targeted",
        "--pmax", "0.5", "--steps", "10", "--csv", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "# source=mcn r=1 n=100 seed=0"
    assert lines[1] == "p,nd_mean,nd_std,trials,strategy"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 11
    for row in rows:
        p = float(row[0])
        survivors = 99 - int(p * 99)
        assert abs(float(row[1]) * survivors - 1.0) < 1e-9  # one driver at every p
        assert row[3] == "1" and row[4] == "targeted"


def test_attack_seeded_reproducibility(capsys, tmp_path):
    args = [
        "attack", "--r", "1", "--n", "80", "--strategy", "random",
        "--pmax", "0.4", "--steps", "4", "--trials", "6", "--seed", "11",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--csv", str(first)]) == 0
    assert main(args + ["--csv", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert b"seed=11" in first.read_bytes()


def test_attack_rejects_bad_pmax(capsys):
    code, _, err = run_cli(
        capsys, "attack", "--r", "1", "--n", "50", "--strategy", "random",
        "--pmax", "1.2",
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "extra,message",
    [([], "over ATTACK_WORK_BUDGET"), (["--trials", "0"], "--trials must be positive")],
)
def test_attack_refuses_oversized_grid_up_front(capsys, monkeypatch, extra, message):
    def fail(*args, **kwargs):
        raise AssertionError("nothing may run past the up-front checks")

    monkeypatch.setattr("mcn.cli.attack_curve", fail)
    monkeypatch.setattr("mcn.cli.build_layer", fail)
    code, out, err = run_cli(
        capsys, "attack", "--r", "1", "--n", "50", "--strategy", "random",
        "--steps", str(10**12), *extra,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_attack_budget_counts_one_trial_per_targeted_point(capsys, monkeypatch):
    class Curve:
        def to_csv(self, fh):
            pass

    grids = []
    monkeypatch.setattr("mcn.cli.attack_curve", lambda g, strategy, grid, **kw: grids.append(grid) or Curve())
    size = 40000  # nodes plus edges of --r 1 --n 4651, which divide the budget
    steps = str(ATTACK_WORK_BUDGET // size - 1)
    code, _, _ = run_cli(capsys, "attack", "--r", "1", "--n", "4651", "--strategy", "targeted", "--steps", steps)
    assert code == 0 and len(grids[0]) * size == ATTACK_WORK_BUDGET
    code, _, err = run_cli(
        capsys, "attack", "--r", "1", "--n", "4651", "--strategy", "random", "--steps", steps, "--trials", "2",
    )
    assert code == 2 and err.count("\n") == 1 and len(grids) == 1
    assert f"= {ATTACK_WORK_BUDGET // size} x 2 x {size} nodes plus edges" in err
    assert "use fewer --steps or --trials, or a smaller graph" in err


def test_attack_work_counts_the_nodes_and_edges_of_the_graph(capsys, monkeypatch, tmp_path):
    path = tmp_path / "g.tsv"
    assert main(["build", "--r", "1", "--n", "4651", "--out", str(path)]) == 0  # 40000 nodes plus edges

    def fail(*args, **kwargs):
        raise AssertionError("nothing may run past the work check")

    monkeypatch.setattr("mcn.cli.attack_curve", fail)
    monkeypatch.setattr("mcn.cli.build_layer", fail)
    # the default grid on a layer of N = 10^6 is refused from its counted size, before it is built
    code, out, err = run_cli(capsys, "attack", "--r", "1", "--n", str(10**6), "--strategy", "random")
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    assert "= 11 x 50 x 13969985 nodes plus edges" in err
    # a file is counted once it is read
    steps = ATTACK_WORK_BUDGET // 40000
    code, out, err = run_cli(capsys, "attack", "--input", str(path), "--strategy", "targeted", "--steps", str(steps))
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    assert f"= {steps + 1} x 1 x 40000 nodes plus edges" in err


# --- sf ---------------------------------------------------------------------------


def test_sf_deterministic_output(capsys, tmp_path):
    first = tmp_path / "one.tsv"
    second = tmp_path / "two.tsv"
    args = ["sf", "--n", "100", "--gamma", "2.001", "--kbar", "3.82", "--seed", "7"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    data = first.read_text()
    assert data == second.read_text()
    lines = data.splitlines()
    assert lines[0] == "# sf gamma=2.001 n=100 seed=7"
    assert len(lines) == 1 + 382


def test_sf_rejects_infinite_kbar(capsys):
    for kbar in ("inf", "1e308"):  # 1e308 is finite, but kbar * n is not
        code, out, err = run_cli(capsys, "sf", "--n", "100", "--gamma", "2.5", "--kbar", kbar)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


# --- crt ---------------------------------------------------------------------------


def test_crt_both_methods(capsys):
    code, out, _ = run_cli(
        capsys, "crt", "2 mod 3", "3 mod 5", "2 mod 7", "--method", "both"
    )
    assert code == 0
    graphical, garner = (json.loads(line) for line in out.splitlines())
    assert graphical["x0"] == garner["x0"] == 23
    assert graphical["method"] == "graphical"
    assert graphical["witness"] == 23
    assert garner["method"] == "garner"
    assert "witness" not in garner


def test_crt_non_coprime_exits_3(capsys):
    code, out, err = run_cli(capsys, "crt", "1 mod 4", "3 mod 6")
    assert code == 3
    assert out == ""
    assert err == "error: moduli 4 and 6 are not coprime (gcd 2)\n"


def test_crt_bad_remainder_exits_2(capsys):
    code, _, err = run_cli(capsys, "crt", "5 mod 3")
    assert code == 2
    assert err.startswith("error:")


def test_crt_unparseable_input(capsys):
    code, _, err = run_cli(capsys, "crt", "five mod seven")
    assert code == 2
    assert 'expected "<r> mod <m>"' in err


def test_argparse_errors_use_prefix_and_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--r", "1", "--n", "50"])  # missing --strategy
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_module_entry_point(mcn_env):
    proc = subprocess.run(
        [sys.executable, "-m", "mcn", "crt", "2 mod 3", "3 mod 5", "2 mod 7",
         "--method", "garner"],
        capture_output=True,
        text=True,
        env=mcn_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["x0"] == 23


@pytest.mark.parametrize("method", ["both", "graph"])
def test_crt_over_step_budget_exits_2(capsys, method):
    # the graphical search needs 1000003 steps, the smaller modulus
    code, out, err = run_cli(
        capsys, "crt", "1 mod 1000003", "2 mod 1000033", "--method", method
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--method garner" in err


def test_crt_over_step_budget_answers_with_garner(capsys):
    code, out, _ = run_cli(
        capsys, "crt", "1 mod 1000003", "2 mod 1000033", "--method", "garner"
    )
    assert code == 0
    x0 = json.loads(out)["x0"]
    assert [x0 % m for m in (1000003, 1000033)] == [1, 2]


def test_crt_three_primes_near_1e4_answers_graphically(capsys):
    # 9949 + 9967 steps; the walk over successors of node 9973 needed about 10^8
    code, out, err = run_cli(
        capsys, "crt", "1 mod 9949", "2 mod 9967", "3 mod 9973", "--method", "both"
    )
    assert (code, err) == (0, "")
    graphical, garner = (json.loads(line) for line in out.splitlines())
    assert graphical["method"] == "graphical"
    assert graphical["x0"] == garner["x0"]
    assert [garner["x0"] % m for m in (9949, 9967, 9973)] == [1, 2, 3]


def first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


@pytest.mark.parametrize("extra", [[], ["1 mod 4"]], ids=["coprime", "shared-factor"])
def test_crt_oversized_product_exits_2_with_one_short_line(capsys, extra):
    # the bound is checked before the pairwise gcds, so a shared factor does not exit 3
    argv = [f"1 mod {p}" for p in first_primes(4000)] + extra
    code, out, err = run_cli(capsys, "crt", *argv, "--method", "garner")
    assert (code, out) == (2, "")
    assert err == "error: modulus product exceeds the supported bound 2^63\n"


@pytest.mark.parametrize(
    "congruence", ["1 mod 1" + "0" * 5000, "1" + "0" * 5000 + " mod 7"], ids=["modulus", "remainder"]
)
def test_crt_oversized_number_exits_2_with_one_short_line(capsys, congruence):
    # 5000 digits is past Python's int-from-text limit; the check runs before int()
    code, out, err = run_cli(capsys, "crt", congruence, "2 mod 3")
    assert (code, out) == (2, "")
    assert err == "error: remainder or modulus exceeds the supported bound 2^63\n"


def test_crt_leading_zeros_do_not_count_as_digits(capsys):
    code, out, err = run_cli(capsys, "crt", "0" * 30 + "4 mod 0000000000000000000007", "2 mod 3")
    assert (code, err) == (0, "")
    assert [json.loads(line)["x0"] for line in out.splitlines()] == [11, 11]


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("main must reuse the parser built at import")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", fail)
    code, out, err = run_cli(capsys, "crt", "2 mod 3", "3 mod 5", "--method", "both")
    assert (code, err) == (0, "")
    assert [json.loads(line)["x0"] for line in out.splitlines()] == [8, 8]


@pytest.mark.parametrize(
    "exc,code,message",
    [(MemoryError, 2, "error: out of memory\n"), (KeyboardInterrupt, 130, "error: interrupted\n")],
)
def test_memory_error_and_interrupt_print_one_line(capsys, monkeypatch, exc, code, message):
    def fail(spec):
        raise exc()

    monkeypatch.setattr("mcn.cli.degree_histogram", fail)
    assert run_cli(capsys, "stats", "--r", "1", "--n", "100") == (code, "", message)


# --- graph size budget ---------------------------------------------------------

ADDRESS_SPACE_CAP = 512 << 20  # room to import numpy; a graph over the budget needs far more


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--r", "1", "--n", str(10**15)],
        ["control", "--r", "1", "--n", str(10**15)],
        ["attack", "--r", "1", "--n", str(10**15), "--strategy", "targeted"],
        ["sf", "--n", str(10**15), "--kbar", "1", "--gamma", "2.5"],
        ["control", "--input", "{header_file}"],
    ],
    ids=["build", "control", "attack", "sf", "header"],
)
def test_oversized_graph_refused_before_allocating(tmp_path, argv, mcn_env):
    # Capped, so that a graph allocated before the check fails with "out of memory"
    # instead of filling the machine.
    header_file = tmp_path / "huge.tsv"
    header_file.write_text("# sf gamma=2.5 n=1000000000000000 seed=1\n1\t2\n")
    argv = [a.format(header_file=header_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "mcn", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**mcn_env, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"GRAPH_SIZE_BUDGET = {GRAPH_SIZE_BUDGET}" in proc.stderr
    assert "--n" in proc.stderr


def test_layer_at_the_north_star_size_fits_the_budget():
    # N = 1e6 at r = 0 and r = 1: about 14.0M nodes plus edges
    for r in (0, 1):
        spec = LayerSpec(r, 10**6)
        assert spec.node_count + degree_histogram(spec).degree_sum <= GRAPH_SIZE_BUDGET
