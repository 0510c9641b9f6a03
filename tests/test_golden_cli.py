"""Byte-level golden output of the CLI.

Each case runs one ``mcn`` command in a temporary directory and hashes what it
prints or writes. The hashes were recorded before the graph storage moved to
CSR arrays, so any change in the bytes the commands produce fails here:
that includes a numpy scalar reaching a ``repr`` (``np.float64(...)``) or
``json.dumps`` (which rejects numpy integers).
"""

import argparse
import hashlib
from pathlib import Path

import pytest

from mcn.cli import main

SF = ["sf", "--n", "200", "--gamma", "2.5", "--kbar", "3", "--seed", "7"]

# name -> (argv, file the command writes, or None for stdout)
CASES = {
    "build_r0": (["build", "--r", "0", "--n", "120"], None),
    "build_r1": (["build", "--r", "1", "--n", "120"], None),
    "build_r3": (["build", "--r", "3", "--n", "120", "--out", "g3.tsv"], "g3.tsv"),
    "stats_r0": (["stats", "--r", "0", "--n", "500"], None),
    "stats_r2": (["stats", "--r", "2", "--n", "500", "--csv", "h.csv"], "h.csv"),
    "control_layer": (["control", "--r", "2", "--n", "150", "--method", "both"], None),
    "control_sf": (["control", "--input", "sf.tsv", "--method", "both"], None),
    "attack_layer_random": (
        ["attack", "--r", "1", "--n", "300", "--strategy", "random",
         "--pmax", "0.6", "--steps", "4", "--trials", "6", "--seed", "3"], None),
    "attack_layer_targeted": (
        ["attack", "--r", "2", "--n", "300", "--strategy", "targeted",
         "--steps", "5", "--csv", "t.csv"], "t.csv"),
    "attack_sf_random": (
        ["attack", "--input", "sf.tsv", "--strategy", "random",
         "--steps", "4", "--trials", "6", "--seed", "5"], None),
    "attack_sf_targeted": (
        ["attack", "--input", "sf.tsv", "--strategy", "targeted", "--steps", "5"], None),
    "sf": (SF + ["--out", "sf2.tsv"], "sf2.tsv"),
    "crt": (["crt", "2 mod 3", "3 mod 5", "2 mod 7", "10 mod 11", "--method", "both"], None),
}

GOLDEN = {
    "build_r0": "830a289ed556ff197ffb800c34178b6156db35854aac5c81a02219db50f57a7d",
    "build_r1": "7adca28d841ca946eb34b9436cd2f5563c888f3d03c51aa71e89fd735cdac1dc",
    "build_r3": "3172f6298652483ea8145942d68e678e92146744ae7ce7d993906b88066de4dc",
    "stats_r0": "23cb6ee00ec80566c795ea043bd18b64c1484bead41e05587f231e2869d145fe",
    "stats_r2": "bbd079e42d238c075359873bbf0b17f4da6467d3f0641718b8f15edf696940f3",
    "control_layer": "2d47b400a761cf8c319bb3e99d78283f5fe7e9e2205edc3aee0908699f69aea2",
    "control_sf": "cd629a33a19ffe2ca33ddf11dc5b55a3049df70abfcad13ffa3c2a85fc005b75",
    "attack_layer_random": "e9ce49db24b664c4034b26163e6d941ecf74354e3c25db2a9e9f02c765950389",
    "attack_layer_targeted": "4d8257da61aa54274d835a6975b518d4d1902f4984d409641fbc748f30afb2d1",
    "attack_sf_random": "a66f1ce02414b4fc21d8120435cf9b511e1d7c949c90ae3f30b880d452db6967",
    "attack_sf_targeted": "16ae9001e6799ebb4c8f75bd1ca7354dbab90d210068115ed075efb3e5c47a23",
    "sf": "81170462f41d4447bacf1b8d27df845317ba2798d532f8bd1961590be37fce82",
    "crt": "a72ff619781bd926d972b37b621fe6bc904a8d2104169c97a38c90143c4c2fbb",
}


def output_bytes(name: str, workdir: Path, capsys) -> bytes:
    """Run one case inside ``workdir`` (with ``sf.tsv`` present) and return its output."""
    argv, written = CASES[name]
    assert main(SF + ["--out", "sf.tsv"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    if written is None:
        return out.encode()
    assert out == ""
    return (workdir / written).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_unchanged(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = output_bytes(name, tmp_path, capsys)
    assert b"np." not in data
    assert hashlib.sha256(data).hexdigest() == GOLDEN[name]


def test_one_parser_serves_every_case_after_an_argparse_error(tmp_path, monkeypatch, capsys):
    # One process, no parser built per call, and a usage error (exit 2) halfway
    # through: every later command still prints its golden bytes.
    def fail(*args, **kwargs):
        raise AssertionError("main must reuse the parser built at import")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", fail)
    monkeypatch.chdir(tmp_path)
    names = sorted(CASES)
    for k, name in enumerate(names):
        if k == len(names) // 2:
            with pytest.raises(SystemExit) as exc:
                main(["attack", "--r", "1", "--n", "50"])  # missing --strategy
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("error:")
        data = output_bytes(name, tmp_path, capsys)
        assert hashlib.sha256(data).hexdigest() == GOLDEN[name], name
