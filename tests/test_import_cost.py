import subprocess
import sys

import pytest


def test_cli_run_loads_neither_scipy_nor_numpy_ma(tmp_path, mcn_env):
    # scipy.sparse.csgraph alone roughly doubles the resident size of
    # `import mcn`, and np.unique's default path pulls in numpy.ma; a CLI
    # run on a graph should pay for neither.
    code = (
        "import sys\n"
        "from mcn.cli import main\n"
        "main(['sf', '--n', '60', '--gamma', '2.5', '--kbar', '2', '--out', 'g.tsv'])\n"
        "main(['control', '--input', 'g.tsv', '--method', 'both'])\n"
        "main(['attack', '--input', 'g.tsv', '--strategy', 'random', '--trials', '2'])\n"
        "print(sorted(m for m in ('scipy', 'numpy.ma') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env=mcn_env, check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"


def test_matching_core_loads_neither_scipy_nor_numpy_ma(tmp_path, mcn_env):
    # kbar=8 leaves a core after the degree-1 peel, so Hopcroft-Karp runs on it
    # in `control` and at the attack's p = 0 point.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from mcn.cli import main\n"
        "from mcn.control import _max_matching\n"
        "from mcn.digraph import read_edge_list\n"
        "main(['sf', '--n', '200', '--gamma', '2.5', '--kbar', '8', '--seed', '0', '--out', 'g.tsv'])\n"
        "main(['control', '--input', 'g.tsv', '--method', 'matching'])\n"
        "main(['attack', '--input', 'g.tsv', '--strategy', 'random', '--steps', '2', '--trials', '2'])\n"
        "print(sorted(m for m in ('scipy', 'numpy.ma') if m in sys.modules))\n"
        "g = read_edge_list('g.tsv')\n"
        "print(_max_matching(np.repeat(np.arange(g.num_nodes), g.out_degrees), g.indices, g.num_nodes)[1] > 0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env=mcn_env, check=True,
    ).stdout
    assert out.splitlines()[-2:] == ["[]", "True"]


@pytest.mark.parametrize(
    "steps",
    [
        # a layer file under its "# mcn" header, written and read back
        "main(['build', '--r', '1', '--n', '300', '--out', 'g.tsv'])\n"
        "main(['control', '--input', 'g.tsv', '--method', 'both'])\n",
        # CRLF files, plain and with a comment line that only the line loop reads
        "from mcn.digraph import read_edge_list\n"
        "for body in (b'1\\t2\\r\\n', b'\\r\\n# c\\r\\n1\\t2\\r\\n'):\n"
        "    open('g.tsv', 'wb').write(b'# sf gamma=2.5 n=9 seed=1\\r\\n' + body)\n"
        "    assert read_edge_list('g.tsv').num_edges == 1\n",
    ],
)
def test_edge_list_io_loads_neither_scipy_nor_numpy_ma(tmp_path, steps, mcn_env):
    code = "import sys\nfrom mcn.cli import main\n" + steps + (
        "print(sorted(m for m in ('scipy', 'numpy.ma') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env=mcn_env, check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"
