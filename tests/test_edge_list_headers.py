import io

import pytest

from mcn import build_layer, layer_header, read_edge_list, write_edge_list
from mcn.cli import main
from mcn.layers import LayerSpec


@pytest.mark.parametrize(
    "text",
    [
        "# mcn r=1 n=5\n9\t4\n",            # node 9 lies outside 2..5
        "# mcn r=1 n=5\n2\t4\n",            # 4 % 2 != 1
        "# mcn r=2 n=9\n1\t3\n",            # node 1 lies below r+1
        "# mcn r=1 n=9\n3\t2\n",            # 2 % 3 == 2, and j < i
        "# mcn r=0 n=9\n2\t5\n",            # 5 is not a multiple of 2
        "# sf gamma=2.5 n=5 seed=1\n6\t1\n",  # node 6 lies outside 1..5
        "# sf gamma=2.5 n=5 seed=1\n0\t1\n",  # node 0 lies outside 1..5
    ],
)
def test_header_rejects_edges_outside_its_graph(text):
    with pytest.raises(ValueError, match="line 2: edge"):
        read_edge_list(io.StringIO(text))


def test_header_error_names_the_line():
    text = "# mcn r=1 n=9\n\n2\t3\n2\t5\n2\t6\n"
    with pytest.raises(ValueError, match=r"^line 5: edge 2->6 "):
        read_edge_list(io.StringIO(text))


def test_header_accepts_every_layer_edge():
    for r, n in [(0, 30), (1, 30), (4, 30)]:
        buf = io.StringIO()
        g = build_layer(LayerSpec(r, n))
        write_edge_list(g, buf, header=layer_header(r, n))
        assert read_edge_list(io.StringIO(buf.getvalue())) == g


def test_comment_after_first_line_is_not_a_header():
    back = read_edge_list(io.StringIO("4\t7\n# mcn r=1 n=5\n"))
    assert back.nodes == (4, 7)


def test_cli_reports_header_mismatch(capsys, tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# mcn r=1 n=5\n9\t4\n")
    code = main(["control", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: line 2:")
    assert err.count("\n") == 1


def test_cli_names_a_duplicate_edge(capsys, tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("# mcn r=1 n=9\n2\t3\n2\t3\n")
    code = main(["control", "--input", str(path)])
    assert (code, capsys.readouterr().err) == (2, "error: duplicate edge 2->3\n")
