import io

import numpy as np
import pytest

from mcn import build_layer, layer_header, read_edge_list, write_edge_list
from mcn.cli import main
from mcn.digraph import _header
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


@pytest.mark.parametrize("r", [0, 1, 3])
def test_layer_edge_rule_is_the_same_on_ints_and_arrays(r):
    # the line loop checks each line with ints, the block reader each block with arrays
    n = 14
    _, _, fits = _header(layer_header(r, n))
    i, j = (a.ravel() for a in np.meshgrid(np.arange(-3, n + 3), np.arange(-3, n + 3)))
    per_line = [fits(a, b) for a, b in zip(i.tolist(), j.tolist())]
    assert {type(x) for x in per_line} == {bool}  # plain int arithmetic, no numpy scalar per line
    assert per_line == fits(i, j).tolist()
    assert per_line == [r < a < b <= n and b % a == r for a, b in zip(i.tolist(), j.tolist())]


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


# --- the reader's error contract ---------------------------------------------

READER_ERRORS = [
    # blank and comment lines count towards the line number
    ("# mcn r=1 n=9\n\n2\t3\n# note\n2 3\n", "line 5: malformed edge-list line: '2 3'"),
    ("# mcn r=1 n=9\n2\t3\t4\n", "line 2: malformed edge-list line: '2\\t3\\t4'"),
    ("# mcn r=1 n=9\n7\n", "line 2: malformed edge-list line: '7'"),
    ("# mcn r=1 n=9\n2\tx\n", "line 2: malformed edge-list line: '2\\tx'"),
    # the earlier line wins
    ("# mcn r=1 n=9\n2\t4\n2\tx\n", "line 2: edge 2->4 is not an edge of '# mcn r=1 n=9'"),
    ("# mcn r=1 n=9\n2\tx\n2\t4\n", "line 2: malformed edge-list line: '2\\tx'"),
]


@pytest.mark.parametrize("text,message", READER_ERRORS)
def test_reader_error_messages(text, message):
    with pytest.raises(ValueError) as exc:
        read_edge_list(io.StringIO(text))
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", READER_ERRORS)
def test_cli_prints_reader_errors_on_one_line(capsys, tmp_path, text, message):
    path = tmp_path / "bad.tsv"
    path.write_text(text)
    assert main(["control", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "text", ["# mcn r=1 n=9\n2\t3\n2\t5\n", "# sf gamma=2.5 n=5 seed=1\n1\t2\n5\t1\n", "4\t7\n4\t9\n"]
)
def test_crlf_lines_read_as_lf_lines(tmp_path, text):
    crlf = text.replace("\n", "\r\n")
    path = tmp_path / "crlf.tsv"
    path.write_bytes(crlf.encode())
    g = read_edge_list(io.StringIO(text))
    assert read_edge_list(io.StringIO(crlf)) == g
    assert read_edge_list(str(path)) == g


@pytest.mark.parametrize(
    "text,message",
    [
        ("# mcn r=1 n=9\r2\t3\r2\t5\r", None),
        ("# mcn r=1 n=9\r2\t3\r\n\r2\t5\r\n", None),
        ("# mcn r=1 n=9\r2\t3\r2\t4\r", "line 3: edge 2->4 is not an edge of '# mcn r=1 n=9'"),
    ],
)
def test_lone_cr_ends_a_line_by_handle_and_by_path(tmp_path, text, message):
    path = tmp_path / "cr.tsv"
    path.write_bytes(text.encode())
    if message is None:
        g = read_edge_list(io.StringIO(text))
        assert read_edge_list(str(path)) == g
        assert (g.num_nodes, list(g.edges())) == (8, [(2, 3), (2, 5)])
        return
    for source in (io.StringIO(text), str(path)):
        with pytest.raises(ValueError) as exc:
            read_edge_list(source)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "text",
    [
        f"2\t{2**63}",
        f"{2**63}\t3",
        f"2\t{2**64}",
        f"2\t{10**23}",
        f"2\t{-2**63 - 1}",
        f"# sf gamma=2.5 n=5 seed=1\n2\t{2**63}",  # out of range reads as malformed, not as off the graph
    ],
)
def test_cli_refuses_values_beyond_int64(capsys, tmp_path, text):
    path = tmp_path / "big.tsv"
    path.write_text(text + "\n")
    code = main(["control", "--input", str(path)])
    out, err = capsys.readouterr()
    *head, line = text.split("\n")
    assert (code, out) == (2, "")
    assert err == f"error: line {len(head) + 1}: malformed edge-list line: {line!r}\n"


@pytest.mark.parametrize("header,nodes", [("# mcn r=3 n=40", 37), ("# sf gamma=2.5 n=40 seed=1", 40)])
def test_header_node_count_checked_against_budget(monkeypatch, header, nodes):
    text = f"{header}\n4\t11\n"
    monkeypatch.setattr("mcn.digraph.GRAPH_SIZE_BUDGET", nodes)
    assert read_edge_list(io.StringIO(text)).num_nodes == nodes
    monkeypatch.setattr("mcn.digraph.GRAPH_SIZE_BUDGET", nodes - 1)
    with pytest.raises(ValueError, match=f"over GRAPH_SIZE_BUDGET = {nodes - 1}; use a smaller --n"):
        read_edge_list(io.StringIO(text))
