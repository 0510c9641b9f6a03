"""Property tests: the edge-list reader and writer against line-at-a-time references."""

import io
import re
from array import array
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcn import Digraph, StaticModelSpec, generate_static_sf, layer_header, sf_header
from mcn import digraph
from mcn.digraph import check_graph_size, read_edge_list, write_edge_list
from mcn.layers import LayerSpec, build_layer

SETTINGS = settings(max_examples=150, deadline=None)

# --- the reader ------------------------------------------------------------------

_MCN_HEADER = re.compile(r"^# mcn r=(\d+) n=(\d+)\s*$")
_SF_HEADER = re.compile(r"^# sf gamma=(\S+) n=(\d+) seed=(\d+)\s*$")


def reference_read(fh):
    """Oracle: parse one line at a time, each edge checked by Python ints."""
    header = nodes = fits = None
    lines = enumerate(fh, 1)
    first = next(((lineno, s) for lineno, line in lines if (s := line.strip())), (0, ""))
    if m := _MCN_HEADER.match(first[1]):
        r, n = int(m.group(1)), int(m.group(2))
        check_graph_size(n - r)
        header, nodes = first[1], np.arange(r + 1, n + 1)
        fits = lambda i, j: r < i < j <= n and j % i == r
    elif m := _SF_HEADER.match(first[1]):
        n = int(m.group(2))
        check_graph_size(n)
        header, nodes = first[1], np.arange(1, n + 1)
        fits = lambda i, j: 1 <= i <= n and 1 <= j <= n
    sources, targets = array("q"), array("q")
    for lineno, line in chain((first,), lines):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            a, b = line.split("\t")
            i, j = int(a), int(b)
            sources.append(i)
            targets.append(j)
        except (ValueError, OverflowError):
            raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}") from None
        if fits is not None and not fits(i, j):
            raise ValueError(f"line {lineno}: edge {i}->{j} is not an edge of {header!r}")
    edges = np.column_stack((sources, targets))
    return Digraph.from_edges(np.ravel(edges) if nodes is None else nodes, edges)


def outcome(read, source):
    """The graph ``read`` returns, or the text of the ValueError it raises."""
    try:
        return read(source)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def layer_bodies(draw):
    r = draw(st.integers(0, 3))
    n = draw(st.integers(r + 2, 60))
    return layer_header(r, n), list(build_layer(LayerSpec(r, n)).edges())


@st.composite
def sf_bodies(draw):
    n = draw(st.integers(1, 30))
    pairs = draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=40))
    return sf_header(2.5, n, 1), sorted((i, j) for i, j in pairs if i != j)


BIG = [2**63 - 1, 2**63, 2**64, 10**19, 10**23, 99999999999999999999]
NON_ASCII_DIGITS = ["٣", "３", "৩"]  # Arabic-Indic, fullwidth and Bengali three


def mutate(lines, kind, draw):
    """Plant one defect or oddity of the given kind in the list of lines."""
    p = draw(st.integers(0, len(lines)))
    if kind == "blank":
        lines.insert(p, draw(st.sampled_from(["", "\t", "  "])))
        return
    if kind == "comment":
        lines.insert(p, draw(st.sampled_from(["# note", "#", "  # indented", "# mcn r=1 n=9"])))
        return
    if not lines:
        return
    p = min(p, len(lines) - 1)
    i, _, j = lines[p].partition("\t")
    zeros = lambda: "0" * draw(st.sampled_from([1, 3, 18, 25, 4300]))  # 4301 digits are past int()'s limit
    lines[p] = {
        "space": lambda: f"{i} {j}",
        "one-field": lambda: i,
        "three-field": lambda: f"{i}\t{j}\t{j}",
        "lead-tab": lambda: f"\t{i}\t{j}",
        "trail-tab": lambda: f"{i}\t{j}\t",
        "padding": lambda: f" {i}\t{j} ",
        "zeros": lambda: f"{zeros()}{i}\t{zeros()}{j}",
        "big": lambda: f"{i}\t{draw(st.sampled_from(BIG))}",
        "big-source": lambda: f"{draw(st.sampled_from(BIG))}\t{j}",
        "non-ascii": lambda: f"{i}\t{j[:-1]}{draw(st.sampled_from(NON_ASCII_DIGITS))}",
        "sign": lambda: f"+{i}\t-{j}",
        "underscore": lambda: f"{i}\t{j[:1]}_{j[1:]}" if len(j) > 1 else f"{i}\t{j}_",
        "zero": lambda: f"0\t{j}",
        "off-rule": lambda: f"{i}\t{j[:-1]}{(int(j[-1]) + 1) % 10}" if j[-1:].isdecimal() else lines[p],
        "duplicate": lambda: f"{i}\t{j}\n{i}\t{j}",
        "reversed": lambda: f"{j}\t{i}",
    }[kind]()


MUTATIONS = ["blank", "comment", "space", "one-field", "three-field", "lead-tab", "trail-tab",
             "padding", "zeros", "big", "big-source", "non-ascii", "sign", "underscore", "zero",
             "off-rule", "duplicate", "reversed"]


@st.composite
def edge_list_texts(draw):
    header, edges = draw(st.one_of(layer_bodies(), sf_bodies()))
    lines = [f"{i}\t{j}" for i, j in edges]
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        mutate(lines, kind, draw)
    if header is not None and draw(st.booleans()):
        lines.insert(0, header + draw(st.sampled_from(["", " ", "\t"])))
        lines[:0] = [""] * draw(st.integers(0, 2))
    end = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    text = "".join(line + (draw(st.sampled_from(["\n", "\r\n"])) if end == "mixed" else end)
                   for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@SETTINGS
@given(edge_list_texts(), st.sampled_from([1, 2, 3, 5, 8, 13, 64, 4096]))
def test_reader_agrees_with_reference(tmp_path_factory, text, block):
    path = tmp_path_factory.getbasetemp() / "edges.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(reference_read, io.StringIO(text))
    with mock.patch.object(digraph, "_BLOCK", block):
        assert outcome(read_edge_list, io.StringIO(text)) == expected
        assert outcome(read_edge_list, str(path)) == expected



@pytest.mark.parametrize("lines", [1, 3000])
def test_undecodable_file_fails_as_a_text_mode_read(tmp_path, lines):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"".join(b"%d\t%d\n" % (i, i + 1) for i in range(1, lines + 1)) + b"# \xff\n")
    with open(path, encoding="utf-8") as fh:
        expected = outcome(reference_read, fh)
    assert expected.startswith("UnicodeDecodeError")
    assert outcome(read_edge_list, str(path)) == expected

# Layouts other than the writer's: each is read as a text-mode open() splits it,
# a lone CR ending a line, whether it comes as a path or as a handle.
ODD_LAYOUTS = [
    "# mcn r=1 n=9\r",  # a lone CR ends the header line
    "# mcn r=1 n=9\r2\t3\n",
    "# sf gamma=2.5 n=9 seed=1\r2\t3",
    "# sf gamma=2.5 n=9 seed=1\r",
    "# mcn r=1 n=9 \r \n2\t5\n",
    "# note\n# mcn r=1 n=9\n2\t3\n",  # a comment before the header
    "#\n# sf gamma=2.5 n=9 seed=1\n3\t2\n",
    "# note\r\n# mcn r=1 n=9\r\n2\t3\r\n",
    "\x1c# mcn r=1 n=9\n2\t3\n",  # whitespace str.strip sees and bytes.strip does not
    "# mcn r=1 n=9\x1c\n2\t3\n",
    "\x1c\n# mcn r=1 n=9\n2\t3\n",
    "\x1c2\t3\n4\t7\n",
    "2\t3\x1c\n4\t7\n",
    "\u00a0# sf gamma=2.5 n=9 seed=1\n2\t3\n",
    "# sf gamma=2.5 n=9 seed=1\u00a0\n2\t3\n",
    "\u00a0\n# mcn r=1 n=9\n2\t3\n",
    "\u00a02\t3\n",
    "2\t3\u00a0\n",
    "# mcn r=1 n=9\u00a0\n2\t4\n",  # an off-rule edge under a recognised header
]


@pytest.mark.parametrize("block", [1, 4096])
@pytest.mark.parametrize("text", ODD_LAYOUTS)
def test_odd_layouts_read_as_a_text_mode_open(tmp_path, text, block):
    path = tmp_path / "odd.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(reference_read, io.StringIO(text, newline=None))
    with open(path, encoding="utf-8") as fh:
        assert outcome(reference_read, fh) == expected
    with mock.patch.object(digraph, "_BLOCK", block):
        assert outcome(read_edge_list, io.StringIO(text)) == expected
        assert outcome(read_edge_list, str(path)) == expected


@pytest.mark.parametrize("text", [
    "# mcn r=1 n=9\n2\t3\n# \ud800\n",
    "\ud800\n2\t3\n",
    "# sf gamma=2.5 n=9 seed=1 \udfff\n2\t3\n",
    "2\t3\udc80\n",
])
def test_lone_surrogate_in_a_handle_reads_as_its_text(text):
    assert outcome(read_edge_list, io.StringIO(text)) == outcome(reference_read, io.StringIO(text))


@SETTINGS
@given(st.one_of(layer_bodies(), sf_bodies()), st.booleans(), st.sampled_from(["\n", "\r\n"]),
       st.sampled_from([1, 5, 64, 4096]))
def test_plain_bodies_skip_the_line_loop(tmp_path_factory, body, with_header, end, block):
    header, edges = body
    lines = ([header] if with_header else []) + [f"{i}\t{j}" for i, j in edges]
    text = "".join(line + end for line in lines)
    path = tmp_path_factory.getbasetemp() / "plain.tsv"
    path.write_bytes(text.encode("ascii"))
    expected = reference_read(io.StringIO(text))
    with mock.patch.object(digraph, "_BLOCK", block), \
            mock.patch.object(digraph, "_read_lines", side_effect=AssertionError("line loop")):
        assert read_edge_list(io.StringIO(text)) == expected
        assert read_edge_list(str(path)) == expected


# --- the writer ------------------------------------------------------------------

def reference_text(g, header=None):
    return ("" if header is None else header + "\n") + "".join(f"{i}\t{j}\n" for i, j in g.edges())


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(["layer", "sf", "no edges", "no nodes", "gaps", "int64"]))
    if kind == "layer":
        return build_layer(LayerSpec(draw(st.integers(0, 3)), draw(st.integers(5, 300))))
    if kind == "sf":
        return generate_static_sf(StaticModelSpec(draw(st.integers(4, 200)), 2.5, 3, draw(st.integers(0, 9))))
    if kind == "no edges":
        return Digraph({m: () for m in draw(st.sets(st.integers(1, 10**6), min_size=1, max_size=5))})
    if kind == "no nodes":
        return Digraph({})
    top = 10**9 if kind == "gaps" else 2**63 - 1
    labels = sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=12)))
    if kind == "int64" and draw(st.booleans()):
        labels = sorted({*labels, 2**63 - 1, 1})
    return Digraph({m: tuple(sorted(draw(st.sets(st.sampled_from(labels), max_size=6)) - {m}))
                    for m in labels})


@SETTINGS
@given(graphs(), st.sampled_from([None, "# mcn r=1 n=9", "# sf gamma=2.5 n=9 seed=1"]),
       st.sampled_from([1, 2, 3, 7, 64]))
def test_writer_matches_one_line_per_edge(tmp_path_factory, g, header, batch):
    expected = reference_text(g, header)
    path = tmp_path_factory.getbasetemp() / "written.tsv"
    with mock.patch.object(digraph, "_BATCH", batch):
        buf = io.StringIO()
        write_edge_list(g, buf, header=header)
        write_edge_list(g, str(path), header=header)
    assert buf.getvalue() == expected
    assert path.read_bytes() == expected.encode("ascii")


# 1, 9, 10, 99, 100, ..., 10**18 - 1, 10**18 and 2**63 - 1: each side of every digit-count step
DIGIT_BOUNDARIES = sorted({1, *(10**k + d for k in range(1, 19) for d in (-1, 0)), 2**63 - 1})


@pytest.mark.parametrize("width", range(1, 20))
def test_writer_at_every_digit_count_boundary(width):
    # the widest label has width digits, so the digit table is width columns wide
    labels = [m for m in DIGIT_BOUNDARIES if len(str(m)) <= width]
    g = Digraph({m: tuple(j for j in labels if j != m) for m in labels})
    for batch in (1, 7, 64):
        buf = io.StringIO()
        with mock.patch.object(digraph, "_BATCH", batch):
            write_edge_list(g, buf)
        assert buf.getvalue() == reference_text(g)
    assert read_edge_list(io.StringIO(buf.getvalue())) == g
