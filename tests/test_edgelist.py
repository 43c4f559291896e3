import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from kronwalk import (
    Graph,
    format_edge_list,
    kronecker_product,
    make_complete,
    make_cycle,
    parse_edge_list,
    read_graph,
    unlabeled_graphs,
    write_graph,
)
import kronwalk.edgelist as edgelist_module
import kronwalk.graphs as graphs_module
from kronwalk.edgelist import graph_to_json

from helpers import graphs


def test_format_round_trip_explicit():
    g = Graph(3, [(0, 0), (0, 2), (1, 2)])
    lines = list(format_edge_list(g))
    assert lines == ["n 3\n", "0 0\n", "0 2\n", "1 2\n"]
    assert parse_edge_list("".join(lines)) == g


def test_json_form_lists_the_edges_once():
    g = Graph(3, [(0, 0), (0, 2), (1, 2)])
    assert graph_to_json(g) == {"order": 3, "edges": [[0, 0], [0, 2], [1, 2]]}


@given(graphs(max_order=7))
@settings(max_examples=100)
def test_round_trip(g):
    # The parser takes the lines as format_edge_list yields them, or the text.
    assert parse_edge_list(format_edge_list(g)) == g
    assert parse_edge_list("".join(format_edge_list(g))) == g


def test_comments_and_blank_lines():
    text = "# a comment\n\nn 3\n0 1\n# loop below\n2 2\n"
    g = parse_edge_list(text)
    assert g == Graph(3, [(0, 1), (2, 2)])


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_edge_list("n 3\n0 1\n0 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_edge_list("n 3\n0 1\n1 0\n")  # same edge, other orientation


def test_header_required():
    with pytest.raises(ValueError, match="header"):
        parse_edge_list("0 1\n")
    with pytest.raises(ValueError, match="header"):
        parse_edge_list("# nothing\n")
    with pytest.raises(ValueError):
        parse_edge_list("n 0\n")


def test_bad_lines():
    with pytest.raises(ValueError, match="line 2"):
        parse_edge_list("n 3\n0 1 2\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_edge_list("n 3\n0 3\n")
    with pytest.raises(ValueError, match="integers"):
        parse_edge_list("n 3\na b\n")


def test_file_round_trip(tmp_path):
    path = tmp_path / "g.edges"
    write_graph(path, make_cycle(5))
    assert read_graph(path) == make_cycle(5)


def test_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(b"\xef\xbb\xbfn 3\n0 1\n2 2\n")
    assert read_graph(path) == Graph(3, [(0, 1), (2, 2)])


def test_readme_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Edge-list format", 1)[1].split("```")[1]
    assert parse_edge_list(block) == Graph(5, [(0, 1), (1, 2), (2, 2)])


def _lines_then_stop(lines, allowed):
    """Yield ``lines``, failing the test if more than ``allowed`` are taken."""
    for taken, line in enumerate(lines, start=1):
        if taken > allowed:
            raise AssertionError(f"line {taken} was read")
        yield line


def test_a_header_refusal_reads_no_line_past_the_header():
    def refuse(order):
        raise ValueError(f"order {order} refused")

    lines = ["# big\n", "n 5000\n", "0 1\n"]
    with pytest.raises(ValueError, match="order 5000 refused"):
        parse_edge_list(_lines_then_stop(lines, 2), refuse)
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_edge_list(_lines_then_stop(["n 1000000000\n", "0 1\n"], 1))


def test_the_reader_stops_at_the_first_edge_past_the_limit(monkeypatch):
    monkeypatch.setattr(graphs_module, "MAX_EDGES", 10)
    # K5 plus a loop on every vertex: 15 edges after the header line.
    lines = ["n 5\n"] + [f"{u} {v}\n" for u in range(5) for v in range(u, 5)]
    with pytest.raises(ValueError, match="edge count 11 exceeds the limit of 10"):
        parse_edge_list(_lines_then_stop(lines, 12))
    assert parse_edge_list(lines[:11]).edge_count == 10


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("n 3\n0 1\f0 x\n", 3),  # a form feed splits a line
        ("n 3\n0 1\u20280 x\n", 3),  # so does U+2028
        ("n 3\r\n0 1\r\n\r\n0 x\r\n", 4),
        ("n 3\r0 1\r0 x", 3),
    ],
)
def test_a_file_numbers_its_lines_as_splitlines_does(tmp_path, text, lineno):
    path = tmp_path / "g.edges"
    path.write_bytes(text.encode("utf-8"))
    message = f"line {lineno}: endpoints are not integers"
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)
    with pytest.raises(ValueError, match=message):
        read_graph(path)


def _json_file_text(g):
    # The reference: the JSON form as one document, keys sorted, and a newline.
    return json.dumps(graph_to_json(g), sort_keys=True) + "\n"


def test_a_file_is_written_in_chunks_of_lines(monkeypatch, tmp_path):
    monkeypatch.setattr(edgelist_module, "_WRITE_CHUNK_LINES", 2)
    path = tmp_path / "g.edges"
    g = make_cycle(5)
    write_graph(path, g)
    assert path.read_text(encoding="utf-8") == "".join(format_edge_list(g))
    write_graph(path, g, "json")
    assert path.read_bytes() == _json_file_text(g).encode()


_JSON_CASES = [
    *unlabeled_graphs(4, allow_loops=True),
    Graph(1),
    Graph(1, [(0, 0)]),
    kronecker_product(make_cycle(5), make_complete(3, with_loops=True)),
]


@pytest.mark.parametrize("g", _JSON_CASES)
def test_a_json_file_holds_the_json_form_sorted_on_one_line(tmp_path, g):
    path = tmp_path / "g.json"
    write_graph(path, g, "json")
    assert path.read_bytes() == _json_file_text(g).encode()


def test_an_unknown_format_is_refused_before_the_file_is_opened(tmp_path):
    path = tmp_path / "g.txt"
    with pytest.raises(ValueError, match="^unknown graph format 'yaml'; known: edgelist, json$"):
        write_graph(path, make_cycle(3), "yaml")
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["edgelist", "json"])
def test_a_large_file_is_written_without_its_whole_text(tmp_path, fmt):
    # C301 x C331 has 199,262 edges; either format's whole text is several
    # megabytes (about 24 MB traced for the JSON document built at once),
    # while a chunk of 4,096 lines or edges is well under one.
    g = kronecker_product(make_cycle(301), make_cycle(331))
    tracemalloc.start()
    try:
        write_graph(tmp_path / "p.out", g, fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
