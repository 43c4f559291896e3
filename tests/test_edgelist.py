from pathlib import Path

import pytest
from hypothesis import given, settings

from kronwalk import (
    Graph,
    format_edge_list,
    make_cycle,
    parse_edge_list,
    read_graph,
    write_graph,
)
from kronwalk.edgelist import graph_to_json

from helpers import graphs


def test_format_round_trip_explicit():
    g = Graph(3, [(0, 0), (0, 2), (1, 2)])
    text = format_edge_list(g)
    assert text == "n 3\n0 0\n0 2\n1 2\n"
    assert parse_edge_list(text) == g


def test_json_form_lists_the_edges_once():
    g = Graph(3, [(0, 0), (0, 2), (1, 2)])
    assert graph_to_json(g) == {"order": 3, "edges": [[0, 0], [0, 2], [1, 2]]}


@given(graphs(max_order=7))
@settings(max_examples=100)
def test_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


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
