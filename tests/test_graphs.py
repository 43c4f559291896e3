import itertools

import pytest
from hypothesis import given, settings

from kronwalk import (
    Graph,
    make_complete,
    make_complete_multipartite,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
    random_graph,
    unlabeled_graphs,
)
import kronwalk.graphs as graphs_module
from kronwalk.harness.campaign import _single_deletions
from kronwalk.harness.claims import are_isomorphic
from kronwalk.walks import is_bipartite, is_connected

from helpers import (
    check_rows, enumerate_graphs, graphs, is_k_plus, labeled_graphs, traced_peak
)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        Graph(0)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: Graph(n),
        make_path,
        make_cycle,
        make_complete,
        lambda n: make_complete(n, with_loops=True),
        lambda n: make_complete_multipartite([n - 3, 3]),
        lambda n: make_h_family(n, 3),
        lambda n: make_f_family(n, 3),
        lambda n: random_graph(n, 0.5, 0.5, 0),
    ],
)
def test_order_guard_refuses_before_building(monkeypatch, build):
    # Under a small limit, and with Graph refusing any edge list or rows,
    # each builder must refuse the order before it lays out a single edge.
    monkeypatch.setattr(graphs_module, "MAX_ORDER", 10)
    build(10)
    _refuse_any_layout(monkeypatch, "built")
    with pytest.raises(ValueError, match="exceeds the limit of 10"):
        build(11)


def _refuse_any_layout(monkeypatch, what):
    # Graph(order) with no edges stays allowed: the order guard inside
    # Graph.__init__ is the refusal some builders rely on.
    real_init = Graph.__init__

    def no_edges(self, order, edges=()):
        assert edges == (), f"edges were {what} for an oversized graph"
        real_init(self, order)

    def no_rows(cls, rows):
        raise AssertionError(f"rows were {what} for an oversized graph")

    monkeypatch.setattr(Graph, "__init__", no_edges)
    monkeypatch.setattr(Graph, "_from_rows", classmethod(no_rows))


@pytest.mark.parametrize(
    "build",
    [
        make_complete,
        lambda n: make_complete(n, with_loops=True),
        lambda n: make_complete_multipartite([n - 3, 3]),
    ],
)
def test_edge_guard_refuses_before_building(monkeypatch, build):
    # Under a limit of build(6)'s edge count, and with Graph refusing any
    # edge list or rows, build(7) must refuse its edge count before laying
    # out an edge.
    limit = build(6).edge_count
    monkeypatch.setattr(graphs_module, "MAX_EDGES", limit)
    build(6)
    _refuse_any_layout(monkeypatch, "listed")
    with pytest.raises(ValueError, match=f"exceeds the limit of {limit}"):
        build(7)


def test_edge_endpoints_validated():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_loop_semantics():
    g = Graph(2, [(0, 0), (0, 1)])
    assert g.has_loop(0) and not g.has_loop(1)
    assert g.loop_flags == (True, False)
    assert g.edge_count == 2  # the loop counts once
    assert g.degree(0) == 3  # ... but twice in the degree
    assert g.degree(1) == 1
    assert g.neighbors(0) == (0, 1)


def test_duplicate_edges_collapse():
    assert Graph(2, [(0, 1), (1, 0), (0, 1)]) == Graph(2, [(0, 1)])


def test_graphs_are_value_objects():
    assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
    assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
    assert hash(Graph(3, [(0, 1)])) == hash(Graph(3, [(0, 1)]))
    # Against any other value, equality is left to that value.
    assert Graph(1).__eq__(1) is NotImplemented
    assert Graph(1) != 1


def test_remove_vertex_relabels():
    # The second candidate drops vertex 1; labels above it shift down by one.
    (g,) = list(_single_deletions((make_path(4),)))[1]
    assert g.order == 3
    assert list(g.edges()) == [(1, 2)]
    assert list(_single_deletions((Graph(1),))) == []


def test_remove_edge():
    # After the three vertex deletions come the edge deletions, in edges() order.
    (g,) = list(_single_deletions((make_cycle(3),)))[3]
    assert list(g.edges()) == [(0, 2), (1, 2)]
    edge_deletions = [c for (c,) in _single_deletions((g,)) if c.order == 3]
    assert [list(c.edges()) for c in edge_deletions] == [[(1, 2)], [(0, 2)]]


@pytest.mark.parametrize("n", [1, 2, 4])
def test_path_shape(n):
    g = make_path(n)
    assert g.order == n
    assert g.edge_count == n - 1
    assert not any(g.loop_flags)


def test_path_examples():
    assert make_path(2) == make_complete(2)
    p4 = make_path(4)
    assert is_bipartite(p4)
    with pytest.raises(ValueError):
        make_path(0)


def test_cycle_shape():
    for n in (3, 4, 5):
        g = make_cycle(n)
        assert g.order == n and g.edge_count == n
        assert is_bipartite(g) == (n % 2 == 0)
    with pytest.raises(ValueError):
        make_cycle(2)


def test_complete_edge_counts():
    assert make_complete(3).edge_count == 3
    assert make_complete(4, with_loops=True).edge_count == 4 * 3 // 2 + 4
    k1p = make_complete(1, with_loops=True)
    assert k1p.order == 1 and k1p.has_loop(0)
    assert is_k_plus(k1p)
    assert is_k_plus(make_complete(3, with_loops=True))
    assert not is_k_plus(make_complete(3))
    with pytest.raises(ValueError):
        make_complete(0)


def test_multipartite():
    assert make_complete_multipartite([1, 1, 1]) == make_complete(3)
    assert make_complete_multipartite([2, 2]) == Graph(
        4, [(0, 2), (0, 3), (1, 2), (1, 3)]
    )
    g = make_complete_multipartite([2, 1, 1])
    assert g.order == 4 and g.edge_count == 5
    with pytest.raises(ValueError):
        make_complete_multipartite([3])
    with pytest.raises(ValueError):
        make_complete_multipartite([2, 0])


def _from_pairs(n, adjacent):
    # The reference: every adjacent pair, as Graph.__init__ takes them.
    return Graph(n, [(u, v) for u in range(n) for v in range(u, n) if adjacent(u, v)])


@pytest.mark.parametrize("with_loops", [False, True])
@pytest.mark.parametrize("n", range(1, 13))
def test_row_built_complete_graph_matches_its_pairs(n, with_loops):
    g = make_complete(n, with_loops=with_loops)
    check_rows(g)
    assert g == _from_pairs(n, lambda u, v: with_loops or u != v)


@pytest.mark.parametrize(
    "sizes", [[1, 1], [1, 4], [4, 1], [2, 3, 1], [3, 3], [1, 2, 3, 4], [5, 1, 1, 2]]
)
def test_row_built_multipartite_graph_matches_its_pairs(sizes):
    part = [index for index, size in enumerate(sizes) for _ in range(size)]
    g = make_complete_multipartite(sizes)
    check_rows(g)
    assert g == _from_pairs(len(part), lambda u, v: part[u] != part[v])


@pytest.mark.parametrize(
    "build, limit_mb",
    [
        (lambda: make_complete(1000), 16),
        (lambda: make_complete(1000, with_loops=True), 1),
        (lambda: make_complete_multipartite([500, 500]), 1),
    ],
    ids=["complete", "complete+", "multipartite"],
)
def test_dense_families_build_no_edge_list(build, limit_mb):
    # Rows are laid out directly: K1000's 1000 rows of 999 share their ints,
    # and rows that are equal are one tuple.  Listing the 499,500 pairs for
    # Graph.__init__ peaked at about 88 MB.
    _, peak = traced_peak(build)
    assert peak < limit_mb * 2**20


def test_family_shapes():
    h = make_h_family(5, 3)
    assert h.order == 5 and is_connected(h)
    # path (0, 1), bridge (1, 2), triangle {2, 3, 4}
    assert set(h.edges()) == {(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)}
    f = make_f_family(5, 3)
    assert f == h  # the length-3 cycle is the triangle
    assert make_h_family(4, 3).order == 4
    assert make_f_family(4, 3).order == 4
    bigger = make_f_family(8, 5)
    assert bigger.order == 8 and is_connected(bigger)
    with pytest.raises(ValueError, match="exceed the clique size"):
        make_h_family(3, 3)
    with pytest.raises(ValueError, match="clique part needs at least one vertex"):
        make_h_family(3, 0)
    with pytest.raises(ValueError, match="cycle part needs at least three"):
        make_f_family(6, 2)
    with pytest.raises(ValueError, match="exceed the cycle size"):
        make_f_family(5, 5)


@given(graphs(max_order=6))
@settings(max_examples=150)
def test_construction_invariants(g):
    check_rows(g)
    for u, v in g.edges():
        assert v in g.neighbors(u) and u in g.neighbors(v)


def test_edge_count_reads_the_rows():
    for g in labeled_graphs():
        assert g.edge_count == sum(1 for _ in g.edges()), g


def test_random_graph_extremes():
    assert random_graph(5, 0, 0, 3) == Graph(5)
    assert random_graph(5, 1, 1, 3) == make_complete(5, with_loops=True)
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 0, 3)
    with pytest.raises(ValueError):
        random_graph(5, 0, -0.1, 3)
    with pytest.raises(ValueError, match="order must be at least 1"):
        random_graph(0, 0.5, 0.5, 3)


def test_random_graph_refuses_an_edge_count_above_the_limit(monkeypatch):
    # At edge_prob 1 the rows of pairs on 9 vertices hold 8, 7, 6, ... edges,
    # so under a limit of 10 the draw stops after its second row, at 15 of
    # the 36 pairs.  Loops count as edges: K5 has 10, and 15 with its loops.
    monkeypatch.setattr(graphs_module, "MAX_EDGES", 10)
    assert random_graph(5, 1, 0, 3) == make_complete(5)
    for n, loop_prob in ((9, 0), (5, 1)):
        with pytest.raises(ValueError, match="^edge count 15 exceeds the limit of 10$"):
            random_graph(n, 1, loop_prob, 3)


def test_random_graph_deterministic():
    a = random_graph(8, 0.5, 0.25, 42)
    b = random_graph(8, 0.5, 0.25, 42)
    assert a == b
    assert a != random_graph(8, 0.5, 0.25, 43)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(3, allow_loops=True)) == 64
    seen = set(enumerate_graphs(3, allow_loops=True))
    assert len(seen) == 64  # each labeled graph exactly once


def test_enumerate_cap():
    # Each refusal comes at the first step, before any graph is yielded.
    with pytest.raises(ValueError):
        next(unlabeled_graphs(6))
    with pytest.raises(ValueError):
        next(unlabeled_graphs(5, allow_loops=True))
    with pytest.raises(ValueError):
        next(unlabeled_graphs(9, allow_loops=True))
    with pytest.raises(ValueError):
        next(unlabeled_graphs(0))


@pytest.mark.parametrize(
    "loops, counts", [(False, [1, 2, 4, 11, 34]), (True, [2, 6, 20, 90])]
)
def test_unlabeled_counts(loops, counts):
    # OEIS A000088 (simple graphs) and A000666 (graphs with loops allowed).
    orders = range(1, len(counts) + 1)
    assert [sum(1 for _ in unlabeled_graphs(n, loops)) for n in orders] == counts


@pytest.mark.parametrize(
    "n, loops", [(n, False) for n in range(1, 6)] + [(n, True) for n in range(1, 5)]
)
def test_unlabeled_graphs_represent_each_class_once(n, loops):
    representatives = list(unlabeled_graphs(n, loops))
    for g, h in itertools.combinations(representatives, 2):
        assert not are_isomorphic(g, h)
    for g in enumerate_graphs(n, loops):
        assert sum(are_isomorphic(g, r) for r in representatives) == 1
