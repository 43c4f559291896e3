import pytest
from hypothesis import given, settings

from kronwalk import (
    MAX_ORDER,
    Graph,
    adjacency,
    diameter,
    is_bipartite,
    is_connected,
    kron_matrix,
    kronecker_product,
    make_complete,
    make_cycle,
    make_path,
    product_diameter,
    product_edge_count,
    product_is_connected,
    random_graph,
    summarize,
)
import kronwalk.graphs as graphs_module

from helpers import enumerate_graphs, graphs


def _edge_pair_product(g1, g2):
    """The product by its definition: both cross pairings of every two factor edges."""
    n2 = g2.order
    pairs = []
    for u1, v1 in g1.edges():
        for u2, v2 in g2.edges():
            pairs.append((u1 * n2 + u2, v1 * n2 + v2))
            pairs.append((u1 * n2 + v2, v1 * n2 + u2))
    return Graph(g1.order * n2, pairs)


def _assert_product_matches_definition(g1, g2):
    p = kronecker_product(g1, g2)
    expected = _edge_pair_product(g1, g2)
    assert p == expected
    assert hash(p) == hash(expected)
    p.validate()


def test_vertex_encoding_round_trip():
    # vertex (a, b) of the product is a * n2 + b: the lone product loop of
    # a loop at 2 (of 3) and a loop at 1 (of 3) sits at 7
    p = kronecker_product(Graph(3, [(2, 2)]), Graph(3, [(1, 1)]))
    assert list(p.edges()) == [(7, 7)]


def test_k2_times_k2_splits():
    p = kronecker_product(make_complete(2), make_complete(2))
    assert p.order == 4
    assert p.edge_count == 2
    assert not is_connected(p)
    assert set(p.edges()) == {(0, 3), (1, 2)}


def test_c3_times_k2_is_c6():
    p = kronecker_product(make_cycle(3), make_complete(2))
    assert p.order == 6 and p.edge_count == 6
    assert all(p.degree(v) == 2 for v in range(6))
    assert is_connected(p)
    assert diameter(p) == 3  # connected 2-regular on 6 vertices: the 6-cycle


def test_looped_identity_factor():
    k1_plus = make_complete(1, with_loops=True)
    for g in (make_cycle(5), make_path(4), random_graph(6, 0.5, 0.3, 12)):
        assert kronecker_product(k1_plus, g) == g


def test_bare_vertex_factor_gives_edgeless_product():
    k1 = Graph(1)
    p = kronecker_product(make_cycle(5), k1)
    assert p.order == 5 and p.edge_count == 0


def test_loop_edge_pairing():
    # loop {u} times edge {a, b} contributes the single edge {ua, ub}
    looped = Graph(1, [(0, 0)])
    p = kronecker_product(looped, make_complete(2))
    assert set(p.edges()) == {(0, 1)}
    # two loops give a product loop
    p2 = kronecker_product(looped, looped)
    assert set(p2.edges()) == {(0, 0)}


def test_product_loops_need_both_loops():
    g1 = Graph(2, [(0, 0), (0, 1)])
    g2 = Graph(2, [(0, 1), (1, 1)])
    p = kronecker_product(g1, g2)
    loops = [v for v in range(4) if p.has_loop(v)]
    # only (0, 1): coordinate 0 is looped in g1, coordinate 1 in g2
    assert loops == [0 * 2 + 1]


def test_row_built_product_matches_the_definition_exhaustive():
    # Order-one and edgeless factors included.
    pool = [g for n in (1, 2, 3) for g in enumerate_graphs(n, allow_loops=True)]
    for g1 in pool:
        for g2 in pool:
            _assert_product_matches_definition(g1, g2)


@given(graphs(max_order=6), graphs(max_order=6))
@settings(max_examples=150, deadline=None)
def test_row_built_product_matches_the_definition(g1, g2):
    _assert_product_matches_definition(g1, g2)


@given(graphs(max_order=5, loops=False), graphs(max_order=5, loops=False))
@settings(max_examples=100, deadline=None)
def test_edge_count_doubles_for_loopless_factors(g1, g2):
    p = kronecker_product(g1, g2)
    assert p.edge_count == 2 * g1.edge_count * g2.edge_count


@given(graphs(max_order=5), graphs(max_order=5))
@settings(max_examples=100, deadline=None)
def test_commutes_under_coordinate_swap(g1, g2):
    p12 = kronecker_product(g1, g2)
    p21 = kronecker_product(g2, g1)
    n1, n2 = g1.order, g2.order

    def swap(code):
        a, b = divmod(code, n2)
        return b * n1 + a

    swapped = [(swap(u), swap(v)) for u, v in p12.edges()]
    assert Graph(n1 * n2, swapped) == p21


@given(graphs(max_order=5), graphs(max_order=5))
@settings(max_examples=100, deadline=None)
def test_adjacency_matches_kron_matrix(g1, g2):
    assert adjacency(kronecker_product(g1, g2)) == kron_matrix(
        adjacency(g1), adjacency(g2)
    )


def _criterion(g1, g2):
    # The criterion reads the factors' parity profiles.
    return product_is_connected(summarize(g1), summarize(g2))


def test_connectivity_criterion_examples():
    assert _criterion(make_cycle(3), make_complete(2))
    assert not _criterion(make_complete(2), make_path(3))
    assert _criterion(make_cycle(5), make_cycle(4))


@pytest.mark.parametrize(
    "g1, g2, connected",
    [
        (Graph(1), make_cycle(3), False),  # three isolated vertices
        (make_cycle(3), Graph(1), False),
        (Graph(1), Graph(1), True),  # a single vertex
        (Graph(1, [(0, 0)]), make_cycle(3), True),  # the looped vertex is the identity
    ],
)
def test_connectivity_criterion_on_a_single_vertex_factor(g1, g2, connected):
    assert _criterion(g1, g2) == connected
    assert is_connected(kronecker_product(g1, g2)) == connected


def test_connectivity_criterion_rejects_disconnected_factors():
    with pytest.raises(ValueError):
        _criterion(Graph(4, [(0, 1), (2, 3)]), make_cycle(3))
    with pytest.raises(ValueError):
        _criterion(make_cycle(3), Graph(2))


@given(graphs(max_order=5), graphs(max_order=5))
@settings(max_examples=150, deadline=None)
def test_connectivity_criterion_agrees_with_bfs(g1, g2):
    if is_connected(g1) and is_connected(g2):
        assert _criterion(g1, g2) == is_connected(kronecker_product(g1, g2))


def _assert_measured_without_product(g1, g2):
    p = kronecker_product(g1, g2)
    assert product_diameter(summarize(g1), summarize(g2)) == diameter(p), (g1, g2)
    assert product_edge_count(g1, g2) == p.edge_count == len(list(p.edges())), (g1, g2)


def test_product_metrics_match_the_built_product_exhaustively():
    # Every pair of graphs of order <= 3 with loops: order-one, edgeless,
    # disconnected and isolated-vertex factors included.
    pool = [g for n in range(1, 4) for g in enumerate_graphs(n, allow_loops=True)]
    assert len(pool) == 74
    for g1 in pool:
        for g2 in pool:
            _assert_measured_without_product(g1, g2)


@given(graphs(max_order=8), graphs(max_order=8))
@settings(max_examples=150, deadline=None)
def test_product_metrics_match_the_built_product(g1, g2):
    _assert_measured_without_product(g1, g2)


def test_product_edge_guard(monkeypatch):
    g1, g2, big = make_cycle(5), make_complete(2), make_cycle(6)
    monkeypatch.setattr(graphs_module, "MAX_EDGES", 10)
    assert kronecker_product(g1, g2).edge_count == 10
    real_init = Graph.__init__

    def no_edges(self, order, edges=()):
        assert edges == (), "edges were listed for an oversized product"
        real_init(self, order)

    monkeypatch.setattr(Graph, "__init__", no_edges)
    with pytest.raises(ValueError, match="edge count 12 exceeds the limit of 10"):
        kronecker_product(big, g2)


def test_product_order_guard():
    assert 317 * 317 > MAX_ORDER
    with pytest.raises(ValueError, match="exceeds"):
        kronecker_product(make_cycle(317), make_cycle(317))
