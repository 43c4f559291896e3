import random

import pytest
from hypothesis import given, settings

from kronwalk import (
    INF,
    Graph,
    enumerate_odd_cycles,
    exponent,
    is_connected,
    l_o_bound,
    make_complete,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
    odd_girth,
    summarize,
)
from kronwalk.cycles import DEFAULT_CYCLE_CAP

from helpers import (
    brute_l_o_bound,
    brute_odd_cycles,
    dp_distances,
    graphs,
    labeled_graphs,
)


def test_enumeration_examples():
    assert list(enumerate_odd_cycles(make_cycle(4))) == []
    triangles = list(enumerate_odd_cycles(make_complete(4)))
    assert len(triangles) == 4
    assert triangles == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert list(enumerate_odd_cycles(make_cycle(5))) == [(0, 1, 2, 3, 4)]


def test_loops_are_length_one_cycles():
    g = Graph(3, [(0, 0), (1, 1), (0, 1), (1, 2)])
    cycles = list(enumerate_odd_cycles(g))
    assert (0,) in cycles and (1,) in cycles
    assert all(len(c) % 2 == 1 for c in cycles)


def test_enumeration_is_duplicate_free_and_odd():
    g = make_complete(5)
    cycles = list(enumerate_odd_cycles(g))
    # C(5,3) triangles plus C(5,5) * 4!/2 five-cycles
    assert len(cycles) == 10 + 12
    assert len(set(cycles)) == len(cycles)
    for c in cycles:
        assert len(c) % 2 == 1
        assert len(set(c)) == len(c)
        for a, b in zip(c, c[1:] + c[:1]):
            assert b in g.neighbors(a)


def test_long_cycle_enumerates_without_recursion():
    # one path vertex per DFS level: far deeper than the recursion limit
    assert list(enumerate_odd_cycles(make_cycle(999))) == [tuple(range(999))]


def _bound(g, cap=DEFAULT_CYCLE_CAP):
    # The bound reads connectivity and bipartiteness off the caller's profile.
    return l_o_bound(g, summarize(g), cap)


def test_eccentricity_examples():
    # 2 * ecc(C) + |C| - 1 with the only odd cycle as C: ecc 0, 2 and 3.
    c5 = make_cycle(5)
    assert l_o_bound(c5, summarize(c5)).best_cycle == (0, 1, 2, 3, 4)
    report = _bound(make_f_family(5, 3))
    assert (report.l_o, report.best_cycle) == (6, (2, 3, 4))
    report = _bound(make_h_family(6, 3))
    assert (report.l_o, report.best_cycle) == (8, (3, 4, 5))


def test_bound_examples():
    assert _bound(make_cycle(5)).l_o == 4
    report = _bound(make_f_family(5, 3))
    assert report.l_o == 6 and report.best_cycle == (2, 3, 4)
    assert _bound(make_cycle(6)).l_o == INF


def test_bound_requires_connected():
    with pytest.raises(ValueError, match="connected"):
        _bound(Graph(4, [(0, 1), (2, 3)]))
    # an order-one graph is connected: no cycle, or its loop
    assert _bound(Graph(1)).l_o == INF
    report = _bound(Graph(1, [(0, 0)]))
    assert (report.l_o, report.best_cycle) == (0, (0,))


@pytest.mark.parametrize("cap", [0, -1])
def test_bound_rejects_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap"):
        _bound(make_cycle(5), cap=cap)


def test_bound_reads_the_callers_profile():
    # The profile alone says whether the graph is connected and bipartite:
    # a profile that gives C5 an infinite diameter is refused, and one that
    # gives it an infinite odd girth gets the bipartite answer with no cycle
    # scored.
    c5 = make_cycle(5)
    s = summarize(c5)
    with pytest.raises(ValueError, match="connected"):
        l_o_bound(c5, s._replace(diameter=INF))
    report = l_o_bound(c5, s._replace(odd_girth=INF))
    assert tuple(report) == (INF, None, True, 0)


def test_loop_cycles_feed_the_bound():
    # a loop at one end of a path: the bound is twice that vertex's
    # eccentricity
    g = Graph(3, [(0, 0), (0, 1), (1, 2)])
    report = _bound(g)
    assert report.best_cycle == (0,)
    assert report.l_o == 4
    assert exponent(g).gamma <= report.l_o


def test_truncated_bound_is_still_an_upper_bound():
    g = make_complete(5)
    full = _bound(g)
    capped = _bound(g, cap=3)
    assert full.exact and not capped.exact
    assert capped.cycles_considered == 3
    assert capped.l_o >= full.l_o
    assert exponent(g).gamma <= capped.l_o


def test_best_cycle_deterministic():
    g = make_complete(5)
    assert _bound(g).best_cycle == _bound(g).best_cycle == (0, 1, 2)


@given(graphs(min_order=2, max_order=6))
@settings(max_examples=150, deadline=None)
def test_exponent_bounded_by_cycle_bound(g):
    if not is_connected(g):
        return
    report = _bound(g)
    assert report.exact
    assert exponent(g).gamma <= report.l_o
    assert (report.l_o == INF) == (odd_girth(g) == INF)


def test_cycles_that_cannot_win_are_not_scored(monkeypatch):
    # In K8 the first cycle, the triangle (0, 1, 2), scores 4; every later
    # cycle misses a vertex, so it scores at least len - 1 + 2 >= 4.
    import kronwalk.cycles as cycles

    scored = []
    real = cycles.eccentricity

    def counted(g, cycle, limit):
        scored.append(cycle)
        return real(g, cycle, limit)

    monkeypatch.setattr(cycles, "eccentricity", counted)
    report = _bound(make_complete(8))
    assert scored == [(0, 1, 2)]
    assert report.cycles_considered > 1
    assert (report.l_o, report.best_cycle, report.exact) == (4, (0, 1, 2), True)


def test_bound_refuses_every_disconnected_graph(monkeypatch):
    import kronwalk.cycles as cycles

    disconnected = [
        g
        for g in labeled_graphs(min_order=2)
        if INF in dp_distances(g)[0]
    ]
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with_cycle = [g for g in disconnected if list(enumerate_odd_cycles(g))]
    bipartite = [g for g in disconnected if not list(enumerate_odd_cycles(g))]
    assert with_cycle and bipartite
    # The profile refuses the graph before any cycle is enumerated or scored.
    def no_search(*args):
        raise AssertionError("cycle search on a disconnected graph")

    monkeypatch.setattr(cycles, "enumerate_odd_cycles", no_search)
    monkeypatch.setattr(cycles, "eccentricity", no_search)
    for g in bipartite + with_cycle + [two_triangles]:
        with pytest.raises(ValueError, match="connected"):
            _bound(g)


def _dumbbell(k):
    # A k-vertex path 0 .. k-1 with a triangle at each end: the first anchor
    # lies inside the chain, which holds no cycle but is no dead end.
    edges = [(v, v + 1) for v in range(k - 1)]
    edges += [(k, k + 1), (k + 1, k + 2), (k, k + 2), (0, k)]
    edges += [(k + 3, k + 4), (k + 4, k + 5), (k + 3, k + 5), (k - 1, k + 3)]
    return Graph(k + 6, edges)


class _CountingGraph(Graph):
    """A graph that counts the neighbour rows read through ``neighbors``."""

    __slots__ = ("reads",)

    def neighbors(self, u):
        self.reads += 1
        return super().neighbors(u)


@pytest.mark.parametrize(
    "g, expected",
    [
        (make_cycle(2001), [tuple(range(2001))]),
        (_dumbbell(1001), [(1001, 1002, 1003), (1004, 1005, 1006)]),
    ],
    ids=["cycle2001", "dumbbell1001"],
)
def test_chains_are_not_walked_once_per_anchor(g, expected):
    # Walking the chain from each of its anchors reads about n**2 / 2 rows;
    # killing each anchor after its search, and the dead ends it leaves,
    # keeps the reads within a small multiple of n + m.
    counted = _CountingGraph(g.order, g.edges())
    counted.reads = 0
    assert list(enumerate_odd_cycles(counted)) == expected
    assert counted.reads <= 4 * (g.order + g.edge_count)


def _ensemble():
    # Every small connected graph, trees with a few chords and loops (long
    # branches for the first peel), chains whose anchors die mid-chain, and
    # the named families.
    small = [
        g
        for g in labeled_graphs()
        if is_connected(g)
    ]
    rng = random.Random(11)
    sparse = []
    for _ in range(60):
        n = rng.randint(2, 16)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges.update(tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3)))
        edges.update((v, v) for v in range(n) if rng.random() < 0.1)
        sparse.append(Graph(n, edges))
    chains = [
        _dumbbell(8),
        # a theta: paths of 2, 3 and 4 edges between 1 and 5, with the least
        # label inside the longest path
        Graph(
            8, [(1, 2), (2, 5), (1, 3), (3, 4), (4, 5), (1, 6), (6, 0), (0, 7), (7, 5)]
        ),
        # a 5-cycle and a triangle sharing the vertex 2
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6), (6, 2)]),
        make_cycle(31),
        make_f_family(40, 9),
    ]
    named = [make_f_family(30, 5), make_h_family(20, 4), make_path(12), make_cycle(11)]
    return small + sparse + chains + named


def _assert_bound_is_brute_force(g):
    for cap in (1, 3, DEFAULT_CYCLE_CAP):
        report = _bound(g, cap=cap)
        found = (report.l_o, report.best_cycle, report.exact, report.cycles_considered)
        assert found == brute_l_o_bound(g, cap), (g, cap)


def test_bound_equals_the_first_best_of_all_scored_cycles():
    for g in _ensemble():
        _assert_bound_is_brute_force(g)


def test_enumeration_equals_the_unpruned_search():
    for g in _ensemble():
        assert list(enumerate_odd_cycles(g)) == brute_odd_cycles(g), g


@given(graphs(min_order=1, max_order=7))
@settings(max_examples=150, deadline=None)
def test_cycle_search_equals_brute_force_on_graphs_with_loops(g):
    assert list(enumerate_odd_cycles(g)) == brute_odd_cycles(g)
    if is_connected(g):
        _assert_bound_is_brute_force(g)


def test_bound_is_infinite_exactly_without_an_odd_cycle():
    for g in labeled_graphs():
        if is_connected(g):
            assert (_bound(g).l_o == INF) == (not brute_odd_cycles(g)), g


def test_bound_searches_no_cycle_on_a_bipartite_graph(monkeypatch):
    import kronwalk.cycles as cycles

    def no_search(g, live, anchor):
        raise AssertionError("cycle search on a bipartite graph")

    monkeypatch.setattr(cycles, "_simple_cycles_from", no_search)
    bipartite = [g for g in labeled_graphs() if not brute_odd_cycles(g)]
    k34 = Graph(7, [(u, v) for u in range(3) for v in range(3, 7)])
    for g in bipartite + [make_cycle(288), make_path(300), k34]:
        if is_connected(g):
            assert tuple(_bound(g, cap=1)) == (INF, None, True, 0), g
        else:
            with pytest.raises(ValueError, match="connected"):
                _bound(g)
