import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kronwalk.graphs as graphs_module
import kronwalk.walks as walks_module
from kronwalk import (
    INF,
    Graph,
    ParityProfile,
    diameter,
    exponent,
    is_bipartite,
    is_connected,
    is_k_plus,
    make_complete,
    make_complete_multipartite,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
    odd_girth,
    oracle_exponent,
    random_graph,
    summarize,
)
from kronwalk.harness.claims import _level
from kronwalk.walks import _reach, eccentricity, walk_levels

from helpers import (
    dp_distances,
    dp_parity_minima,
    enumerate_graphs,
    graphs,
    labeled_graphs,
    relabelled,
    walk_profile,
    walk_reach,
)


def test_dp_oracle_on_triangle():
    # walks on C3 between a fixed vertex and itself, lengths 0..4
    reach = walk_reach(make_cycle(3), 4)
    assert [reach[k][0][0] for k in range(5)] == [True, False, True, True, True]


def _walk_lengths(g, u, v, horizon):
    """The lengths ``k <= horizon`` of ``(u, v)``-walks, off the level reader."""
    levels = walk_levels(g)
    return [k for k in range(horizon + 1) if _level(levels, k)[u] >> v & 1]


def _local_exponents(g):
    """Per pair, the least k from which walks of every length exist, off the levels.

    Past ``W_0`` each level lies within the one two after it, so a pair in
    ``W_k`` and ``W_{k+1}`` has walks of every length from ``k`` on.
    """
    levels = walk_levels(g)
    n = g.order
    local = [[INF] * n for _ in range(n)]
    for k in range(len(levels), 0, -1):
        for row, now, then in zip(local, _level(levels, k), _level(levels, k + 1)):
            for v in range(n):
                if (now & then) >> v & 1:
                    row[v] = k
    return local


def test_parity_examples():
    # The shortest even walk of path:3's ends has length 2, and no odd one.
    assert _walk_lengths(make_path(3), 0, 2, 6) == [2, 4, 6]
    # C3: a vertex returns to itself by even walks from 2 and odd ones from 3.
    assert _walk_lengths(make_cycle(3), 0, 0, 5) == [0, 2, 3, 4, 5]
    assert _walk_lengths(make_complete(1, with_loops=True), 0, 0, 3) == [0, 1, 2, 3]


def _assert_scan_matches_walk_enumeration(g):
    # Both readers of the level scan, the levels with their periodic
    # extension and the whole profile with its spans and witness, against
    # the definitions evaluated on enumerated walks.
    n = g.order
    horizon = 2 * n + 2
    reach = walk_reach(g, horizon)
    levels = walk_levels(g)
    for k in range(horizon + 1):
        rows = [[bool(row >> v & 1) for v in range(n)] for row in _level(levels, k)]
        assert rows == reach[k], k
    assert summarize(g) == ParityProfile(**walk_profile(g))


@given(graphs(max_order=6))
@settings(max_examples=200, deadline=None)
def test_walk_levels_match_walk_enumeration(g):
    _assert_scan_matches_walk_enumeration(g)


@pytest.mark.parametrize(
    "n, allow_loops", [*((n, True) for n in range(1, 5)), (5, False)]
)
def test_level_scan_matches_walk_enumeration_exhaustive(n, allow_loops):
    for g in enumerate_graphs(n, allow_loops=allow_loops):
        _assert_scan_matches_walk_enumeration(g)


@pytest.mark.parametrize(
    "g",
    [
        make_complete(1, with_loops=True),  # the empty walk is not an even walk
        Graph(1),
        Graph(4, [(0, 1), (1, 2), (2, 0)]),  # vertex 3 is isolated
        make_f_family(9, 3),
        make_path(7),
        # Long path-like graphs and a sparse one, with labels far from the
        # degree order the scan keeps its rows in.
        *(
            relabelled(g, random.Random(30).sample(range(g.order), g.order))
            for g in (
                make_f_family(30, 5),
                make_h_family(30, 4),
                make_path(31),
                random_graph(30, 0.08, 0.05, 11),
            )
        ),
    ],
    ids=[
        "complete+:1", "bare vertex", "isolated vertex", "F:9,3", "path:7",
        "F:30,5 relabelled", "H:30,4 relabelled", "path:31 relabelled",
        "sparse random:30 relabelled",
    ],
)
def test_level_scan_matches_walk_enumeration_on_named_graphs(g):
    _assert_scan_matches_walk_enumeration(g)


@st.composite
def shuffled_graphs(draw):
    """Hypothesis graphs of order <= 8 under a random relabelling.

    The scan keeps its rows in degree order, so these exercise label orders
    far from that one; loops, isolated vertices and ties of degree all occur.
    """
    g = draw(graphs(max_order=8))
    return relabelled(g, draw(st.permutations(range(g.order))))


@given(shuffled_graphs())
@settings(max_examples=200, deadline=None)
@example(relabelled(Graph(6, [(0, 1), (0, 2), (3, 3), (4, 4)]), [5, 3, 0, 4, 1, 2]))
@example(Graph(5, [(4, 0), (4, 1), (4, 2), (4, 3), (0, 0)]))  # one-row columns
def test_scan_is_blind_to_the_label_order(g):
    _assert_scan_matches_walk_enumeration(g)


def test_profile_builds_no_all_pairs_table():
    # Per-source tables for path:600 peaked at 12.5 MB; the scan keeps a few
    # lists of 600 bitsets of at most 600 bits each.
    g = make_path(600)
    tracemalloc.start()
    try:
        summarize(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "centre_loop, expected",
    [
        (False, ParityProfile(3000, True, True, INF, 2, INF, INF, None)),
        # Leaf to leaf: even 2 through the centre, odd 3 round its loop.
        (True, ParityProfile(3000, True, False, 1, 2, 3, 2, (1, 1))),
    ],
)
def test_star_profile_at_the_table_limit(centre_loop, expected):
    # The centre's row is the only one past the first column, so every later
    # column covers one row of 3,000.
    star = make_complete_multipartite([1, 2999])
    if centre_loop:
        star = Graph(star.order, [*star.edges(), (0, 0)])
    assert summarize(star) == expected


@given(graphs(max_order=6))
@settings(max_examples=100, deadline=None)
def test_parity_matrices_symmetric_and_distance_consistent(g):
    # Each level is a symmetric matrix, and from k = 1 on the vertices
    # within distance k of u are u itself and the levels k and k - 1 of
    # u's row: the latest of each parity.
    levels = walk_levels(g)
    reach = list(_reach(g))
    n = g.order
    for k in range(max(len(levels), len(reach)) + 1):
        level = _level(levels, k)
        assert all(
            (level[u] >> v & 1) == (level[v] >> u & 1)
            for u in range(n)
            for v in range(n)
        )
        if k:
            within = [
                now | before | 1 << u
                for u, (now, before) in enumerate(zip(level, _level(levels, k - 1)))
            ]
            assert reach[min(k, len(reach) - 1)] == within, k


def test_distance_and_diameter():
    assert diameter(make_complete(3)) == 1
    assert diameter(make_cycle(5)) == 2
    assert diameter(Graph(1)) == 0
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert diameter(two_edges) == INF
    assert not is_connected(two_edges)


@given(graphs(max_order=8))
@settings(max_examples=150, deadline=None)
def test_diameter_is_the_largest_entry_of_the_distance_table(g):
    # Random masks leave many of these graphs disconnected.
    assert diameter(g) == max(map(max, dp_distances(g)))


def _assert_distances_match_walk_enumeration(g):
    # Row u of the reach scan's step k holds the vertices within distance k;
    # past its last step the rows stay as they are.
    dist = dp_distances(g)
    reach = list(_reach(g))
    n = g.order
    for k in range(n):
        within = [sum(1 << v for v in range(n) if dist[u][v] <= k) for u in range(n)]
        assert reach[min(k, len(reach) - 1)] == within, k
    assert diameter(g) == max(map(max, dist))


def test_reach_scan_matches_walk_enumeration_exhaustive():
    for g in labeled_graphs():
        _assert_distances_match_walk_enumeration(g)


@given(graphs(max_order=8))
@settings(max_examples=150, deadline=None)
def test_reach_scan_matches_walk_enumeration(g):
    # Random masks leave many of these graphs disconnected.
    _assert_distances_match_walk_enumeration(g)


def test_eccentricity_matches_walk_enumeration_exhaustive():
    for g in labeled_graphs():
        n = g.order
        dist = dp_distances(g)
        for mask in range(1, 1 << n):
            sources = [s for s in range(n) if mask >> s & 1]
            ecc = max(min(dist[s][v] for s in sources) for v in range(n))
            for limit in (1, 2, 3, INF):
                expected = ecc if ecc < limit else None
                assert eccentricity(g, sources, limit) == expected, (g, sources, limit)


def test_bipartite_and_odd_girth():
    assert is_bipartite(make_cycle(4))
    assert odd_girth(make_cycle(4)) == INF
    assert odd_girth(make_cycle(5)) == 5
    assert odd_girth(make_f_family(5, 3)) == 3
    assert not is_bipartite(Graph(1, [(0, 0)]))  # a loop is an odd cycle
    assert odd_girth(Graph(2, [(0, 0), (0, 1)])) == 1


@given(graphs(max_order=6))
@settings(max_examples=100, deadline=None)
def test_bipartite_iff_infinite_odd_girth(g):
    assert is_bipartite(g) == (odd_girth(g) == INF)


def test_local_exponent_examples():
    local = _local_exponents(make_cycle(3))
    assert local[0][1] == 1
    assert local[0][0] == 2
    assert _local_exponents(make_path(3))[0][2] == INF


def test_exponent_examples():
    assert exponent(make_complete(4, with_loops=True)).gamma == 1
    assert exponent(make_complete(3)).gamma == 2
    assert exponent(make_cycle(5)).gamma == 4
    assert exponent(make_f_family(5, 3)).gamma == 2 * 5 - 3 - 1
    assert exponent(make_h_family(5, 3)).gamma == 2 * 5 - 2 * 3 + 2


def test_exponent_report_structure():
    g = make_cycle(5)
    rep = exponent(g)
    n = g.order
    u, v = rep.witness_pair
    local = _local_exponents(g)
    assert local[u][v] == rep.gamma
    assert rep.gamma == max(max(row) for row in local)
    # the witness is the first attaining pair in row-major order
    assert all(local[a][b] < rep.gamma for a in range(n) for b in range(n)
               if (a, b) < (u, v))
    assert exponent(make_cycle(4)).witness_pair is None


@given(graphs(max_order=6))
@settings(max_examples=150, deadline=None)
def test_exponent_infinite_iff_not_primitive(g):
    # Primitive means connected with an odd cycle; two BFS decide it here,
    # independently of the parity table behind the exponent.
    primitive = is_connected(g) and not is_bipartite(g)
    assert (exponent(g).gamma == INF) == (not primitive)


@given(graphs(max_order=8))
@settings(max_examples=150, deadline=None)
def test_exponent_agrees_with_matrix_oracle(g):
    assert exponent(g).gamma == oracle_exponent(g)


@given(graphs(max_order=6))
@settings(max_examples=100, deadline=None)
def test_local_exponent_tight_against_walk_enumeration(g):
    # Walks of every length >= the local exponent exist and none exists one
    # step below it, per direct enumeration.
    horizon = 2 * g.order + 2
    reach = walk_reach(g, horizon)
    local = _local_exponents(g)
    for u in range(g.order):
        for v in range(g.order):
            value = local[u][v]
            if value == INF:
                assert not (reach[horizon][u][v] and reach[horizon - 1][u][v])
                continue
            for k in range(int(value), horizon + 1):
                assert reach[k][u][v]
            if value >= 2:
                assert not reach[int(value) - 1][u][v]


@given(graphs(max_order=6))
@settings(max_examples=100, deadline=None)
def test_primitive_exponent_at_most_twice_diameter(g):
    if is_connected(g) and not is_bipartite(g) and g.order >= 2:
        assert exponent(g).gamma <= 2 * diameter(g)


@given(graphs(max_order=6))
@settings(max_examples=100, deadline=None)
def test_odd_girth_is_min_odd_diagonal(g):
    odd, _ = dp_parity_minima(g, 2 * g.order)
    assert odd_girth(g) == min(odd[v][v] for v in range(g.order))


def test_parity_extremal_pairs_small_exhaustive():
    # The exponent is witnessed by a shortest walk of its own parity, and
    # the opposite parity appears one step later (distinct endpoints for
    # the even walk).  Exhaustive over primitive graphs of order <= 4.
    for n in range(2, 5):
        for g in enumerate_graphs(n, allow_loops=True):
            if not is_connected(g) or is_bipartite(g):
                continue
            gamma = exponent(g).gamma
            odd, even = dp_parity_minima(g, 2 * n)
            pairs = [(u, v) for u in range(n) for v in range(n)]
            if gamma % 2:
                assert any(odd[u][v] == gamma for u, v in pairs)
                assert any(even[u][v] == gamma + 1 for u, v in pairs if u != v)
            else:
                assert any(even[u][v] == gamma for u, v in pairs if u != v)
                assert any(odd[u][v] == gamma + 1 for u, v in pairs)


def _assert_profile_matches_independent_routes(g):
    s = summarize(g)
    n = g.order
    odd, even = dp_parity_minima(g, 2 * n)
    assert s.order == n
    assert s.connected == is_connected(g)
    assert s.bipartite == is_bipartite(g)
    assert s.diameter == diameter(g)
    assert s.odd_girth == min(odd[v][v] for v in range(n))
    assert s.exponent == oracle_exponent(g)
    assert (s.exponent == 1) == s.is_k_plus == is_k_plus(g)
    first = next(
        ((u, v) for u in range(n) for v in range(n)
         if max(odd[u][v], even[u][v]) - 1 == s.exponent),
        None,
    )
    assert s.witness_pair == (first if s.exponent != INF else None)


def test_profile_matches_independent_routes_exhaustive():
    for n in range(1, 5):
        for g in enumerate_graphs(n, allow_loops=True):
            _assert_profile_matches_independent_routes(g)


@given(graphs(max_order=8))
@settings(max_examples=150, deadline=None)
def test_profile_matches_independent_routes(g):
    _assert_profile_matches_independent_routes(g)


@pytest.mark.parametrize("table", [walk_levels, diameter, summarize])
def test_all_pairs_tables_refuse_above_the_table_limit(monkeypatch, table):
    # Under a small limit, and with the reach scan and the level scan
    # refusing to start, each all-pairs scan must refuse the order before it
    # runs a single step.
    monkeypatch.setattr(graphs_module, "MAX_TABLE_ORDER", 5)
    table(make_path(5))

    def no_traversal(*args):
        raise AssertionError("a traversal started for an oversized table")

    monkeypatch.setattr(walks_module, "_reach", no_traversal)
    monkeypatch.setattr(walks_module, "_levels", no_traversal)
    with pytest.raises(ValueError, match="all-pairs table limit of 5"):
        table(make_path(6))
