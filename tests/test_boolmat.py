from itertools import islice

import pytest
from hypothesis import given, settings

from kronwalk import (
    INF,
    Graph,
    adjacency,
    bool_mul,
    kron_matrix,
    make_complete,
    make_cycle,
    oracle_exponent,
)
from kronwalk.boolmat import bool_powers

from helpers import graphs, walk_reach


def identity(n):
    """The identity matrix: an edgeless graph with a loop on every vertex."""
    return adjacency(Graph(n, [(v, v) for v in range(n)]))


def test_adjacency_examples():
    assert adjacency(make_complete(1, with_loops=True)) == (1,)
    assert adjacency(make_complete(2)) == (0b10, 0b01)
    c3 = adjacency(make_cycle(3))
    assert c3 == (0b110, 0b101, 0b011)  # all-ones minus the diagonal


def test_identity_is_neutral():
    a = adjacency(make_cycle(5))
    assert bool_mul(identity(5), a) == a
    assert bool_mul(a, identity(5)) == a


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        bool_mul(identity(2), identity(3))


def test_square_of_even_cycle_matches_walk_enumeration():
    g = make_cycle(4)
    _, square = islice(bool_powers(adjacency(g)), 2)
    reach = walk_reach(g, 2)
    for u in range(4):
        for v in range(4):
            assert square[u] >> v & 1 == reach[2][u][v]
    # odd-distance pairs are unreachable in two steps
    assert not square[0] >> 1 & 1 and not square[1] >> 2 & 1


def test_triangle_squares_to_all_ones():
    _, square = islice(bool_powers(adjacency(make_cycle(3))), 2)
    assert square == (0b111,) * 3


@given(graphs(max_order=5))
@settings(max_examples=60, deadline=None)
def test_powers_match_walk_enumeration(g):
    a = adjacency(g)
    reach = walk_reach(g, 4)
    power = a
    for k in range(1, 5):
        for u in range(g.order):
            for v in range(g.order):
                assert power[u] >> v & 1 == reach[k][u][v]
        power = bool_mul(power, a)


@given(graphs(max_order=5))
@settings(max_examples=60, deadline=None)
def test_powers_stay_symmetric(g):
    power = adjacency(g)
    for _ in range(4):
        for u in range(g.order):
            for v in range(g.order):
                assert power[u] >> v & 1 == power[v] >> u & 1
        power = bool_mul(power, adjacency(g))


def test_oracle_exponent_examples():
    assert oracle_exponent(make_complete(4, with_loops=True)) == 1
    assert oracle_exponent(make_cycle(5)) == 4
    assert oracle_exponent(make_cycle(4)) == INF


def test_kron_matrix_examples():
    k2 = adjacency(make_complete(2))
    product = kron_matrix(k2, k2)
    # two disjoint edges: (0,0)-(1,1) and (0,1)-(1,0) under row-major codes
    assert product == (0b1000, 0b0100, 0b0010, 0b0001)

    loop_block = kron_matrix(identity(2), adjacency(make_cycle(3)))
    c3 = adjacency(make_cycle(3))
    for i in range(3):
        assert loop_block[i] == c3[i]
        assert loop_block[3 + i] == c3[i] << 3


@given(graphs(min_order=2, max_order=4), graphs(min_order=2, max_order=4))
@settings(max_examples=60, deadline=None)
def test_kron_power_identity(g1, g2):
    a1, a2 = adjacency(g1), adjacency(g2)
    powers = zip(bool_powers(kron_matrix(a1, a2)), bool_powers(a1), bool_powers(a2))
    for power, power1, power2 in islice(powers, 3):
        assert power == kron_matrix(power1, power2)


def test_bit_accessor():
    # Row i holds bit j for entry (i, j).
    m = adjacency(make_complete(2))
    assert m == (0b10, 0b01)
    assert m[0] >> 1 & 1 and not m[0] & 1
    # A power is full when every row holds all of its bits.
    assert oracle_exponent(make_complete(2)) == INF
    assert oracle_exponent(make_complete(2, with_loops=True)) == 1
