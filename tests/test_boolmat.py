import pytest
from hypothesis import given, settings

from kronwalk import (
    INF,
    Graph,
    adjacency,
    bool_mul,
    bool_pow,
    kron_matrix,
    make_complete,
    make_cycle,
    oracle_exponent,
)
from kronwalk.boolmat import BoolMatrix

from helpers import graphs, walk_reach


def identity(n):
    """The identity matrix: an edgeless graph with a loop on every vertex."""
    return adjacency(Graph(n, [(v, v) for v in range(n)]))


def test_adjacency_examples():
    assert adjacency(make_complete(1, with_loops=True)).rows == (1,)
    assert adjacency(make_complete(2)).rows == (0b10, 0b01)
    c3 = adjacency(make_cycle(3))
    assert c3.rows == (0b110, 0b101, 0b011)  # all-ones minus the diagonal


def test_identity_is_neutral():
    a = adjacency(make_cycle(5))
    assert bool_mul(identity(5), a) == a
    assert bool_mul(a, identity(5)) == a


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        bool_mul(identity(2), identity(3))


def test_power_validation():
    with pytest.raises(ValueError):
        bool_pow(identity(2), 0)


def test_square_of_even_cycle_matches_walk_enumeration():
    g = make_cycle(4)
    square = bool_pow(adjacency(g), 2)
    reach = walk_reach(g, 2)
    for u in range(4):
        for v in range(4):
            assert square.rows[u] >> v & 1 == reach[2][u][v]
    # odd-distance pairs are unreachable in two steps
    assert not square.rows[0] >> 1 & 1 and not square.rows[1] >> 2 & 1


def test_triangle_squares_to_all_ones():
    assert bool_pow(adjacency(make_cycle(3)), 2).is_all_ones()


@given(graphs(max_order=5))
@settings(max_examples=60, deadline=None)
def test_powers_match_walk_enumeration(g):
    a = adjacency(g)
    reach = walk_reach(g, 4)
    power = a
    for k in range(1, 5):
        for u in range(g.order):
            for v in range(g.order):
                assert power.rows[u] >> v & 1 == reach[k][u][v]
        power = bool_mul(power, a)


@given(graphs(max_order=5))
@settings(max_examples=60, deadline=None)
def test_powers_stay_symmetric(g):
    power = adjacency(g)
    for _ in range(4):
        for u in range(g.order):
            for v in range(g.order):
                assert power.rows[u] >> v & 1 == power.rows[v] >> u & 1
        power = bool_mul(power, adjacency(g))


def test_oracle_exponent_examples():
    assert oracle_exponent(make_complete(4, with_loops=True)) == 1
    assert oracle_exponent(make_cycle(5)) == 4
    assert oracle_exponent(make_cycle(4)) == INF


def test_kron_matrix_examples():
    k2 = adjacency(make_complete(2))
    product = kron_matrix(k2, k2)
    # two disjoint edges: (0,0)-(1,1) and (0,1)-(1,0) under row-major codes
    assert product.rows == (0b1000, 0b0100, 0b0010, 0b0001)

    loop_block = kron_matrix(identity(2), adjacency(make_cycle(3)))
    c3 = adjacency(make_cycle(3))
    for i in range(3):
        assert loop_block.rows[i] == c3.rows[i]
        assert loop_block.rows[3 + i] == c3.rows[i] << 3


@given(graphs(min_order=2, max_order=4), graphs(min_order=2, max_order=4))
@settings(max_examples=60, deadline=None)
def test_kron_power_identity(g1, g2):
    a1, a2 = adjacency(g1), adjacency(g2)
    assert kron_matrix(bool_pow(a1, 3), bool_pow(a2, 3)) == bool_pow(
        kron_matrix(a1, a2), 3
    )


def test_bit_accessor():
    # Row i holds bit j for entry (i, j).
    m = adjacency(make_complete(2))
    assert m == BoolMatrix(2, (0b10, 0b01))
    assert m.rows[0] >> 1 & 1 and not m.rows[0] & 1
    assert not m.is_all_ones()
    assert BoolMatrix(2, (3, 3)).is_all_ones()
