"""Boolean adjacency matrices over the AND/OR semiring.

This is the independent verification channel for exponents: the exponent of
a graph is the first power of its adjacency matrix with every entry set,
and that computation shares no code with the walk-based one.  Rows are
arbitrary-precision integer bitsets, so a boolean product is just an OR of
selected rows.
"""

from __future__ import annotations

from typing import NamedTuple

from .extlen import INF, ExtLen
from .graphs import Graph


class BoolMatrix(NamedTuple):
    """Square 0/1 matrix; row ``i`` holds bit ``j`` for entry ``(i, j)``."""

    dim: int
    rows: tuple[int, ...]

    def bit(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def is_all_ones(self) -> bool:
        full = (1 << self.dim) - 1
        return all(row == full for row in self.rows)


def identity(n: int) -> BoolMatrix:
    return BoolMatrix(n, tuple(1 << i for i in range(n)))


def adjacency(g: Graph) -> BoolMatrix:
    """Adjacency matrix; the diagonal bit is set exactly for loops."""
    rows = tuple(
        sum(1 << w for w in g.neighbors(u)) for u in range(g.order)
    )
    return BoolMatrix(g.order, rows)


def bool_mul(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """AND/OR product: entry (i, j) set iff some t links i to t and t to j."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    out = []
    for row in a.rows:
        acc = 0
        remaining = row
        while remaining:
            low = remaining & -remaining
            acc |= b.rows[low.bit_length() - 1]
            remaining ^= low
        out.append(acc)
    return BoolMatrix(a.dim, tuple(out))


def bool_pow(a: BoolMatrix, k: int) -> BoolMatrix:
    """k-th power by iterated multiplication, k >= 1."""
    if k < 1:
        raise ValueError("power must be at least 1")
    result = a
    for _ in range(k - 1):
        result = bool_mul(result, a)
    return result


def kron_matrix(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Kronecker product in the row-major block layout.

    Row ``i1 * b.dim + i2`` has bit ``j1 * b.dim + j2`` set iff ``a`` has
    ``(i1, j1)`` and ``b`` has ``(i2, j2)``, matching the product-graph
    vertex encoding bit for bit.
    """
    rows = []
    for row_a in a.rows:
        for row_b in b.rows:
            acc = 0
            remaining = row_a
            while remaining:
                low = remaining & -remaining
                acc |= row_b << ((low.bit_length() - 1) * b.dim)
                remaining ^= low
            rows.append(acc)
    return BoolMatrix(a.dim * b.dim, tuple(rows))


def oracle_exponent(g: Graph) -> ExtLen:
    """Least k with all of A^k positive; INF if none up to ``2 * order``.

    The cap is sound: a primitive undirected graph has exponent at most
    twice its diameter, which is below ``2 * order``, so no positive power
    up to it is a non-primitivity verdict.
    """
    a = adjacency(g)
    power = a
    for k in range(1, 2 * g.order + 1):
        if power.is_all_ones():
            return k
        power = bool_mul(power, a)
    return INF
