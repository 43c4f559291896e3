"""Boolean adjacency matrices over the AND/OR semiring.

This is the independent verification channel for exponents: the exponent of
a graph is the first power of its adjacency matrix with every entry set,
and that computation shares no code with the walk-based one.  Rows are
arbitrary-precision integer bitsets, so a boolean product is just an OR of
selected rows.  The one power loop is :func:`bool_powers`, and the one
Kronecker bit layout is :func:`kron_lift`.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, NamedTuple

from .extlen import INF, ExtLen
from .graphs import Graph


class BoolMatrix(NamedTuple):
    """Square 0/1 matrix; row ``i`` holds bit ``j`` for entry ``(i, j)``."""

    dim: int
    rows: tuple[int, ...]

    def is_all_ones(self) -> bool:
        full = (1 << self.dim) - 1
        return all(row == full for row in self.rows)


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


def bool_powers(a: BoolMatrix) -> Iterator[BoolMatrix]:
    """The powers ``A, A^2, A^3, ...`` of ``a``, each computed when asked for."""
    power = a
    while True:
        yield power
        power = bool_mul(power, a)


def bool_pow(a: BoolMatrix, k: int) -> BoolMatrix:
    """k-th power, k >= 1."""
    if k < 1:
        raise ValueError("power must be at least 1")
    return next(islice(bool_powers(a), k - 1, None))


def kron_lift(a: BoolMatrix, b: BoolMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows of ``A x J`` and of ``J x B``, ``J`` all ones, in the row-major layout.

    Row ``i1 * b.dim + i2`` of the first has bit ``j1 * b.dim + j2`` iff ``a``
    has ``(i1, j1)``: a row of ``a`` spread over blocks of ``b.dim`` bits.  Of
    the second, iff ``b`` has ``(i2, j2)``: a row of ``b`` tiled ``a.dim`` times.
    """
    n1, n2 = a.dim, b.dim
    block, tile = (1 << n2) - 1, sum(1 << j * n2 for j in range(n1))
    spread = [sum(block << j * n2 for j in range(n1) if row >> j & 1) for row in a.rows]
    tiled = [row * tile for row in b.rows]
    return tuple(r for r in spread for _ in range(n2)), tuple(tiled * n1)


def kron_matrix(a: BoolMatrix, b: BoolMatrix) -> BoolMatrix:
    """Kronecker product in the row-major block layout.

    Row ``i1 * b.dim + i2`` has bit ``j1 * b.dim + j2`` set iff ``a`` has
    ``(i1, j1)`` and ``b`` has ``(i2, j2)``, matching the product-graph
    vertex encoding bit for bit: the row-by-row AND of the two lifts.
    """
    left, right = kron_lift(a, b)
    return BoolMatrix(a.dim * b.dim, tuple(x & y for x, y in zip(left, right)))


def oracle_exponent(g: Graph) -> ExtLen:
    """Least k with all of A^k positive; INF if none up to ``2 * order``.

    The cap is sound: a primitive undirected graph has exponent at most
    twice its diameter, which is below ``2 * order``, so no positive power
    up to it is a non-primitivity verdict.
    """
    powers = islice(bool_powers(adjacency(g)), 2 * g.order)
    return next((k for k, p in enumerate(powers, 1) if p.is_all_ones()), INF)
