"""Boolean adjacency matrices over the AND/OR semiring.

This is the independent verification channel for exponents: the exponent of
a graph is the first power of its adjacency matrix with every entry set,
and that computation shares no code with the walk-based one.  A square 0/1
matrix is a tuple of rows, row ``i`` an arbitrary-precision integer bitset
holding bit ``j`` for entry ``(i, j)``, the layout of a walk-scan level; so
a boolean product is just an OR of selected rows.  The one power loop is
:func:`bool_powers`, and the one Kronecker bit layout is :func:`kron_lift`.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from .extlen import INF, ExtLen
from .graphs import Graph


def adjacency(g: Graph) -> tuple[int, ...]:
    """Adjacency matrix; the diagonal bit is set exactly for loops."""
    return tuple(sum(1 << w for w in g.neighbors(u)) for u in range(g.order))


def bool_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """AND/OR product: entry (i, j) set iff some t links i to t and t to j."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    out = []
    for row in a:
        acc = 0
        remaining = row
        while remaining:
            low = remaining & -remaining
            acc |= b[low.bit_length() - 1]
            remaining ^= low
        out.append(acc)
    return tuple(out)


def bool_powers(a: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The powers ``A, A^2, A^3, ...`` of ``a``, each computed when asked for."""
    power = a
    while True:
        yield power
        power = bool_mul(power, a)


def kron_lift(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rows of ``A x J`` and of ``J x B``, ``J`` all ones, in the row-major layout.

    Row ``i1 * len(b) + i2`` of the first has bit ``j1 * len(b) + j2`` iff
    ``a`` has ``(i1, j1)``: a row of ``a`` spread over blocks of ``len(b)``
    bits.  Of the second, iff ``b`` has ``(i2, j2)``: a row of ``b`` tiled
    ``len(a)`` times.
    """
    n1, n2 = len(a), len(b)
    block, tile = (1 << n2) - 1, sum(1 << j * n2 for j in range(n1))
    spread = [sum(block << j * n2 for j in range(n1) if row >> j & 1) for row in a]
    tiled = [row * tile for row in b]
    return tuple(r for r in spread for _ in range(n2)), tuple(tiled * n1)


def kron_matrix(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Kronecker product in the row-major block layout.

    Row ``i1 * len(b) + i2`` has bit ``j1 * len(b) + j2`` set iff ``a`` has
    ``(i1, j1)`` and ``b`` has ``(i2, j2)``, matching the product-graph
    vertex encoding bit for bit: the row-by-row AND of the two lifts.
    """
    left, right = kron_lift(a, b)
    return tuple(x & y for x, y in zip(left, right))


def oracle_exponent(g: Graph) -> ExtLen:
    """Least k with all of A^k positive; INF if none up to ``2 * order``.

    The cap is sound: a primitive undirected graph has exponent at most
    twice its diameter, which is below ``2 * order``, so no positive power
    up to it is a non-primitivity verdict.
    """
    full = (1 << g.order) - 1
    powers = islice(bool_powers(adjacency(g)), 2 * g.order)
    return next((k for k, p in enumerate(powers, 1) if p.count(full) == g.order), INF)
