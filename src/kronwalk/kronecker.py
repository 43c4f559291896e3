"""Kronecker (tensor) product of graphs.

The product of graphs on n1 and n2 vertices lives on n1 * n2 vertices;
vertex ``(a, b)`` is encoded row-major as ``a * n2 + b``.  Two product
vertices are adjacent exactly when both coordinate pairs are adjacent in
their factors, so each pair of factor edges contributes the two cross
pairings (which coincide when a factor edge is a loop), and a product
vertex carries a loop iff both coordinates do.  The product is built row
by row: the neighbours of ``(a, b)`` are the pairs of a neighbour of ``a``
and a neighbour of ``b``.

A product walk is a pair of factor walks of the same length, so the
product's order, edge count, diameter and connectivity follow from the
factors alone: :func:`product_diameter` and :func:`product_is_connected`
read them off the two factors' parity profiles, without building the
product or any table.
"""

from __future__ import annotations

from .extlen import INF, ExtLen
from .graphs import Graph, check_edges, check_order
from .walks import ParityProfile


def kronecker_product(g1: Graph, g2: Graph) -> Graph:
    """The tensor product of ``g1`` and ``g2`` under the row-major encoding."""
    check_order(g1.order * g2.order)
    check_edges(product_edge_count(g1, g2))
    n2 = g2.order
    rows2 = [g2.neighbors(b) for b in range(n2)]
    rows = []
    for a in range(g1.order):
        # Row (a, b) lists a2 * n2 + b2 over a2 in N(a), then b2 in N(b):
        # sorted and duplicate-free, since every b2 is below n2.
        offsets = [a2 * n2 for a2 in g1.neighbors(a)]
        rows.extend(tuple([o + b2 for o in offsets for b2 in nb]) for nb in rows2)
    return Graph._from_rows(tuple(rows))


def product_edge_count(g1: Graph, g2: Graph) -> int:
    """Edge count of the product, from each factor's row lengths and loops.

    Row ``(a, b)`` of the product has ``|N(a)| * |N(b)|`` entries, and
    ``(a, b)`` has a loop iff ``a`` and ``b`` both do; a loop fills one row
    entry and any other edge two.
    """
    (s1, l1), (s2, l2) = (
        (sum(map(len, map(g.neighbors, range(g.order)))), sum(g.loop_flags))
        for g in (g1, g2)
    )
    return (s1 * s2 + l1 * l2) // 2


def product_diameter(s1: ParityProfile, s2: ParityProfile) -> ExtLen:
    """Diameter of the product of the factors with these parity profiles.

    A walk of positive length extends by two by retracing its last edge, so
    with no isolated factor vertex every product pair is within ``D`` iff
    ``D`` is at least both factor diameters and no pair of one factor needs
    an even walk longer than ``D`` while a pair of the other needs an odd
    one: the diameter is ``max(d1, d2, min(E1, O2), min(O1, E2))`` over the
    odd and even spans.  On order one the empty walk is the even walk that
    counts, so a looped vertex has even span 0; a bare vertex isolates every
    product vertex.
    """
    if s1.order * s2.order == 1:
        return 0
    if INF in (s.even_diameter for s in (s1, s2) if s.order == 1):
        return INF
    e1, e2 = (0 if s.order == 1 else s.even_diameter for s in (s1, s2))
    o1, o2 = s1.odd_diameter, s2.odd_diameter
    return max(s1.diameter, s2.diameter, min(e1, o2), min(o1, e2))


def product_is_connected(s1: ParityProfile, s2: ParityProfile) -> bool:
    """Connectivity of the product of the connected factors with these profiles.

    The product is connected exactly when at least one factor contains an
    odd cycle, so no product needs to be built.  A connected factor with no
    edge is a bare vertex (order one and bipartite), which leaves every
    product vertex isolated: that product is connected only when it is a
    single vertex.
    """
    if not s1.connected or not s2.connected:
        raise ValueError("both factors must be connected")
    if s1.order * s2.order == 1:
        return True
    if any(s.order == 1 and s.bipartite for s in (s1, s2)):
        return False
    return not s1.bipartite or not s2.bipartite
