"""Parity-aware walk metrics and the primitive exponent.

The central computation is one breadth-first scan from all sources at once,
over rows kept as integer bitsets.  Level ``k`` holds, for each vertex
``u``, the set ``W_k[u]`` of sources with a walk of length exactly ``k`` to
``u``: ``W_0[u]`` is ``u`` alone, and ``W_k[u]`` is the union of
``W_{k-1}[w]`` over the neighbours ``w`` of ``u``.  A walk of positive
length extends by two by retracing an edge, so for ``k >= 1`` each level is
contained in the level two after it: the latest level of each parity holds
every source that parity has reached so far.  Once a level past the second
equals the level two before it, the levels repeat with period two and the
scan stops.

The scan keeps its rows in decreasing order of degree from start to end,
while the source bits keep their vertex labels.  Each neighbour column is
relabelled into row positions once, when it is built, and each level
gathers each column with one ``itemgetter`` call and ORs it into the prefix
of rows it covers; no level is gathered back into vertex order as the scan
runs.  A reader maps a row back to its vertex only where it names one: the
witness row in :func:`profile_of`, and every row in :func:`walk_levels`.

:func:`profile_of` reads a graph's whole profile off the levels as they
stream:

- the diameter is the first level ``k`` at which ``W_k | W_{k-1}``, the
  set reached within ``k`` steps, is full in every row (infinite if none
  is);
- the odd girth is the first odd level with ``u`` in ``W_k[u]``;
- the odd and the even span, the longest shortest odd and positive even
  walk over all pairs, are the last level of that parity, since every level
  the scan yields grows on the one two before it (infinite unless that
  level is full);
- the exponent is the larger span minus one, and the witness pair is the
  first vertex that grew at that level, with its lowest new source.

:func:`walk_levels` hands the levels themselves, in vertex order, to the
verify checkers of the pair lemmas: level ``k`` is the ``k``-th power of
the adjacency matrix.

:func:`diameter`, the ground truth on every built product, reads a second
all-sources scan, ``_reach``, which shares no code with the first:
``R_k[u]`` is the set of vertices within distance ``k`` of ``u``, and the
diameter is the first ``k`` at which every row is full.

Every BFS from one set of sources reads one generator, ``_bfs_levels``, of
the vertices at each distance from the set: :func:`eccentricity`
(the odd-cycle bound's scorer), :func:`is_connected` and
:func:`is_bipartite`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from itertools import chain, count
from operator import and_, itemgetter, or_
from typing import NamedTuple

from .extlen import INF, ExtLen
from .graphs import Graph, check_table_order

Level = list[int]


class ParityProfile(NamedTuple):
    """Whole-graph facts read off one parity scan.

    ``bipartite`` holds iff no vertex has an odd closed walk.  The odd and
    even spans (``odd_diameter``, ``even_diameter``) are infinite when some
    pair has no walk of that parity.  ``witness_pair`` is the first pair in
    row-major order whose local exponent equals ``exponent`` (None when the
    exponent is infinite).
    """

    order: int
    connected: bool
    bipartite: bool
    odd_girth: ExtLen
    diameter: ExtLen
    odd_diameter: ExtLen
    even_diameter: ExtLen
    witness_pair: tuple[int, int] | None

    @property
    def exponent(self) -> ExtLen:
        # Past its longer parity, a pair has walks of every length.
        return max(self.odd_diameter, self.even_diameter) - 1

    @property
    def is_k_plus(self) -> bool:
        # Exponent 1 means every pair, each vertex with itself included, is
        # adjacent: complete with a loop on every vertex.
        return self.exponent == 1


class ExponentReport(NamedTuple):
    """Global exponent and the first pair attaining it."""

    gamma: ExtLen
    witness_pair: tuple[int, int] | None


def _gather(column: list[int]) -> Callable[[Level], Sequence[int]]:
    """A getter of the rows at these positions, always as a sequence.

    ``itemgetter`` returns the bare row for a single position, so a column
    of one row, or of none, gathers through a slice.
    """
    if len(column) > 1:
        return itemgetter(*column)
    return itemgetter(slice(column[0], column[0] + 1) if column else slice(0))


def _rank(units: Level) -> list[int]:
    """The row of each vertex in a scan whose first level is ``units``.

    ``W_0`` holds ``1 << u`` at the row of ``u``, so sorting the rows by
    ``W_0`` lists them in vertex order.
    """
    return sorted(range(len(units)), key=units.__getitem__)


def _levels(g: Graph) -> Iterator[Level]:
    """``W_0, W_1, ...``, up to the last level before they repeat.

    Row ``i`` of every level belongs to the vertex ``by_degree[i]``, the
    vertices in decreasing order of degree, so ``W_0`` holds
    ``1 << by_degree[i]`` at row ``i``; the source bits keep their vertex
    labels.  The ``j``-th neighbours of the vertices of degree above ``j``,
    relabelled into rows as the column is built, cover a prefix of the rows;
    each level gathers each column with one call and ORs it into that
    prefix, and the rows of degree 0 stay empty.  A reader that names a
    vertex by its row maps the row back through :func:`_rank`, as the
    columns do.
    """
    n = g.order
    rows = list(map(g.neighbors, range(n)))
    by_degree = sorted(range(n), key=list(map(len, rows)).__getitem__, reverse=True)
    level = [1 << u for u in by_degree]
    rank = _rank(level)
    nbs = list(map(rows.__getitem__, by_degree))
    # Column j reads the first `covered` rows, those of degree above j.  On an
    # edgeless graph the first column is empty, and every row isolated.
    built = []
    covered = n
    for j in range(max(len(nbs[0]), 1)):
        while covered and len(nbs[covered - 1]) <= j:
            covered -= 1
        built.append([rank[nb[j]] for nb in nbs[:covered]])
    first, *rest = built
    isolated = [0] * (n - len(first))
    gather_first = _gather(first)
    columns = [(slice(len(column)), _gather(column)) for column in rest]
    before = None
    for k in count(1):
        yield level
        step = [*gather_first(level), *isolated]
        for prefix, gather in columns:
            step[prefix] = map(or_, step, gather(level))
        if k > 2 and step == before:
            return
        before, level = level, step


def profile_of(g: Graph) -> ParityProfile:
    """Connectivity, bipartiteness, odd girth, diameter and both spans at once.

    One scan of the levels, read as they stream; no n x n table is built.
    """
    check_table_order(g.order)
    levels = _levels(g)
    units = next(levels)
    n = len(units)
    full = (1 << n) - 1
    diam = 0 if n == 1 else INF
    girth = INF
    before = units
    latest, prior = [[0] * n, [0] * n], None  # the latest even and odd level
    for k, level in enumerate(levels, 1):
        # Past level 1 a level contains the one two before it, so the reached
        # set W_0 | ... | W_k is W_k | W_{k-1}, with u itself in W_2.
        if diam == INF and all(map(full.__eq__, map(or_, level, before))):
            diam = k
        if k % 2 and girth == INF and any(map(and_, level, units)):
            girth = k
        prior, latest[k % 2] = latest[k % 2], level
        before = level
    # The scan stops before a level equals the one two before it, so the last
    # level of each parity is the last that grows, and it ends full unless
    # some pair never has a walk of that parity.
    spans = [INF, INF]  # even, odd
    for j in (k - 1, k):
        if latest[j % 2].count(full) == n:
            spans[j % 2] = j
    witness = None
    if INF not in spans:
        # The larger span is the last level, and the other parity is already
        # full there, so the pairs new to that level are exactly the pairs at
        # the exponent.
        r = next(r for r in _rank(units) if level[r] != prior[r])
        fresh = level[r] & ~prior[r]
        witness = (units[r].bit_length() - 1, (fresh & -fresh).bit_length() - 1)
    return ParityProfile(
        order=n,
        connected=diam != INF,
        bipartite=girth == INF,
        odd_girth=girth,
        diameter=diam,
        odd_diameter=spans[1],
        even_diameter=spans[0],
        witness_pair=witness,
    )


def walk_levels(g: Graph) -> list[tuple[int, ...]]:
    """The scan's levels ``W_0, ..., W_m``, row ``u`` of each the vertex ``u``.

    Bit ``v`` of row ``u`` of ``W_k`` is set iff some walk of length exactly
    ``k`` joins ``u`` and ``v``.  Past the last level ``W_m`` the levels
    repeat ``W_{m-1}, W_m`` with period two.
    """
    check_table_order(g.order)
    levels = _levels(g)
    units = next(levels)
    in_vertex_order = _gather(_rank(units))
    return [tuple(in_vertex_order(level)) for level in chain([units], levels)]


def _bfs_levels(g: Graph, sources: Iterable[int]) -> Iterator[Level]:
    """The vertices at distance 0, 1, 2, ... from the distinct ``sources``.

    Ends at the first empty level, so every vertex left unseen then is
    unreachable.
    """
    seen = bytearray(g.order)
    frontier = list(sources)
    for v in frontier:
        seen[v] = 1
    neighbors = g.neighbors
    while frontier:
        yield frontier
        reached = []
        for v in frontier:
            for w in neighbors(v):
                if not seen[w]:
                    seen[w] = 1
                    reached.append(w)
        frontier = reached


def _reach(g: Graph) -> Iterator[Level]:
    """``R_0, R_1, ...``: ``R_k[u]`` is the set of vertices within distance ``k`` of ``u``.

    ``R_0[u]`` is ``u`` alone, and ``R_{k+1}[u]`` is ``R_k[u]`` joined with
    ``R_k[w]`` for every neighbour ``w`` of ``u``: every source at once,
    one OR per edge end and step.  Ends at the first level with every row
    full, or after the first step that adds nothing.
    """
    n = g.order
    full = (1 << n) - 1
    rows = [1 << u for u in range(n)]
    neighbors = [g.neighbors(u) for u in range(n)]
    while True:
        yield rows
        if rows.count(full) == n:
            return
        get = rows.__getitem__
        step = [reduce(or_, map(get, nbrs), row) for row, nbrs in zip(rows, neighbors)]
        if step == rows:
            return
        rows = step


def diameter(g: Graph) -> ExtLen:
    """Largest pairwise distance; INF iff the graph is disconnected.

    The first ``k`` at which every reach row is full; the all-pairs size
    guard bounds the n-bit rows.
    """
    check_table_order(g.order)
    full = (1 << g.order) - 1
    for k, rows in enumerate(_reach(g)):
        if rows.count(full) == len(rows):
            return k
    return INF


def eccentricity(g: Graph, sources: Iterable[int], limit: ExtLen = INF) -> int | None:
    """Largest distance from the distinct ``sources`` to a vertex, if below ``limit``.

    None, expanding no further level, once a vertex proves unreachable or
    the next level would reach depth ``limit``.
    """
    left = g.order
    for depth, level in enumerate(_bfs_levels(g, sources)):
        left -= len(level)
        if not left:
            return depth
        if depth + 1 >= limit:
            return None
    return None


def is_connected(g: Graph) -> bool:
    return sum(map(len, _bfs_levels(g, (0,)))) == g.order


def is_bipartite(g: Graph) -> bool:
    """Two-colorability; a loop always breaks it.

    Within a component, the ends of an edge lie at equal or adjacent depths
    from the root, and an edge within one level closes an odd cycle.
    """
    depth = [-1] * g.order
    for root in range(g.order):
        if depth[root] < 0:
            for d, level in enumerate(_bfs_levels(g, (root,))):
                for v in level:
                    depth[v] = d
    return all(depth[v] != depth[w] for v in range(g.order) for w in g.neighbors(v))


def odd_girth(g: Graph) -> ExtLen:
    """Length of a shortest odd cycle (a loop counts as 1); INF if bipartite.

    The shortest odd closed walk through any vertex is a cycle, so this is
    the first odd level at which a vertex reaches itself.
    """
    return profile_of(g).odd_girth


def exponent(g: Graph) -> ExponentReport:
    """Global exponent: the maximum per-pair exponent; INF iff not primitive."""
    profile = profile_of(g)
    return ExponentReport(gamma=profile.exponent, witness_pair=profile.witness_pair)
