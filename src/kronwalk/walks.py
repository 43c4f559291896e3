"""Parity-aware walk metrics and the primitive exponent.

The central computation is one breadth-first search per source over the
parity double cover of the graph: each vertex splits into an even-state and
an odd-state copy and every edge flips the state.  The BFS distance from the
source's even copy to the odd copy of ``v`` is the length of the shortest
odd walk to ``v``, and likewise for even.  The empty walk is excluded on the
even diagonal, so ``even[u][u]`` is the shortest closed walk of positive
even length (one edge out, shortest odd walk back).

From the two matrices everything else follows: graph distance is the
smaller of the two entries, the odd girth is the smallest odd diagonal
entry, and the per-pair exponent is ``max(odd, even) - 1`` whenever both
parities are reachable (no walk of length ``max - 2`` exists in the larger
parity, and either parity extends by two by repeating an edge).
:func:`profile_of` reads all of these off one pair of matrices.

The plain BFS (:func:`distance_matrix`, :func:`diameter`) stays separate:
it is about three times cheaper than the parity BFS, and it is the ground
truth on every built product.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .extlen import INF, ExtLen, is_finite
from .graphs import Graph, check_table_order

Matrix = tuple[tuple[ExtLen, ...], ...]


@dataclass(frozen=True)
class ParityDistances:
    """Shortest odd and shortest positive even walk lengths per ordered pair."""

    order: int
    odd: Matrix
    even: Matrix


@dataclass(frozen=True)
class ParityProfile:
    """Whole-graph facts read off one parity table.

    ``bipartite`` holds iff every odd diagonal entry is infinite, and
    ``witness_pair`` is the first pair in row-major order whose local
    exponent equals ``exponent`` (None when the exponent is infinite).
    """

    order: int
    connected: bool
    bipartite: bool
    odd_girth: ExtLen
    diameter: ExtLen
    exponent: ExtLen
    witness_pair: tuple[int, int] | None

    @property
    def is_k_plus(self) -> bool:
        # Exponent 1 means every pair, each vertex with itself included, is
        # adjacent: complete with a loop on every vertex.
        return self.exponent == 1


@dataclass(frozen=True)
class ExponentReport:
    """Global exponent and the first pair attaining it."""

    gamma: ExtLen
    witness_pair: tuple[int, int] | None


def parity_distances(g: Graph) -> ParityDistances:
    """Exact shortest odd and shortest positive even walk lengths, all pairs."""
    check_table_order(g.order)
    n = g.order
    odd_rows: list[tuple[ExtLen, ...]] = []
    even_rows: list[list[ExtLen]] = []
    for source in range(n):
        dist_even: list[ExtLen] = [INF] * n
        dist_odd: list[ExtLen] = [INF] * n
        dist_even[source] = 0
        queue: deque[tuple[int, bool]] = deque([(source, False)])
        while queue:
            v, odd_state = queue.popleft()
            step = (dist_odd[v] if odd_state else dist_even[v]) + 1
            target = dist_even if odd_state else dist_odd
            for w in g.neighbors(v):
                if target[w] == INF:
                    target[w] = step
                    queue.append((w, not odd_state))
        odd_rows.append(tuple(dist_odd))
        even_rows.append(dist_even)
    # The BFS start state makes even[u][u] = 0 via the empty walk; replace it
    # with the shortest positive even closed walk.  That is 2 whenever u has
    # a neighbour (out and back along one edge, or twice round a loop), and
    # none exists otherwise.
    for u in range(n):
        even_rows[u][u] = 2 if g.neighbors(u) else INF
    return ParityDistances(
        order=n,
        odd=tuple(odd_rows),
        even=tuple(tuple(row) for row in even_rows),
    )


def profile_of(pd: ParityDistances) -> ParityProfile:
    """Connectivity, bipartiteness, odd girth, diameter and exponent at once.

    Read off an existing parity table in one pass over its rows.
    """
    diam: ExtLen = 0
    girth: ExtLen = INF
    top: ExtLen = 0  # largest max(odd, even) so far; every entry is >= 2
    witness = None
    for u, (odd_row, even_row) in enumerate(zip(pd.odd, pd.even)):
        girth = min(girth, odd_row[u])
        longer = list(map(max, odd_row, even_row))
        row_top = max(longer)
        if row_top > top:
            top = row_top
            witness = (u, longer.index(row_top))
        dist = list(map(min, odd_row, even_row))
        dist[u] = 0
        diam = max(diam, max(dist))
    gamma = top - 1
    return ParityProfile(
        order=pd.order,
        connected=is_finite(diam),
        bipartite=girth == INF,
        odd_girth=girth,
        diameter=diam,
        exponent=gamma,
        witness_pair=witness if is_finite(gamma) else None,
    )


def distance_matrix(g: Graph) -> Matrix:
    """All-pairs graph distances by BFS; INF marks unreachable pairs."""
    check_table_order(g.order)
    n = g.order
    rows = []
    for source in range(n):
        dist: list[ExtLen] = [INF] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if dist[w] == INF:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return tuple(rows)


def diameter(g: Graph) -> ExtLen:
    """Largest pairwise distance; INF iff the graph is disconnected."""
    return max(max(row) for row in distance_matrix(g))


def is_connected(g: Graph) -> bool:
    seen = [False] * g.order
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.order


def is_bipartite(g: Graph) -> bool:
    """Two-colorability; a loop always breaks it."""
    color = [-1] * g.order
    for start in range(g.order):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w == v:
                    return False
                if color[w] == -1:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def odd_girth(g: Graph) -> ExtLen:
    """Length of a shortest odd cycle (a loop counts as 1); INF if bipartite.

    The shortest odd closed walk through any vertex is a cycle, so this is
    the smallest odd diagonal entry.
    """
    return profile_of(parity_distances(g)).odd_girth


def local_exponent(pd: ParityDistances, u: int, v: int) -> ExtLen:
    """Least length from which ``(u, v)``-walks of every longer length exist."""
    return max(pd.odd[u][v], pd.even[u][v]) - 1


def exponent(g: Graph) -> ExponentReport:
    """Global exponent: the maximum per-pair exponent; INF iff not primitive."""
    profile = profile_of(parity_distances(g))
    return ExponentReport(gamma=profile.exponent, witness_pair=profile.witness_pair)
