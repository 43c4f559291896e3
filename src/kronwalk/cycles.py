"""Odd-cycle enumeration and the cycle-eccentricity exponent bound.

For an odd cycle C in a connected graph, every vertex pair has two walks of
opposite parity through C whose lengths are at most
``2 * ecc(C) + |C| - 1`` plus one, where ``ecc(C)`` is the largest distance
from a vertex outside C to C.  Minimizing ``2 * ecc(C) + |C| - 1`` over all
odd cycles therefore bounds the exponent from above on graphs of order two
or more; loops participate as cycles of length one.

The search for cycles of length three or more keeps one set of live vertices.
A vertex dies once at most one live neighbour besides itself is left, since
every vertex of such a cycle keeps its two cycle neighbours, and an anchor
dies once its search ends.  So a chain dies with its first anchor, and is
not searched again from each of its vertices.
A cycle is scored by one breadth-first search from all its vertices at once
(:func:`walks.eccentricity`), cut off at the depth from which its value could
no longer beat the best so far, so the bound builds no all-pairs table.
Whether the graph is connected and whether it is bipartite are read off the
caller's parity profile: the bound refuses a disconnected graph, and answers
a bipartite one, which has no odd cycle, without searching for cycles.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .extlen import INF, ExtLen
from .graphs import Graph
from .walks import ParityProfile, eccentricity

DEFAULT_CYCLE_CAP = 100_000

OddCycle = tuple[int, ...]


class CycleBoundReport(NamedTuple):
    """Minimum cycle bound; an upper bound only when ``exact`` is False."""

    l_o: ExtLen
    best_cycle: OddCycle | None
    exact: bool
    cycles_considered: int


def _simple_cycles_from(g: Graph, live: list[bool], anchor: int) -> Iterator[OddCycle]:
    # DFS path extension over live vertices, each marked dead while it is on
    # the path; every vertex below the anchor is dead for good by now.  A
    # closing is accepted only with path[1] < path[-1], so each odd cycle of
    # length >= 3 appears exactly once, anchored at its minimum.  An explicit
    # stack holds one neighbor iterator per path vertex, so path length is
    # not limited by the interpreter's recursion depth.
    path = [anchor]
    pending = [iter(g.neighbors(anchor))]
    while pending:
        for w in pending[-1]:
            if w == anchor:
                if len(path) >= 3 and len(path) % 2 == 1 and path[1] < path[-1]:
                    yield tuple(path)
            elif live[w]:
                path.append(w)
                live[w] = False
                pending.append(iter(g.neighbors(w)))
                break
        else:
            pending.pop()
            live[path.pop()] = True


def enumerate_odd_cycles(g: Graph) -> Iterator[OddCycle]:
    """Yield each simple odd cycle once, as a vertex tuple in cyclic order.

    A loop at v is the length-1 cycle ``(v,)``.  The stream is deterministic:
    anchored at the smallest vertex, lexicographic extension.  Longer cycles
    are searched for among live vertices only.  A vertex dies once at most
    one live neighbour besides itself is left, and an anchor once its search
    ends, so the vertices below an anchor are dead before its search starts.
    """
    n = g.order
    live = [True] * n
    left = [len(g.neighbors(u)) - g.has_loop(u) for u in range(n)]

    def kill(doomed: list[int]) -> None:
        for u in doomed:
            live[u] = False
        while doomed:
            for w in g.neighbors(doomed.pop()):
                if live[w]:
                    left[w] -= 1
                    if left[w] <= 1:
                        live[w] = False
                        doomed.append(w)

    kill([u for u in range(n) if left[u] <= 1])
    for anchor in range(n):
        if g.has_loop(anchor):
            yield (anchor,)
        if live[anchor]:
            yield from _simple_cycles_from(g, live, anchor)
            kill([anchor])


def l_o_bound(
    g: Graph, profile: ParityProfile, cap: int = DEFAULT_CYCLE_CAP
) -> CycleBoundReport:
    """Minimum of ``2 * ecc(C) + |C| - 1`` over enumerated odd cycles.

    ``profile`` is the parity profile of ``g``.  INF for bipartite graphs.
    When the cap truncates enumeration the report is marked inexact, but the
    value is still a valid upper bound on the exponent because every
    individual cycle's value is one.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not profile.connected:
        raise ValueError("graph must be connected")
    if profile.bipartite:
        return CycleBoundReport(
            l_o=INF, best_cycle=None, exact=True, cycles_considered=0
        )
    best: ExtLen = INF
    best_cycle: OddCycle | None = None
    considered = 0
    exact = True
    for cycle in enumerate_odd_cycles(g):
        if considered >= cap:
            exact = False
            break
        considered += 1
        # The value is at least len(cycle) - 1, plus 2 while the cycle
        # misses a vertex, which then lies at distance at least 1 from it.
        if len(cycle) - 1 + (2 if len(cycle) < g.order else 0) >= best:
            continue
        # best and len(cycle) - 1 are even, so the halving is exact (and
        # leaves INF infinite): the cycle wins iff its eccentricity is below.
        ecc = eccentricity(g, cycle, (best - len(cycle) + 1) / 2)
        if ecc is not None:
            best = 2 * ecc + len(cycle) - 1
            best_cycle = cycle
    return CycleBoundReport(
        l_o=best, best_cycle=best_cycle, exact=exact, cycles_considered=considered
    )
