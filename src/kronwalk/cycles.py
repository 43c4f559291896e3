"""Odd-cycle enumeration and the cycle-eccentricity exponent bound.

For an odd cycle C in a connected graph, every vertex pair has two walks of
opposite parity through C whose lengths are at most
``2 * ecc(C) + |C| - 1`` plus one, where ``ecc(C)`` is the largest distance
from a vertex outside C to C.  Minimizing ``2 * ecc(C) + |C| - 1`` over all
odd cycles therefore bounds the exponent from above on graphs of order two
or more; loops participate as cycles of length one.

The search for cycles of length three or more runs on the 2-core only:
vertices with at most one neighbour besides themselves are peeled until none
is left, since every vertex of such a cycle keeps its two cycle neighbours.
A cycle is scored by one breadth-first search from all its vertices at once
(:func:`walks.eccentricity`), cut off at the depth from which its value could
no longer beat the best so far, so the bound builds no all-pairs table.  The
first cycle's search has no cut-off, so it also shows whether the graph is
connected.  A bipartite graph has no odd cycle, so the bound answers it after
a two-colouring search, without walking the 2-core's paths.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from typing import NamedTuple

from .extlen import INF, ExtLen
from .graphs import Graph
from .walks import eccentricity, is_bipartite, is_connected

DEFAULT_CYCLE_CAP = 100_000

OddCycle = tuple[int, ...]
Neighbors = Callable[[int], Sequence[int]]


class CycleBoundReport(NamedTuple):
    """Minimum cycle bound; an upper bound only when ``exact`` is False."""

    l_o: ExtLen
    best_cycle: OddCycle | None
    exact: bool
    cycles_considered: int


def _core_neighbors(g: Graph) -> Neighbors:
    """Sorted neighbours within the 2-core; peeled vertices have none.

    A vertex is peeled while at most one neighbour other than itself is left.
    When nothing is peeled the graph's own lists are returned, unchanged.
    """
    n = g.order
    left = [len(g.neighbors(u)) - g.has_loop(u) for u in range(n)]
    stack = [u for u in range(n) if left[u] <= 1]
    if not stack:
        return g.neighbors
    peeled = [False] * n
    for u in stack:
        peeled[u] = True
    while stack:
        for w in g.neighbors(stack.pop()):
            if not peeled[w]:
                left[w] -= 1
                if left[w] <= 1:
                    peeled[w] = True
                    stack.append(w)
    return [
        () if gone else tuple(w for w in g.neighbors(u) if not peeled[w])
        for u, gone in enumerate(peeled)
    ].__getitem__


def _simple_cycles_from(neighbors: Neighbors, anchor: int) -> Iterator[OddCycle]:
    # DFS path extension: only vertices above the anchor may join the path,
    # and a closing is accepted only with path[1] < path[-1], so each odd
    # cycle of length >= 3 appears exactly once, anchored at its minimum.
    # An explicit stack holds one neighbor iterator per path vertex, so path
    # length is not limited by the interpreter's recursion depth.
    path = [anchor]
    on_path = {anchor}
    pending = [iter(neighbors(anchor))]
    while pending:
        for w in pending[-1]:
            if w == anchor:
                if len(path) >= 3 and len(path) % 2 == 1 and path[1] < path[-1]:
                    yield tuple(path)
            elif w > anchor and w not in on_path:
                path.append(w)
                on_path.add(w)
                pending.append(iter(neighbors(w)))
                break
        else:
            pending.pop()
            on_path.remove(path.pop())


def enumerate_odd_cycles(g: Graph) -> Iterator[OddCycle]:
    """Yield each simple odd cycle once, as a vertex tuple in cyclic order.

    A loop at v is the length-1 cycle ``(v,)``.  The stream is deterministic:
    anchored at the smallest vertex, lexicographic extension.
    """
    core = _core_neighbors(g)
    for anchor in range(g.order):
        if g.has_loop(anchor):
            yield (anchor,)
        if core(anchor):
            yield from _simple_cycles_from(core, anchor)


def l_o_bound(g: Graph, cap: int = DEFAULT_CYCLE_CAP) -> CycleBoundReport:
    """Minimum of ``2 * ecc(C) + |C| - 1`` over enumerated odd cycles.

    INF for bipartite graphs.  When the cap truncates enumeration the report
    is marked inexact, but the value is still a valid upper bound on the
    exponent because every individual cycle's value is one.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if is_bipartite(g):
        if not is_connected(g):
            raise ValueError("graph must be connected")
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
        elif best == INF:
            # The first scored cycle has no depth limit: a vertex is unreachable.
            raise ValueError("graph must be connected")
    return CycleBoundReport(
        l_o=best, best_cycle=best_cycle, exact=exact, cycles_considered=considered
    )
