"""Odd-cycle enumeration and the cycle-eccentricity exponent bound.

For an odd cycle C in a connected graph, every vertex pair has two walks of
opposite parity through C whose lengths are at most
``2 * ecc(C) + |C| - 1`` plus one, where ``ecc(C)`` is the largest distance
from a vertex outside C to C.  Minimizing ``2 * ecc(C) + |C| - 1`` over all
odd cycles therefore bounds the exponent from above; loops participate as
cycles of length one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .extlen import INF, ExtLen
from .graphs import Graph
from .walks import Matrix, distance_matrix

DEFAULT_CYCLE_CAP = 100_000

OddCycle = tuple[int, ...]


@dataclass(frozen=True)
class CycleBoundReport:
    """Minimum cycle bound; an upper bound only when ``exact`` is False."""

    l_o: ExtLen
    best_cycle: OddCycle | None
    exact: bool
    cycles_considered: int


def _simple_cycles_from(g: Graph, anchor: int) -> Iterator[OddCycle]:
    # DFS path extension: only vertices above the anchor may join the path,
    # and a closing is accepted only with path[1] < path[-1], so each odd
    # cycle of length >= 3 appears exactly once, anchored at its minimum.
    # An explicit stack holds one neighbor iterator per path vertex, so path
    # length is not limited by the interpreter's recursion depth.
    path = [anchor]
    on_path = {anchor}
    pending = [iter(g.neighbors(anchor))]
    while pending:
        for w in pending[-1]:
            if w == anchor:
                if len(path) >= 3 and len(path) % 2 == 1 and path[1] < path[-1]:
                    yield tuple(path)
            elif w > anchor and w not in on_path:
                path.append(w)
                on_path.add(w)
                pending.append(iter(g.neighbors(w)))
                break
        else:
            pending.pop()
            on_path.remove(path.pop())


def enumerate_odd_cycles(g: Graph) -> Iterator[OddCycle]:
    """Yield each simple odd cycle once, as a vertex tuple in cyclic order.

    A loop at v is the length-1 cycle ``(v,)``.  The stream is deterministic:
    anchored at the smallest vertex, lexicographic extension.
    """
    for anchor in range(g.order):
        if g.has_loop(anchor):
            yield (anchor,)
        yield from _simple_cycles_from(g, anchor)


def _eccentricity(dist: Matrix, cycle: OddCycle) -> int:
    members = set(cycle)
    return max(
        (
            min(map(row.__getitem__, cycle))
            for x, row in enumerate(dist)
            if x not in members
        ),
        default=0,
    )


def l_o_bound(g: Graph, cap: int = DEFAULT_CYCLE_CAP) -> CycleBoundReport:
    """Minimum of ``2 * ecc(C) + |C| - 1`` over enumerated odd cycles.

    INF for bipartite graphs.  When the cap truncates enumeration the report
    is marked inexact, but the value is still a valid upper bound on the
    exponent because every individual cycle's value is one.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    dist = distance_matrix(g)
    if INF in dist[0]:
        raise ValueError("graph must be connected")
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
        value = 2 * _eccentricity(dist, cycle) + len(cycle) - 1
        if value < best:
            best = value
            best_cycle = cycle
    return CycleBoundReport(
        l_o=best, best_cycle=best_cycle, exact=exact, cycles_considered=considered
    )
