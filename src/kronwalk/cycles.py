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
from itertools import islice
from typing import Iterator

from .extlen import INF, ExtLen
from .graphs import Graph
from .walks import Matrix, distance_matrix, is_connected

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


def _all_odd_cycles(g: Graph) -> Iterator[OddCycle]:
    for anchor in range(g.order):
        if g.has_loop(anchor):
            yield (anchor,)
        yield from _simple_cycles_from(g, anchor)


def enumerate_odd_cycles(g: Graph, cap: int | None = None) -> Iterator[OddCycle]:
    """Yield each simple odd cycle once, as a vertex tuple in cyclic order.

    A loop at v is the length-1 cycle ``(v,)``.  The stream is deterministic
    (anchored at the smallest vertex, lexicographic extension) and stops
    silently after ``cap`` cycles when a cap is given.
    """
    cycles = _all_odd_cycles(g)
    return cycles if cap is None else islice(cycles, cap)


def _check_cycle(g: Graph, cycle: OddCycle) -> None:
    if len(cycle) % 2 == 0 or not cycle:
        raise ValueError("cycle must have odd length")
    if len(set(cycle)) != len(cycle):
        raise ValueError("cycle vertices must be distinct")
    for v in cycle:
        if not 0 <= v < g.order:
            raise ValueError(f"cycle vertex {v} out of range")
    if len(cycle) == 1:
        if not g.has_loop(cycle[0]):
            raise ValueError(f"vertex {cycle[0]} has no loop")
        return
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not g.has_edge(a, b):
            raise ValueError(f"cycle edge ({a}, {b}) not present")


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


def eccentricity_to_cycle(g: Graph, cycle: OddCycle) -> int:
    """Largest distance from a vertex outside the cycle to the cycle (0 if none)."""
    _check_cycle(g, cycle)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    return _eccentricity(distance_matrix(g), cycle)


def l_o_bound(g: Graph, cap: int = DEFAULT_CYCLE_CAP) -> CycleBoundReport:
    """Minimum of ``2 * ecc(C) + |C| - 1`` over enumerated odd cycles.

    INF for bipartite graphs.  When the cap truncates enumeration the report
    is marked inexact, but the value is still a valid upper bound on the
    exponent because every individual cycle's value is one.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    dist = distance_matrix(g)
    best: ExtLen = INF
    best_cycle: OddCycle | None = None
    considered = 0
    exact = True
    for cycle in _all_odd_cycles(g):
        if considered >= cap:
            exact = False
            break
        considered += 1
        value = 2 * _eccentricity(dist, cycle) + len(cycle) - 1
        if value < best:
            best = value
            best_cycle = cycle
    return CycleBoundReport(
        l_o=best, best_cycle=best_cycle, exact=exact, cycles_considered=considered
    )
