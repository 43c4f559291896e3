"""Shared test machinery.

``walk_reach`` is the independent oracle used throughout: it enumerates
walk existence length by length with a direct dynamic program over the
adjacency structure and shares no code with the parity level scan or the
boolean matrix powers it is used to check.  ``brute_odd_cycles`` and
``brute_l_o_bound`` are the brute force for the odd-cycle bound: a DFS from
every anchor over the whole graph, and every cycle scored off
``dp_distances``, read from the walk enumeration and not from the BFS that
the bound itself runs.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from hypothesis import strategies as st

from kronwalk import INF, Graph, is_connected, random_graph

ACCEPT_SEED = 7


def walk_reach(g: Graph, max_len: int) -> list[list[list[bool]]]:
    """reach[k][u][v] is True iff some (u, v)-walk has length exactly k."""
    n = g.order
    layers = [[[u == v for v in range(n)] for u in range(n)]]
    for _ in range(max_len):
        prev = layers[-1]
        layers.append(
            [
                [any(prev[u][w] for w in g.neighbors(v)) for v in range(n)]
                for u in range(n)
            ]
        )
    return layers


def dp_parity_minima(g: Graph, max_len: int):
    """Shortest odd/even walk lengths by explicit enumeration up to max_len.

    Length 0 is excluded on the even diagonal: the empty walk is not a
    positive even walk.
    """
    n = g.order
    layers = walk_reach(g, max_len)
    odd = [[INF] * n for _ in range(n)]
    even = [[INF] * n for _ in range(n)]
    for k in range(1, max_len + 1):
        table = odd if k % 2 else even
        for u in range(n):
            for v in range(n):
                if layers[k][u][v] and table[u][v] == INF:
                    table[u][v] = k
    return odd, even


def walk_profile(g: Graph) -> dict:
    """The parity profile by its definitions, from walk enumeration.

    Walks of length up to ``2n`` decide every entry: a shortest walk of
    either parity visits each (vertex, parity) state at most once.
    """
    n = g.order
    odd, even = dp_parity_minima(g, 2 * n)
    pairs = [(u, v) for u in range(n) for v in range(n)]
    diam = max(0 if u == v else min(odd[u][v], even[u][v]) for u, v in pairs)
    girth = min(odd[u][u] for u in range(n))
    longer = [max(odd[u][v], even[u][v]) for u, v in pairs]
    odd_span = max(odd[u][v] for u, v in pairs)
    even_span = max(even[u][v] for u, v in pairs)
    gamma = max(odd_span, even_span) - 1
    witness = pairs[longer.index(gamma + 1)]
    return {
        "order": n,
        "connected": diam != INF,
        "bipartite": girth == INF,
        "odd_girth": girth,
        "diameter": diam,
        "odd_diameter": odd_span,
        "even_diameter": even_span,
        "witness_pair": witness if gamma != INF else None,
    }


def dp_distances(g: Graph) -> list[list]:
    """Graph distances as the first walk length reaching v from u (INF if none)."""
    n = g.order
    layers = walk_reach(g, n - 1)
    return [
        [next((k for k, layer in enumerate(layers) if layer[u][v]), INF) for v in range(n)]
        for u in range(n)
    ]


def brute_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple odd cycle, in the order ``enumerate_odd_cycles`` documents.

    Anchored at its smallest vertex, extended in increasing neighbour order
    over the whole graph, and kept once, with ``path[1] < path[-1]``; a loop
    ``(v,)`` comes first among the cycles anchored at ``v``.
    """
    found = []

    def extend(path: list[int]) -> None:
        for w in g.neighbors(path[-1]):
            if w == path[0]:
                if len(path) >= 3 and len(path) % 2 and path[1] < path[-1]:
                    found.append(tuple(path))
            elif w > path[0] and w not in path:
                extend(path + [w])

    for anchor in range(g.order):
        if g.has_loop(anchor):
            found.append((anchor,))
        extend([anchor])
    return found


def brute_l_o_bound(g: Graph, cap: int) -> tuple:
    """``(l_o, best_cycle, exact, cycles_considered)`` over the first ``cap`` cycles.

    Every cycle is scored by ``2 * ecc(C) + |C| - 1`` with the eccentricity
    read off the walk-enumeration distances, and the first minimum is kept.
    """
    dist = dp_distances(g)
    cycles = brute_odd_cycles(g)
    kept = cycles[:cap]
    values = [
        2 * max(min(dist[x][v] for v in c) for x in range(g.order)) + len(c) - 1
        for c in kept
    ]
    best = min(values, default=INF)
    best_cycle = kept[values.index(best)] if values else None
    return best, best_cycle, len(cycles) <= cap, len(kept)


def enumerate_graphs(n: int, allow_loops: bool = False) -> Iterator[Graph]:
    """Yield every labeled graph on ``n`` vertices exactly once, by edge mask.

    ``kronwalk.unlabeled_graphs`` yields one graph per isomorphism class;
    this labeled sweep is the oracle its tests compare it with.
    """
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if allow_loops:
        slots.extend((v, v) for v in range(n))
    for mask in range(1 << len(slots)):
        yield Graph(n, [slot for i, slot in enumerate(slots) if mask >> i & 1])


def labeled_graphs(min_order: int = 1) -> Iterator[Graph]:
    """Every labeled graph up to the enumeration caps: order 5 loopless, 4 looped."""
    for loops, top in ((False, 5), (True, 4)):
        for n in range(min_order, top + 1):
            yield from enumerate_graphs(n, allow_loops=loops)


def relabelled(g: Graph, labels) -> Graph:
    """The copy of ``g`` in which vertex ``u`` is called ``labels[u]``."""
    return Graph(g.order, [(labels[u], labels[v]) for u, v in g.edges()])


@st.composite
def graphs(draw, min_order: int = 1, max_order: int = 6, loops: bool = True) -> Graph:
    n = draw(st.integers(min_order, max_order))
    pair_count = n * (n - 1) // 2
    mask = draw(st.integers(0, 2**pair_count - 1))
    loop_mask = draw(st.integers(0, 2**n - 1)) if loops else 0
    edges = []
    index = 0
    for u in range(n):
        for v in range(u + 1, n):
            if mask >> index & 1:
                edges.append((u, v))
            index += 1
    edges.extend((v, v) for v in range(n) if loop_mask >> v & 1)
    return Graph(n, edges)


def random_connected_graph(
    rng: random.Random, min_order: int = 2, max_order: int = 6, loops: bool = True
) -> Graph:
    while True:
        n = rng.randint(min_order, max_order)
        g = random_graph(
            n,
            rng.uniform(0.3, 0.9),
            rng.uniform(0.0, 0.6) if loops else 0.0,
            seed=rng.randrange(2**60),
        )
        if is_connected(g):
            return g
