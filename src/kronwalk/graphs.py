"""Immutable undirected graphs on dense integer vertices.

Vertices are the integers ``0 .. order-1``.  Loops are allowed and a loop is
stored as the vertex appearing once in its own sorted neighbor tuple; it
counts as one edge and contributes two to the degree.  Parallel edges do not
exist.  Graphs are value objects: equality and hashing follow the adjacency
structure, and every mutation-like operation returns a new graph, so
instances can be shared freely across concurrent work.

Besides the core type this module provides the named family constructors
(paths, cycles, complete graphs with or without loops, complete multipartite
graphs, and the path-plus-clique / path-plus-cycle families), seeded random
generation, and exhaustive enumeration of small graphs, one per
isomorphism class.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from itertools import compress, permutations

ENUM_CAP_LOOPLESS = 5
ENUM_CAP_LOOPED = 4
# Largest order any graph may have, products included.
MAX_ORDER = 100_000
# Largest edge count of a dense family graph or a product; each listed edge
# costs a few hundred bytes until the graph is built.
MAX_EDGES = 1_000_000
# Largest order of a graph given an all-sources scan.  No scan builds an
# all-pairs table: the reach scan behind `diameter` keeps two levels of n-bit
# rows, about 2 MB at this limit, and only `walk_levels`, which the verify
# checkers read on small graphs, keeps every level.  For the scan behind
# `summarize`, which `metrics`, `predict` and `product` run, the limit bounds
# time instead: the scan runs about as many levels as the exponent or the
# diameter, and on a 2-vCPU host `path:3000` takes about 2-3 s and
# `F:3000,5` about 3-4 s.
MAX_TABLE_ORDER = 3_000


def check_order(order: int) -> None:
    """Refuse an order above MAX_ORDER before anything of that size exists."""
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the limit of {MAX_ORDER}")


def check_edges(count: int) -> None:
    """Refuse an edge count above MAX_EDGES before any edge is listed."""
    if count > MAX_EDGES:
        raise ValueError(f"edge count {count} exceeds the limit of {MAX_EDGES}")


def check_table_order(order: int) -> None:
    """Refuse an order above MAX_TABLE_ORDER before any all-pairs row exists."""
    if order > MAX_TABLE_ORDER:
        raise ValueError(
            f"order {order} exceeds the all-pairs table limit of {MAX_TABLE_ORDER}"
        )


class Graph:
    """Undirected graph with loops allowed and no parallel edges."""

    __slots__ = ("_neighbors",)

    def __init__(self, order: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if order < 1:
            raise ValueError("graph order must be at least 1")
        check_order(order)
        adjacency: list[set[int]] = [set() for _ in range(order)]
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) out of range for order {order}")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._neighbors = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> Graph:
        """The graph with these neighbour tuples, taken as they are.

        For builders whose rows are sorted, duplicate-free and symmetric by
        construction; ``validate`` re-checks that.
        """
        g = cls.__new__(cls)
        g._neighbors = rows
        return g

    @property
    def order(self) -> int:
        return len(self._neighbors)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted neighbors of ``u``; contains ``u`` itself iff ``u`` has a loop."""
        return self._neighbors[u]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._neighbors[u]

    def has_loop(self, u: int) -> bool:
        return u in self._neighbors[u]

    @property
    def loop_flags(self) -> tuple[bool, ...]:
        return tuple(u in nbrs for u, nbrs in enumerate(self._neighbors))

    def degree(self, u: int) -> int:
        nbrs = self._neighbors[u]
        return len(nbrs) + (1 if u in nbrs else 0)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u <= v``; a loop is ``(u, u)``."""
        for u, nbrs in enumerate(self._neighbors):
            for v in nbrs:
                if v >= u:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        # A loop appears once in its row, and any other edge once in each of two.
        return (sum(map(len, self._neighbors)) + sum(self.loop_flags)) // 2

    def remove_vertex(self, v: int) -> Graph:
        """New graph without ``v``; higher labels shift down by one."""
        if self.order < 2:
            raise ValueError("cannot remove the last vertex")
        if not 0 <= v < self.order:
            raise ValueError(f"vertex {v} out of range")
        kept = [
            (a - (a > v), b - (b > v))
            for a, b in self.edges()
            if a != v and b != v
        ]
        return Graph(self.order - 1, kept)

    def remove_edge(self, u: int, v: int) -> Graph:
        """New graph without the edge ``{u, v}``."""
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) not present")
        lo, hi = min(u, v), max(u, v)
        kept = [e for e in self.edges() if e != (lo, hi)]
        return Graph(self.order, kept)

    def validate(self) -> None:
        """Re-check the structural invariants; raises ValueError on violation."""
        for u, nbrs in enumerate(self._neighbors):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbor tuple of {u} not sorted and duplicate-free")
            for v in nbrs:
                if not 0 <= v < self.order:
                    raise ValueError(f"neighbor {v} of {u} out of range")
                if u not in self._neighbors[v]:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._neighbors == other._neighbors

    def __hash__(self) -> int:
        return hash(self._neighbors)

    def __repr__(self) -> str:
        return f"Graph({self.order}, {list(self.edges())!r})"


def make_path(n: int) -> Graph:
    """Path on ``n`` vertices, labeled 0..n-1 along the path."""
    if n < 1:
        raise ValueError("path needs at least one vertex")
    check_order(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices, labeled in cyclic order."""
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    check_order(n)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def make_complete(n: int, with_loops: bool = False) -> Graph:
    """Complete graph on ``n`` vertices, optionally with a loop on every vertex."""
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    check_order(n)
    check_edges(n * (n - 1) // 2 + (n if with_loops else 0))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if with_loops:
        edges.extend((v, v) for v in range(n))
    return Graph(n, edges)


def make_complete_multipartite(part_sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; parts occupy consecutive label blocks."""
    sizes = list(part_sizes)
    if len(sizes) < 2:
        raise ValueError("need at least two parts")
    if any(s < 1 for s in sizes):
        raise ValueError("every part needs at least one vertex")
    check_order(sum(sizes))
    check_edges((sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2)
    part_of: list[int] = []
    for index, size in enumerate(sizes):
        part_of.extend([index] * size)
    n = len(part_of)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    ]
    return Graph(n, edges)


def _family(n: int, p: int, attachment: Graph) -> Graph:
    # Path vertices first (0 .. n-p-1), attachment block after, one bridge edge.
    edges = [(i, i + 1) for i in range(n - p - 1)]
    edges.append((n - p - 1, n - p))
    edges.extend((n - p + a, n - p + b) for a, b in attachment.edges())
    return Graph(n, edges)


def make_h_family(n: int, p: int) -> Graph:
    """Path on ``n - p`` vertices joined by one edge to a complete graph on ``p``."""
    if p < 1:
        raise ValueError("clique part needs at least one vertex")
    if n <= p:
        raise ValueError("order must exceed the clique size")
    check_order(n)
    return _family(n, p, make_complete(p))


def make_f_family(n: int, p: int) -> Graph:
    """Path on ``n - p`` vertices joined by one edge to a cycle on ``p``."""
    if p < 3:
        raise ValueError("cycle part needs at least three vertices")
    if n <= p:
        raise ValueError("order must exceed the cycle size")
    check_order(n)
    return _family(n, p, make_cycle(p))


def random_graph(n: int, edge_prob: float, loop_prob: float, seed: int) -> Graph:
    """Independent-edge random graph, deterministic for a fixed seed.

    Pairs are decided in lexicographic order, then loops vertex by vertex,
    so the same seed reproduces the same graph on any platform.
    """
    if n < 1:
        raise ValueError("graph order must be at least 1")
    check_order(n)
    for name, prob in (("edge_prob", edge_prob), ("loop_prob", loop_prob)):
        if not 0 <= prob <= 1:
            raise ValueError(f"{name} must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    edges.extend((v, v) for v in range(n) if rng.random() < loop_prob)
    return Graph(n, edges)


def unlabeled_graphs(n: int, allow_loops: bool = False) -> Iterator[Graph]:
    """Yield one graph on ``n`` vertices per isomorphism class.

    The edge masks are walked in increasing order.  A mask not yet marked
    starts a new class: its graph is yielded and the masks of its ``n!``
    relabelings are marked, so each class is represented by its least mask,
    a brute-force canonical form (McKay and Piperno, "Practical graph
    isomorphism II", 2014).  There are ``2**C(n, 2)`` masks, times ``2**n``
    when loops are allowed, so ``n`` is refused above 5 loopless and 4 with
    loops.
    """
    cap = ENUM_CAP_LOOPED if allow_loops else ENUM_CAP_LOOPLESS
    if n < 1:
        raise ValueError("graph order must be at least 1")
    if n > cap:
        raise ValueError(f"order {n} above enumeration cap {cap}")
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if allow_loops:
        slots.extend((v, v) for v in range(n))
    bit = {slot: 1 << i for i, slot in enumerate(slots)}
    # Under relabeling p, the slot at position i moves to the bit table[i].
    tables = [
        [bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in slots]
        for p in permutations(range(n))
    ]
    marked = bytearray(1 << len(slots))
    for mask in range(len(marked)):
        if marked[mask]:
            continue
        present = [mask >> i & 1 for i in range(len(slots))]
        for table in tables:
            marked[sum(compress(table, present))] = 1
        yield Graph(n, compress(slots, present))


def is_k_plus(g: Graph) -> bool:
    """True iff every vertex has a loop and all vertex pairs are adjacent."""
    n = g.order
    return all(len(g.neighbors(u)) == n and g.has_loop(u) for u in range(n))
