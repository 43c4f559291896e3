"""Plain-text edge-list format.

The header line is ``n <order>``, with the order at most ``MAX_ORDER``; a
caller's ``check`` may refuse a smaller order too, before any edge line is
parsed.  A file is refused once it lists more than ``MAX_EDGES`` edges.
Every following non-empty line that does not start with ``#`` is ``u v``
with 0-based vertex indices; ``u u`` denotes a loop.  Each undirected edge
must appear exactly once, so a repeated edge (in either orientation) is an
error.

:func:`graph_to_json` gives the JSON form, ``{"order": n, "edges": [[u, v],
...]}``, that ``generate`` prints and counterexamples carry.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from .graphs import Graph, check_edges, check_order


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.order}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str, check: Callable[[int], None] | None = None) -> Graph:
    order: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if order is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <order>'")
            try:
                order = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: order is not an integer") from None
            if order < 1:
                raise ValueError(f"line {lineno}: order must be at least 1")
            check_order(order)
            if check is not None:
                check(order)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints are not integers") from None
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"line {lineno}: endpoint out of range [0, {order})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
        check_edges(len(edges))
    if order is None:
        raise ValueError("missing header line 'n <order>'")
    return Graph(order, edges)


def read_graph(
    path: str | os.PathLike[str], check: Callable[[int], None] | None = None
) -> Graph:
    # utf-8-sig skips a leading byte-order mark, as some editors write one.
    with open(path, encoding="utf-8-sig") as handle:
        return parse_edge_list(handle.read(), check)


def write_graph(path: str | os.PathLike[str], g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_edge_list(g))


def graph_to_json(g: Graph) -> dict:
    return {"order": g.order, "edges": [list(edge) for edge in g.edges()]}
