"""Plain-text edge-list format, read and written a line at a time.

The header line is ``n <order>``, with the order at most ``MAX_ORDER``; a
caller's ``check`` may refuse a smaller order too, before any edge line is
read.  A file is refused at its first edge past ``MAX_EDGES``, and no line
after it is read.  Every following non-empty line that does not start with
``#`` is ``u v`` with 0-based vertex indices; ``u u`` denotes a loop.  Each
undirected edge must appear exactly once, so a repeated edge (in either
orientation) is an error.  Lines are numbered as ``str.splitlines`` splits
the text, so a form feed or a U+2028 inside a file line starts a new one.

Neither direction holds a file's whole text: :func:`read_graph` keeps only
the set of edges read so far, from which the ``Graph`` is built, and
:func:`write_graph` writes :func:`format_edge_list`'s lines in chunks.
:func:`graph_to_json` gives the JSON form, ``{"order": n, "edges": [[u, v],
...]}``, that ``generate`` prints and counterexamples carry.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice

from .graphs import Graph, check_edges, check_order

# Lines joined into one write: small files take one write, and a large one
# never holds more than this many lines as one string.
_WRITE_CHUNK_LINES = 4096


def format_edge_list(g: Graph) -> Iterator[str]:
    """Yield the lines of ``g``'s edge list, each ending in a newline: the
    header, then the edges in ``g.edges()`` order."""
    yield f"n {g.order}\n"
    for u, v in g.edges():
        yield f"{u} {v}\n"


def parse_edge_list(
    lines: str | Iterable[str], check: Callable[[int], None] | None = None
) -> Graph:
    """The graph an edge list describes, read from its text or from any
    iterable of its lines, such as an open file.

    Each item is split with ``str.splitlines``, so line numbers in errors are
    the same whichever form is given, and items are taken one at a time: a
    refusal at the header or at an edge past ``MAX_EDGES`` takes no item after
    the one refused.
    """
    if isinstance(lines, str):
        lines = (lines,)
    order: int | None = None
    seen: set[tuple[int, int]] = set()
    split = chain.from_iterable(map(str.splitlines, lines))
    for lineno, raw in enumerate(split, start=1):
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
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        check_edges(len(seen))
    if order is None:
        raise ValueError("missing header line 'n <order>'")
    # Graph keeps no edge order, so the set of edges read is all it needs.
    return Graph(order, seen)


def read_graph(
    path: str | os.PathLike[str], check: Callable[[int], None] | None = None
) -> Graph:
    # utf-8-sig skips a leading byte-order mark, as some editors write one.
    with open(path, encoding="utf-8-sig") as handle:
        return parse_edge_list(handle, check)


def write_graph(path: str | os.PathLike[str], g: Graph) -> None:
    lines = format_edge_list(g)
    with open(path, "w", encoding="utf-8") as handle:
        while chunk := "".join(islice(lines, _WRITE_CHUNK_LINES)):
            handle.write(chunk)


def graph_to_json(g: Graph) -> dict:
    return {"order": g.order, "edges": [list(edge) for edge in g.edges()]}
