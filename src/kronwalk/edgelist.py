"""Graph files: the plain-text edge list, read and written a line at a time,
and the JSON form, written an edge at a time.

The header line is ``n <order>``, with the order at most ``MAX_ORDER``; a
caller's ``check`` may refuse a smaller order too, before any edge line is
read.  A file is refused at its first edge past ``MAX_EDGES``, and no line
after it is read.  Every following non-empty line that does not start with
``#`` is ``u v`` with 0-based vertex indices; ``u u`` denotes a loop.  Each
undirected edge must appear exactly once, so a repeated edge (in either
orientation) is an error.  Lines are numbered as ``str.splitlines`` splits
the text, so a form feed or a U+2028 inside a file line starts a new one.

A file may also be written in JSON form, ``{"edges": [[u, v], ...],
"order": n}`` on one line with its keys sorted, the edges in ``g.edges()``
order: the bytes of ``json.dumps(graph_to_json(g), sort_keys=True)`` and a
newline, which ``--format json`` asks for.  Only the edge list is read back.

Neither direction holds a file's whole text: :func:`read_graph` keeps only
the set of edges read so far, from which the ``Graph`` is built, and
:func:`write_graph` writes the pieces that :func:`format_edge_list` or
:func:`format_json` yields in chunks, whichever format it is given.
:func:`graph_to_json` gives the JSON form as a dict, which ``generate``
prints and counterexamples carry.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice

from .graphs import Graph, check_edges, check_order

# Lines joined into one write: small files take one write, and a large one
# never holds more than this many lines, or JSON edges, as one string.
_WRITE_CHUNK_LINES = 4096


def format_edge_list(g: Graph) -> Iterator[str]:
    """Yield the lines of ``g``'s edge list, each ending in a newline: the
    header, then the edges in ``g.edges()`` order."""
    yield f"n {g.order}\n"
    for u, v in g.edges():
        yield f"{u} {v}\n"


def format_json(g: Graph) -> Iterator[str]:
    """Yield ``g``'s JSON file form a piece at a time: the opening, one piece
    per edge in ``g.edges()`` order, then the order and a newline."""
    yield '{"edges": ['
    for i, (u, v) in enumerate(g.edges()):
        yield f", [{u}, {v}]" if i else f"[{u}, {v}]"
    yield f'], "order": {g.order}}}\n'


_FORMATS = {"edgelist": format_edge_list, "json": format_json}


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


def write_graph(path: str | os.PathLike[str], g: Graph, fmt: str = "edgelist") -> None:
    """Write ``g`` to ``path`` as an edge list or, with ``fmt="json"``, in JSON
    form; any other ``fmt`` is refused before the file is opened."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown graph format {fmt!r}; known: {', '.join(_FORMATS)}")
    pieces = _FORMATS[fmt](g)
    with open(path, "w", encoding="utf-8") as handle:
        while chunk := "".join(islice(pieces, _WRITE_CHUNK_LINES)):
            handle.write(chunk)


def graph_to_json(g: Graph) -> dict:
    return {"order": g.order, "edges": [list(edge) for edge in g.edges()]}
