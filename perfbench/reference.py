"""Reference answers for the output checks, sharing no code with kronwalk.

Every graph fact comes from one iteration over boolean powers of the
adjacency matrix, held as bit-packed NumPy rows.  Row ``u`` of ``W_k`` is the
set of vertices joined to ``u`` by a walk of exactly ``k`` edges, so

- the exponent is the first ``k`` with ``W_k`` all ones (the definition
  ``kronwalk.oracle_exponent`` uses),
- the union of ``W_0 .. W_k`` is a breadth-first search from every source at
  once: the diameter is the first ``k`` at which it is all ones, and the
  graph is disconnected if it stops growing first,
- the odd girth is the first odd ``k`` at which some ``W_k`` has a diagonal
  bit, and a graph is bipartite iff there is none.

For an undirected graph ``W_k`` is eventually periodic with period at most
two, so the iteration stops once ``W_k`` equals ``W_{k-2}``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import Op, Spec

INF = math.inf


@dataclass(frozen=True)
class Facts:
    order: int
    edges: int
    connected: bool
    bipartite: bool
    odd_girth: float
    diameter: float
    exponent: float
    before_exponent: np.ndarray | None  # W_{exponent-1}, to test witness pairs

    def lacks_walk(self, u: int, v: int) -> bool:
        """True iff no walk of length ``exponent - 1`` joins ``u`` and ``v``."""
        row = self.before_exponent[u]
        return not int(row[v >> 6]) >> (v & 63) & 1


def facts(g: Spec) -> Facts:
    n = g.n
    words = (n + 63) // 64
    src = [u for u, v in g.edges] + [v for u, v in g.edges if u != v]
    dst = [v for u, v in g.edges] + [u for u, v in g.edges if u != v]
    order = np.argsort(np.asarray(src, dtype=np.int64), kind="stable")
    src_sorted = np.asarray(src, dtype=np.int64)[order]
    dst_sorted = np.asarray(dst, dtype=np.int64)[order]
    has_nbr = np.zeros(n, dtype=bool)
    has_nbr[src_sorted] = True
    starts = np.searchsorted(src_sorted, np.arange(n))[has_nbr]

    full = np.zeros(words, dtype=np.uint64)
    full[:] = np.uint64(~np.uint64(0))
    if n % 64:
        full[-1] = np.uint64((1 << (n % 64)) - 1)
    diag_word = np.arange(n) >> 6
    diag_bit = (np.arange(n) & 63).astype(np.uint64)

    walk = np.zeros((n, words), dtype=np.uint64)
    walk[np.arange(n), diag_word] = np.uint64(1) << diag_bit
    reach = walk.copy()
    history = [walk]
    diameter = exponent = odd_girth = INF
    connected = None
    k = 0
    while True:
        k += 1
        nxt = np.zeros_like(walk)
        if len(dst_sorted):
            nxt[has_nbr] = np.bitwise_or.reduceat(walk[dst_sorted], starts, axis=0)
        if odd_girth == INF and k % 2 == 1:
            if ((nxt[np.arange(n), diag_word] >> diag_bit) & np.uint64(1)).any():
                odd_girth = k
        if connected is None:
            grown = reach | nxt
            if (grown == full).all():
                connected, diameter = True, k
            elif (grown == reach).all():
                connected = False
            reach = grown
        if (nxt == full).all():
            exponent = k
            # The empty walk does not count, so nothing precedes exponent 1.
            before = walk if k > 1 else np.zeros_like(walk)
            break
        if len(history) >= 2 and np.array_equal(nxt, history[-2]):
            before = None
            break
        history = [history[-1], nxt]
        walk = nxt
    if n == 1:
        connected, diameter = True, 0
    if exponent != INF and odd_girth == INF:
        # W_k is all ones for every k >= exponent, so the next odd length closes.
        odd_girth = exponent if exponent % 2 else exponent + 1
    return Facts(
        order=n,
        edges=len(g.edges),
        connected=bool(connected),
        bipartite=odd_girth == INF,
        odd_girth=odd_girth,
        diameter=diameter if connected else INF,
        exponent=exponent,
        before_exponent=before,
    )


def product(g1: Spec, g2: Spec) -> Spec:
    """Tensor product, vertex ``(a, b)`` encoded as ``a * n2 + b``."""
    n2 = g2.n
    edges = set()
    for u1, v1 in g1.edges:
        for u2, v2 in g2.edges:
            for a, b in ((u1 * n2 + u2, v1 * n2 + v2), (u1 * n2 + v2, v1 * n2 + u2)):
                edges.add((a, b) if a <= b else (b, a))
    return Spec(g1.n * n2, tuple(sorted(edges)))


def predicted_diameter(f1: Facts, f2: Facts) -> float:
    """The paper's closed form for the product diameter of two factors."""
    if not (f1.connected and f2.connected) or (f1.bipartite and f2.bipartite):
        return INF
    g1, g2 = f1.exponent, f2.exponent
    if g1 == g2:
        return g1
    if g1 > g2:
        return max(g2 + 1, f1.diameter)
    return max(g1 + 1, f2.diameter)


def _num(value) -> float:
    return INF if value == "inf" else value


class Checker:
    """Checks op outputs; caches the facts of every graph it has seen."""

    def __init__(self) -> None:
        self._facts: dict[Spec, Facts] = {}

    def facts(self, g: Spec) -> Facts:
        if g not in self._facts:
            self._facts[g] = facts(g)
        return self._facts[g]

    def check(self, op: Op, stdout: str) -> str | None:
        """None if the output is right, else what is wrong with it.

        A ``--out`` file is read from the current directory."""
        try:
            doc = json.loads(stdout)
            return getattr(self, "_" + op.kind)(op, doc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _metrics(self, op: Op, doc: dict) -> str | None:
        f = self.facts(op.graphs[0])
        want = {
            "order": f.order, "edges": f.edges, "connected": f.connected,
            "bipartite": f.bipartite, "odd_girth": f.odd_girth,
            "diameter": f.diameter, "exponent": f.exponent,
        }
        got = {key: _num(doc[key]) for key in want}
        if got != want:
            return f"metrics {got} != reference {want}"
        witness = doc["witness_pair"]
        if (witness is None) != (f.exponent == INF):
            return f"witness {witness} for exponent {f.exponent}"
        if witness is not None and not f.lacks_walk(*witness):
            return f"witness {witness} has a walk of length {f.exponent - 1}"
        l_o = _num(doc["l_o"])
        if f.bipartite:
            return None if l_o == INF else f"bipartite graph with l_o {l_o}"
        # Every odd cycle C gives 2 ecc(C) + |C| - 1 >= exponent; the shortest
        # one has ecc <= diameter.
        if l_o == INF or l_o % 2 or l_o < f.exponent:
            return f"l_o {l_o} against exponent {f.exponent}"
        if doc["l_o_exact"] and l_o > 2 * f.diameter + f.odd_girth - 1:
            return f"exact l_o {l_o} above 2 * diameter + odd girth - 1"
        return None

    def _prediction(self, g1: Spec, g2: Spec, doc: dict) -> str | None:
        f1, f2 = self.facts(g1), self.facts(g2)
        want = {"gamma1": f1.exponent, "gamma2": f2.exponent,
                "d1": f1.diameter, "d2": f2.diameter,
                "predicted": predicted_diameter(f1, f2)}
        got = {key: _num(doc[key]) for key in want}
        if got != want:
            return f"prediction {got} != reference {want}"
        bounds = doc["bounds"]
        if bounds is not None and not (
            _num(bounds["lower"]) <= got["predicted"] <= _num(bounds["upper"])
        ):
            return f"predicted {got['predicted']} outside bounds {bounds}"
        return None

    def _predict(self, op: Op, doc: dict) -> str | None:
        return self._prediction(*op.graphs, doc)

    def _product(self, op: Op, doc: dict) -> str | None:
        g1, g2 = op.graphs
        prod = product(g1, g2)
        measured = self.facts(prod).diameter
        if (doc["order"], doc["edges"], _num(doc["measured"])) != (prod.n, len(prod.edges), measured):
            return (f"product order/edges/diameter {doc['order']}/{doc['edges']}/{doc['measured']}"
                    f" != reference {prod.n}/{len(prod.edges)}/{measured}")
        if op.out is not None:
            text = Path(op.out).read_text()
            if op.out_format == "json":
                data = json.loads(text)
                written = Spec(data["order"], tuple(sorted(tuple(e) for e in data["edges"])))
            else:
                lines = [line.split() for line in text.splitlines() if line.strip()]
                written = Spec(int(lines[0][1]), tuple(sorted((int(u), int(v)) for u, v in lines[1:])))
            if written != prod:
                return f"{op.out} does not hold the product"
        return self._prediction(g1, g2, doc)

    def _verify(self, op: Op, doc: dict) -> str | None:
        asked = op.argv[op.argv.index("--claims") + 1].split(",")
        claims = doc["claims"]
        if [c["claim_id"] for c in claims] != asked:
            return f"claims {[c['claim_id'] for c in claims]} != asked {asked}"
        bad = [c["claim_id"] for c in claims if not c["pass"] or c["instances_checked"] < 1]
        if bad or not doc["pass"]:
            return f"claims failed or checked nothing: {bad}"
        return None
