"""Checker registry: one executable checker per verified claim.

A claim is a head, an optional draw, and a check over the instance's graphs.
An instance is a tuple of graphs, one for a single-graph claim and two for a
product claim.  The head is a function of the :class:`EnsembleSpec` alone
and gives the claim's fixed instances: exhaustive sweeps, pair pools and
family grids.  The draw gives one random instance from a seeded
``random.Random``, and the stream takes ``spec.random_count`` of them after
the head; a claim without a draw checks its head alone.  :func:`_claim`
registers the three, and is the one place a stream is built.

A check takes the instance's graphs as its arguments and derives every
hypothesis from them (connectivity, primitivity, family shape, ...).  It
returns None only when the instance passes, and refuses an instance outside
the claim's hypotheses by raising :class:`~kronwalk.graphs.OutsideHypotheses`,
as the predictors do.  The registry's ``Claim.check`` takes the instance
tuple, passes its graphs to the check, and reads this refusal, and only this
one, as None; that makes counterexample minimization safe, because a
mutation that breaks a hypothesis simply stops failing.  Any other error, a
plain ``ValueError`` included, propagates, so a broken route cannot pass as
an instance outside the hypotheses.

An equality claim is a closed form plus a named brute force: it registers
through :func:`_closed_form_claim`, which takes the brute force, the head
and the draw, compares the two routes and builds the failure.  Ground truth
for product claims is always BFS or boolean powers on the explicitly
constructed product (:func:`_product_diameter`, :func:`_product_connected`,
:func:`_product_exponent`), never the formula under test or the parity scan
behind the factor profiles.  A closed form's hypotheses are its predictor's
refusals, which the harness does not check again; the one hypothesis a
profile cannot show, a loop on every vertex of a ``CorLoops`` factor, is the
closed form's own refusal.

Every check reads the profile and the walk levels of an instance graph
through a memo that :func:`run_campaign` opens for each claim
(:func:`memo_profiles`), so a pair pool scans each of its graphs once; only
a built product is scanned directly, and a check called on its own computes
afresh.

The walk lemmas are checked on those levels, as bitset rows: a product walk
is a pair of factor walks of the same length, so level ``k`` of a product's
walk scan holds the Kronecker product of its factors' level-``k`` rows.  No
checker builds an n x n table of walk lengths or distances, multiplies
matrices or lays out Kronecker bits: those rules are ``boolmat``'s.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from ..boolmat import adjacency, bool_powers, kron_lift, kron_matrix, oracle_exponent
from ..extlen import ExtLen, is_finite
from ..graphs import (
    Graph,
    OutsideHypotheses,
    _require,
    make_complete,
    make_complete_multipartite,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
)
from ..kronecker import kronecker_product, product_diameter, product_is_connected
from ..predict import (
    diameter_bounds,
    predict_all_loops,
    predict_diameter,
    predict_family_product,
    predict_k_plus_factor,
    predict_multipartite_factor,
)
from ..walks import (
    ParityProfile,
    _reach,
    diameter,
    is_connected,
    summarize,
    walk_levels,
)
from ..cycles import l_o_bound
from .ensembles import (
    RANDOM_ORDER,
    RANDOM_SINGLE_ORDER,
    EnsembleSpec,
    connected_graphs,
    random_connected,
    with_all_loops,
)

Instance = tuple[Graph, ...]
Head = Callable[[EnsembleSpec], Iterable[Instance]]
Draw = Callable[[random.Random], Instance]
Levels = list[tuple[int, ...]]


class Failure(NamedTuple):
    expected: object
    actual: object
    detail: str


# A dataclass, not a named tuple: the benchmark's tracer swaps in traced
# ``check`` and ``instances`` callables through ``dataclasses.replace``.
@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    instances: Callable[[EnsembleSpec, random.Random], Iterator[Instance]]
    check: Callable[[Instance], Failure | None]


REGISTRY: dict[str, Claim] = {}


def _claim(
    claim_id: str, description: str, head: Head, draw: Draw | None = None
) -> Callable:
    """Register a check over an instance's graphs.

    The claim's stream is ``head(spec)``, then ``spec.random_count`` results
    of ``draw(rng)`` when a draw is given.  The registered check is the one
    place a refusal is read, as None.
    """

    def instances(spec: EnsembleSpec, rng: random.Random) -> Iterator[Instance]:
        yield from head(spec)
        if draw is not None:
            for _ in range(spec.random_count):
                yield draw(rng)

    def register(check: Callable[..., Failure | None]) -> Callable:
        def checked(instance: Instance) -> Failure | None:
            try:
                return check(*instance)
            except OutsideHypotheses:
                return None

        REGISTRY[claim_id] = Claim(claim_id, description, instances, checked)
        return check

    return register


def _closed_form_claim(
    claim_id: str,
    description: str,
    truth: Callable[..., object],
    head: Head,
    draw: Draw | None = None,
) -> Callable:
    """Register an equality claim: a closed form checked against a brute force.

    The check compares the closed form's value with ``truth`` on the same
    graphs; the closed form refuses an instance as every check does.
    """

    def register(closed_form: Callable[..., object]) -> Callable:
        def check(*graphs: Graph) -> Failure | None:
            expected = closed_form(*graphs)
            actual = truth(*graphs)
            if actual != expected:
                return Failure(expected, actual, "closed form differs from brute force")
            return None

        _claim(claim_id, description, head, draw)(check)
        return closed_form

    return register


# The live memo of ``_summarize`` and ``_walk_levels``, keyed by route and
# graph; None outside ``memo_profiles``.
_memo: dict[tuple[Callable, Graph], object] | None = None


@contextmanager
def memo_profiles() -> Iterator[None]:
    """Within the block, ``_summarize`` and ``_walk_levels`` run once per graph."""
    global _memo
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def _recall(route: Callable, g: Graph):
    if _memo is None:
        return route(g)
    key = (route, g)
    if key not in _memo:
        _memo[key] = route(g)
    return _memo[key]


# Each reads the name this module binds at call time, so a route swapped in
# for a mutant check is the one that runs.
def _summarize(g: Graph) -> ParityProfile:
    return _recall(summarize, g)


def _walk_levels(g: Graph) -> Levels:
    return _recall(walk_levels, g)


def _level(levels: Levels, k: int) -> tuple[int, ...]:
    """``W_k`` of a scan: past its last level the levels repeat with period two."""
    last = len(levels) - 1
    return levels[k if k <= last else last - (k - last) % 2]


def _product_diameter(g1: Graph, g2: Graph) -> ExtLen:
    return diameter(kronecker_product(g1, g2))


def _product_connected(g1: Graph, g2: Graph) -> bool:
    return is_connected(kronecker_product(g1, g2))


def _product_exponent(g1: Graph, g2: Graph) -> ExtLen:
    return oracle_exponent(kronecker_product(g1, g2))


# ---------------------------------------------------------------------------
# Structure recognizers (hypothesis gates work on the graphs alone)


def _signature(g: Graph) -> list[tuple[int, bool]]:
    return sorted((g.degree(v), g.has_loop(v)) for v in range(g.order))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism by trying every relabeling; meant for small orders."""
    if g.order != h.order or _signature(g) != _signature(h):
        return False
    edges, target = list(g.edges()), set(h.edges())
    return any(
        all((min(p[u], p[v]), max(p[u], p[v])) in target for u, v in edges)
        for p in itertools.permutations(range(g.order))
    )


def complete_multipartite_parts(g: Graph) -> list[int] | None:
    """Part sizes if ``g`` is complete multipartite and loopless, else None.

    A part is a group of vertices with equal neighbours, which must be
    exactly the vertices outside the group (so no vertex has a loop).
    """
    parts: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.order):
        parts.setdefault(g.neighbors(v), []).append(v)
    for nbrs, part in parts.items():
        if nbrs != tuple(v for v in range(g.order) if v not in part):
            return None
    return [len(part) for part in parts.values()]


# ---------------------------------------------------------------------------
# Heads and draws


def _pair_pool(spec: EnsembleSpec, allow_loops: bool = True) -> list[Graph]:
    return list(
        connected_graphs(min(3, spec.exhaustive_order), allow_loops, min_order=2)
    )


def _pairs(spec: EnsembleSpec) -> Iterator[Instance]:
    """Every ordered pair of the pair pool."""
    return itertools.product(_pair_pool(spec), repeat=2)


def _random_pair(rng: random.Random) -> Instance:
    return (random_connected(rng, RANDOM_ORDER), random_connected(rng, RANDOM_ORDER))


def _singles(spec: EnsembleSpec) -> Iterator[Instance]:
    """One graph of each connected class: with loops up to the looped cap,
    and loopless one order above it."""
    # The looped sweep holds every loopless class of its orders, so the
    # loopless sweep adds only the order above the looped cap.
    top = spec.exhaustive_loopless_order
    graphs = itertools.chain(
        connected_graphs(spec.exhaustive_order, allow_loops=True),
        connected_graphs(top, allow_loops=False, min_order=top),
    )
    return ((g,) for g in graphs)


def _random_single(rng: random.Random) -> Instance:
    return (random_connected(rng, RANDOM_ORDER),)


def _loopless_singles(family: list[Graph], spec: EnsembleSpec) -> Iterator[Instance]:
    """``family``, then one graph of each loopless connected class up to the
    loopless cap."""
    loopless = connected_graphs(spec.exhaustive_loopless_order, allow_loops=False)
    return ((g,) for g in itertools.chain(family, loopless))


def _h_grid(span: int = 4) -> list[Graph]:
    return [make_h_family(p + k, p) for p in (3, 4, 5) for k in range(1, span + 1)]


def _f_grid(span: int = 4) -> list[Graph]:
    return [make_f_family(p + k, p) for p in (3, 5) for k in range(1, span + 1)]


# ---------------------------------------------------------------------------
# Checkers


@_closed_form_claim(
    "Prop1.1",
    "exponent of a product of primitive factors is the larger factor exponent",
    _product_exponent,
    _pairs,
    _random_pair,
)
def _larger_exponent(g1: Graph, g2: Graph) -> ExtLen:
    gamma = max(_summarize(g1).exponent, _summarize(g2).exponent)
    _require(is_finite(gamma), "a factor is not primitive")
    return gamma


@_claim(
    "Lem2.2",
    "per-pair exponent marks the onset of all-ones entries in adjacency powers",
    _singles,
    _random_single,
)
def _check_local_exponent_onset(g: Graph) -> Failure | None:
    # Level k of the walk scan is A^k, so a pair's walk lengths, and with
    # them its local exponent, are those of the powers; A^k within A^(k+2)
    # makes every length from the local exponent on a walk length.
    levels = _walk_levels(g)
    powers = list(itertools.islice(bool_powers(adjacency(g)), 2 * g.order + 2))
    for k, power in enumerate(powers, 1):
        if _level(levels, k) != power:
            return Failure(f"A^{k}", f"level {k}", "walk level differs from the power")
    for k, (power, later) in enumerate(zip(powers, powers[2:]), 1):
        if any(row & ~above for row, above in zip(power, later)):
            return Failure(True, False, f"a walk of length {k} has no extension by two")
    return None


# product_is_connected refuses a disconnected factor.
_closed_form_claim(
    "Lem2.4",
    "product of connected factors is connected iff a factor has an odd cycle",
    _product_connected,
    _pairs,
    _random_pair,
)(lambda g1, g2: product_is_connected(_summarize(g1), _summarize(g2)))


@_claim(
    "Lem2.5",
    "same-parity factor walks combine into a product walk of the longer length",
    _pairs,
    _random_pair,
)
def _check_walk_combination(g1: Graph, g2: Graph) -> Failure | None:
    # Level k holds every walk of k's parity up to length k, so factor walks
    # of one parity and lengths at most k combine iff the Kronecker product
    # of the factor levels lies within the product's level.
    scans = (_walk_levels(g1), _walk_levels(g2), walk_levels(kronecker_product(g1, g2)))
    n2 = g2.order
    for k in range(1, max(map(len, scans))):
        w1, w2, product = (_level(scan, k) for scan in scans)
        for x, (want, have) in enumerate(zip(kron_matrix(w1, w2), product)):
            if want & ~have:
                y = (want & ~have).bit_length() - 1
                pair = f"{divmod(x, n2)} -> {divmod(y, n2)}"
                detail = f"no short same-parity product walk for {pair}"
                return Failure(f"<= {k}", f"> {k}", detail)
    return None


@_claim(
    "Lem2.6",
    "a primitive graph has parity-extremal pairs at its exponent",
    _singles,
    _random_single,
)
def _check_parity_extremal_pairs(g: Graph) -> Failure | None:
    s = _summarize(g)
    gamma = s.exponent
    _require(g.order >= 2 and is_finite(gamma), "trivial or not primitive")
    # The larger span is gamma + 1, so the other parity reaches it; a pair's
    # shortest walk of gamma's parity has length gamma iff that span is gamma.
    if min(s.odd_diameter, s.even_diameter) != gamma:
        parity = "odd" if gamma % 2 else "even"
        return Failure(True, False, f"no shortest {parity} walk of length {gamma}")
    return None


@_claim(
    "Lem2.7",
    "product distance is at least the smaller mixed-parity factor walk length",
    _pairs,
    _random_pair,
)
def _check_mixed_parity_lower_bound(g1: Graph, g2: Graph) -> Failure | None:
    # A product pair within distance k needs, in one factor, a walk of one
    # parity and length at most k and, in the other, one of the other
    # parity: bits of (O1 x J | J x E2) & (E1 x J | J x O2) for the latest
    # odd and positive even factor levels O and E up to k, J all ones.
    levels1, levels2 = _walk_levels(g1), _walk_levels(g2)
    n1, n2 = g1.order, g2.order
    # A scan ends on the two levels that repeat from there on, so a factor is
    # primitive iff every row of its last two levels is full.
    for n, levels in ((n1, levels1), (n2, levels2)):
        full = all(row == (1 << n) - 1 for row in levels[-2] + levels[-1])
        _require(full, "a factor is not primitive")
    latest = [((0,) * (n1 * n2),) * 2] * 2  # even, odd; step k renews k's parity
    for k, reached in enumerate(_reach(kronecker_product(g1, g2))):
        if k:
            latest[k % 2] = kron_lift(_level(levels1, k), _level(levels2, k))
        (e1, e2), (o1, o2) = latest
        allowed = [(o | f) & (e | p) for o, e, p, f in zip(o1, e1, o2, e2)]
        for x, (row, ok) in enumerate(zip(reached, allowed)):
            close = row & ~ok & ~(1 << x)
            if close:
                pair = f"{divmod(x, n2)} -> {divmod(close.bit_length() - 1, n2)}"
                return Failure(f"> {k}", k, f"product pair {pair} too close")
    return None


@_claim(
    "Thm3.1",
    "exponent is at most the odd-cycle eccentricity bound",
    _singles,
    lambda rng: (random_connected(rng, RANDOM_SINGLE_ORDER),),
)
def _check_l_o_bound(g: Graph) -> Failure | None:
    # A lone looped vertex has exponent 1 but cycle bound 0; the claim is
    # about nontrivial graphs.
    s = _summarize(g)
    _require(g.order >= 2 and s.connected, "trivial or not connected")
    gamma = s.exponent
    report = l_o_bound(g, s)
    # Truncated enumeration still yields a valid upper bound.
    if gamma > report.l_o:
        return Failure(f"<= {report.l_o}", gamma, "exponent exceeds the cycle bound")
    return None


@_claim(
    "Cor2.10",
    "a connected graph with a loop has exponent at most twice its diameter",
    _singles,
    _random_single,
)
def _check_loop_diameter_bound(g: Graph) -> Failure | None:
    s = _summarize(g)
    # The lone looped vertex has exponent 1 and diameter 0.
    _require(g.order >= 2 and s.connected, "trivial or not connected")
    _require(any(g.loop_flags), "no loop")
    gamma = s.exponent
    bound = 2 * s.diameter
    if gamma > bound:
        return Failure(f"<= {bound}", gamma, "exponent exceeds twice the diameter")
    return None


@_claim(
    "Cor3.1",
    "exponent <= 2n - p - 1 for odd girth p, extremal only for the "
    "path-plus-odd-cycle family",
    lambda spec: _loopless_singles(_f_grid(), spec),
    lambda rng: (random_connected(rng, RANDOM_ORDER, loops=False),),
)
def _check_odd_girth_bound(g: Graph) -> Failure | None:
    s = _summarize(g)
    # A loop gives odd girth 1.
    _require(is_finite(s.exponent) and s.odd_girth >= 3, "not primitive, or a loop")
    p = int(s.odd_girth)
    n = g.order
    gamma = s.exponent
    bound = 2 * n - p - 1
    if gamma > bound:
        return Failure(f"<= {bound}", gamma, "exponent exceeds 2n - p - 1")
    if gamma == bound:
        extremal = make_cycle(p) if n == p else make_f_family(n, p)
        if not are_isomorphic(g, extremal):
            return Failure(
                "isomorphic to the path-plus-odd-cycle family",
                "not isomorphic",
                "equality attained off the extremal family",
            )
    return None


@_closed_form_claim(
    "Cor3.2",
    "the path-plus-clique family has exponent 2n - 2p + 2",
    lambda g: _summarize(g).exponent,
    lambda spec: _loopless_singles(_h_grid(), spec),
)
def _clique_family_exponent(g: Graph) -> int:
    n = g.order
    p = next((q for q in range(3, n) if are_isomorphic(g, make_h_family(n, q))), None)
    _require(p is not None, "not a path-plus-clique graph")
    return 2 * n - 2 * p + 2


@_claim(
    "Thm3.2",
    "product diameter lies within the exponent and diameter sandwich bounds",
    _pairs,
    _random_pair,
)
def _check_sandwich_bounds(g1: Graph, g2: Graph) -> Failure | None:
    _require(g1.order >= 2 and g2.order >= 2, "predict prints no bounds")
    s1, s2 = _summarize(g1), _summarize(g2)
    d = _product_diameter(g1, g2)
    b = diameter_bounds(s1, s2)
    if not b.lower <= d <= b.upper:
        return Failure(f"in [{b.lower}, {b.upper}]", d, "outside the sandwich bounds")
    if s1.bipartite != s2.bipartite and d != b.upper:
        return Failure(b.upper, d, "upper bound not attained with a bipartite factor")
    return None


@_closed_form_claim(
    "Thm3.3",
    "product diameter equals the three-case exponent formula",
    _product_diameter,
    lambda spec: itertools.product(
        connected_graphs(
            min(4, spec.exhaustive_loopless_order), allow_loops=False, min_order=2
        ),
        repeat=2,
    ),
    _random_pair,
)
def _main_formula(g1: Graph, g2: Graph) -> ExtLen:
    return predict_diameter(_summarize(g1), _summarize(g2)).value


@_closed_form_claim(
    "Thm3.4",
    "product diameter is 1 exactly when both factors are complete with all loops",
    lambda g1, g2: _product_diameter(g1, g2) == 1,
    _pairs,
)
def _both_k_plus(g1: Graph, g2: Graph) -> bool:
    _require(g1.order >= 2 and g2.order >= 2, "a factor of order one")
    return _summarize(g1).is_k_plus and _summarize(g2).is_k_plus


_K_PLUS = [make_complete(m, with_loops=True) for m in (2, 3, 4)]


@_closed_form_claim(
    "Thm3.5",
    "a complete-all-loops factor gives diameter d(G), or 2 when d(G) = 1",
    _product_diameter,
    lambda spec: itertools.product(_K_PLUS, _pair_pool(spec)),
    lambda rng: (rng.choice(_K_PLUS), random_connected(rng, RANDOM_ORDER)),
)
def _k_plus_factor(g1: Graph, g2: Graph) -> ExtLen:
    return predict_k_plus_factor(_summarize(g1), _summarize(g2))


_MULTIPARTITE = [
    make_complete_multipartite(parts)
    for parts in (
        [1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2], [3, 1, 1], [1, 1, 1, 1], [2, 1, 1, 1]
    )
]


@_closed_form_claim(
    "ThmMultipartite",
    "a complete multipartite factor on three or more parts follows the "
    "small-diameter closed form",
    _product_diameter,
    lambda spec: itertools.product(_MULTIPARTITE, _pair_pool(spec)),
    lambda rng: (rng.choice(_MULTIPARTITE), random_connected(rng, RANDOM_ORDER)),
)
def _multipartite_factor(h: Graph, g: Graph) -> ExtLen:
    parts = complete_multipartite_parts(h)
    _require(parts is not None, "first factor: not complete multipartite")
    return predict_multipartite_factor(_summarize(g), parts)


_FAMILIES = _h_grid(span=3) + _f_grid(span=3)
_BIPARTITE = [
    *map(make_path, range(2, 6)), make_cycle(4), make_cycle(6),
    make_complete_multipartite([1, 3]),
]


@_closed_form_claim(
    "CorHF",
    "factors with exponent exactly twice their diameter follow the family "
    "closed form",
    _product_diameter,
    lambda spec: itertools.chain(
        itertools.product(_FAMILIES, _BIPARTITE), itertools.product(_FAMILIES, repeat=2)
    ),
)
def _family_products(g: Graph, h: Graph) -> ExtLen:
    return predict_family_product(_summarize(g), _summarize(h))


@_closed_form_claim(
    "CorLoops",
    "product of all-loops factors has diameter max(d1, d2)",
    _product_diameter,
    # Adding every loop merges the looped classes, so the head takes the
    # loopless ones.
    lambda spec: itertools.product(
        map(with_all_loops, _pair_pool(spec, allow_loops=False)), repeat=2
    ),
    lambda rng: tuple(map(with_all_loops, _random_pair(rng))),
)
def _all_loops(g1: Graph, g2: Graph) -> ExtLen:
    for label, g in (("first", g1), ("second", g2)):
        _require(all(g.loop_flags), f"{label} factor: every vertex must have a loop")
    return predict_all_loops(_summarize(g1), _summarize(g2))


@_closed_form_claim(
    "CorK2",
    "exponent equals the diameter of the product with a single edge, minus one",
    lambda g: _product_diameter(g, make_complete(2)) - 1,
    _singles,
    _random_single,
)
def _double_cover_exponent(g: Graph) -> ExtLen:
    gamma = _summarize(g).exponent
    _require(g.order >= 2 and is_finite(gamma), "trivial or not primitive")
    return gamma


@_closed_form_claim(
    "CorCycles",
    "products of odd cycles with cycles and paths match the closed forms",
    _product_diameter,
    lambda spec: (
        (make_cycle(m), h)
        for m in (3, 5, 7)
        for h in [*map(make_cycle, range(3, 8)), *map(make_path, range(2, 8))]
    ),
)
def _cycle_products(g1: Graph, g2: Graph) -> ExtLen:
    m, n = g1.order, g2.order
    odd_cycle = m >= 3 and m % 2 == 1 and are_isomorphic(g1, make_cycle(m))
    _require(odd_cycle, "first factor: not an odd cycle")
    if n >= 3 and are_isomorphic(g2, make_cycle(n)):
        if n % 2 == 0:
            return max(m, n // 2)
        if m == n:
            return m - 1
        if m > n:
            return max(n, (m - 1) // 2)
        return max(m, (n - 1) // 2)
    path = n >= 2 and are_isomorphic(g2, make_path(n))
    _require(path, "second factor: not a cycle or a path")
    return max(m, n - 1)


@_closed_form_claim(
    "ParityRoute",
    "product diameter read off the factors' parity profiles matches BFS",
    _product_diameter,
    _pairs,
    _random_pair,
)
def _parity_route(g1: Graph, g2: Graph) -> ExtLen:
    # The route `product` prints as its measured diameter.
    return product_diameter(_summarize(g1), _summarize(g2))


CLAIM_IDS: tuple[str, ...] = tuple(REGISTRY)
