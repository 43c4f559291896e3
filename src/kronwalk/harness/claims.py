"""Checker registry: one executable checker per verified claim.

Each claim pairs a deterministic instance stream with a self-contained
check.  A check derives every hypothesis from the instance graphs
themselves (connectivity, primitivity, family shape, ...) and returns
``None`` both when the instance passes and when it falls outside the
claim's hypotheses; that makes counterexample minimization safe, because a
mutation that breaks a hypothesis simply stops failing.

An equality claim is a closed form plus a named brute force: it registers
through :func:`_closed_form_claim`, which compares the two and builds the
failure.  Ground truth for product claims is always BFS or boolean powers on
the explicitly constructed product (:func:`_product_diameter`,
:func:`_product_connected`, :func:`_product_exponent`), never the formula
under test or the parity scan behind the factor profiles.  A closed form's
hypotheses are its predictor's refusals: the harness does not check them
again, and an :class:`~kronwalk.graphs.OutsideHypotheses` from the predictor
puts the instance outside the claim.  Any other error, a plain
``ValueError`` included, propagates, so a broken route cannot pass as an
instance outside the hypotheses.  The one hypothesis a profile cannot show,
a loop on every vertex of a ``CorLoops`` factor, is the closed form's own
refusal.

The pair checkers read the profile and the walk levels of each factor
through a memo that :func:`run_campaign` opens for each claim
(:func:`memo_profiles`), so a pair pool scans each of its graphs once; a
check called on its own computes afresh.

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

from ..boolmat import BoolMatrix, adjacency, bool_powers, kron_lift, kron_matrix
from ..boolmat import oracle_exponent
from ..extlen import ExtLen, is_finite
from ..graphs import (
    Graph,
    OutsideHypotheses,
    is_k_plus,
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


def _claim(claim_id: str, description: str, instances) -> Callable:
    def register(check: Callable[[Instance], Failure | None]) -> Callable:
        REGISTRY[claim_id] = Claim(claim_id, description, instances, check)
        return check

    return register


def _closed_form_claim(claim_id: str, description: str, instances, truth) -> Callable:
    """Register an equality claim: a closed form checked against a brute force.

    The check compares the closed form's value with ``truth`` on the same
    instance.  None or an ``OutsideHypotheses`` from the closed form (how a
    predictor refuses an instance) puts the instance outside the hypotheses;
    any other error propagates, and ``truth``, whose size guards raise a
    plain ``ValueError``, runs outside the ``try``.
    """

    def register(closed_form: Callable[..., object]) -> Callable:
        def check(instance: Instance) -> Failure | None:
            try:
                expected = closed_form(*instance)
            except OutsideHypotheses:
                return None
            if expected is None:
                return None
            actual = truth(*instance)
            if actual != expected:
                return Failure(expected, actual, "closed form differs from brute force")
            return None

        _claim(claim_id, description, instances)(check)
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


# The factors of a pair instance recur across a pool's pairs, so the pair
# checkers read them through the memo; a single-graph checker reads its graph
# once and calls the route directly.  Each reads the name this module binds at
# call time, so a route swapped in for a mutant check is the one that runs.
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
# Instance streams


def _stream(
    head: Iterable[Instance], spec: EnsembleSpec, draw: Callable[[], Instance]
) -> Iterator[Instance]:
    """The fixed instances, then ``spec.random_count`` draws."""
    yield from head
    for _ in range(spec.random_count):
        yield draw()


def _square(pool: Iterable[Graph]) -> Iterator[Instance]:
    """Every ordered pair from ``pool``."""
    return itertools.product(pool, repeat=2)


def _singles(graphs: Iterable[Graph]) -> Iterator[Instance]:
    return ((g,) for g in graphs)


def _pair_pool(spec: EnsembleSpec, allow_loops: bool = True) -> list[Graph]:
    return list(
        connected_graphs(min(3, spec.exhaustive_order), allow_loops, min_order=2)
    )


def _random_pair(rng: random.Random) -> Instance:
    return (random_connected(rng, RANDOM_ORDER), random_connected(rng, RANDOM_ORDER))


def _pair_instances(spec: EnsembleSpec, rng: random.Random) -> Iterator[Instance]:
    return _stream(_square(_pair_pool(spec)), spec, lambda: _random_pair(rng))


def _single_instances(
    spec: EnsembleSpec,
    rng: random.Random,
    loops: bool = True,
    max_random_order: int = RANDOM_ORDER,
) -> Iterator[Instance]:
    # The looped sweep holds every loopless class of its orders, so with loops
    # the loopless sweep adds only the order above the looped cap.
    top = spec.exhaustive_loopless_order
    head = connected_graphs(top, allow_loops=False, min_order=top if loops else 1)
    if loops:
        head = itertools.chain(
            connected_graphs(spec.exhaustive_order, allow_loops=True), head
        )
    return _stream(
        _singles(head),
        spec,
        lambda: (random_connected(rng, max_random_order, loops=loops),),
    )


def _family_grid(kinds: str = "HF", span: int = 4) -> list[Graph]:
    grid: list[Graph] = []
    if "H" in kinds:
        for p in (3, 4, 5):
            grid.extend(make_h_family(p + k, p) for k in range(1, span + 1))
    if "F" in kinds:
        for p in (3, 5):
            grid.extend(make_f_family(p + k, p) for k in range(1, span + 1))
    return grid


def _bipartite_pool() -> list[Graph]:
    pool = [make_path(n) for n in range(2, 6)]
    pool.extend(make_cycle(n) for n in (4, 6))
    pool.append(make_complete_multipartite([1, 3]))
    return pool


# ---------------------------------------------------------------------------
# Checkers


@_closed_form_claim(
    "Prop1.1",
    "exponent of a product of primitive factors is the larger factor exponent",
    _pair_instances,
    _product_exponent,
)
def _larger_exponent(g1: Graph, g2: Graph) -> ExtLen | None:
    gamma = max(_summarize(g1).exponent, _summarize(g2).exponent)
    return gamma if is_finite(gamma) else None  # None: a factor is not primitive


@_claim(
    "Lem2.2",
    "per-pair exponent marks the onset of all-ones entries in adjacency powers",
    _single_instances,
)
def _check_local_exponent_onset(instance: Instance) -> Failure | None:
    # Level k of the walk scan is A^k, so a pair's walk lengths, and with
    # them its local exponent, are those of the powers; A^k within A^(k+2)
    # makes every length from the local exponent on a walk length.
    (g,) = instance
    levels = walk_levels(g)
    powers = list(itertools.islice(bool_powers(adjacency(g)), 2 * g.order + 2))
    for k, power in enumerate(powers, 1):
        if _level(levels, k) != power.rows:
            return Failure(f"A^{k}", f"level {k}", "walk level differs from the power")
    for k, (power, later) in enumerate(zip(powers, powers[2:]), 1):
        if any(row & ~above for row, above in zip(power.rows, later.rows)):
            return Failure(True, False, f"a walk of length {k} has no extension by two")
    return None


# product_is_connected refuses a disconnected factor.
_closed_form_claim(
    "Lem2.4",
    "product of connected factors is connected iff a factor has an odd cycle",
    _pair_instances,
    _product_connected,
)(lambda g1, g2: product_is_connected(_summarize(g1), _summarize(g2)))


@_claim(
    "Lem2.5",
    "same-parity factor walks combine into a product walk of the longer length",
    _pair_instances,
)
def _check_walk_combination(instance: Instance) -> Failure | None:
    # Level k holds every walk of k's parity up to length k, so factor walks
    # of one parity and lengths at most k combine iff the Kronecker product
    # of the factor levels lies within the product's level.
    g1, g2 = instance
    scans = (_walk_levels(g1), _walk_levels(g2), walk_levels(kronecker_product(g1, g2)))
    n1, n2 = g1.order, g2.order
    for k in range(1, max(map(len, scans))):
        w1, w2, product = (_level(scan, k) for scan in scans)
        combined = kron_matrix(BoolMatrix(n1, w1), BoolMatrix(n2, w2)).rows
        for x, (want, have) in enumerate(zip(combined, product)):
            if want & ~have:
                y = (want & ~have).bit_length() - 1
                pair = f"{divmod(x, n2)} -> {divmod(y, n2)}"
                detail = f"no short same-parity product walk for {pair}"
                return Failure(f"<= {k}", f"> {k}", detail)
    return None


@_claim(
    "Lem2.6",
    "a primitive graph has parity-extremal pairs at its exponent",
    _single_instances,
)
def _check_parity_extremal_pairs(instance: Instance) -> Failure | None:
    (g,) = instance
    if g.order < 2:
        return None  # trivial
    s = summarize(g)
    gamma = s.exponent
    if not is_finite(gamma):
        return None  # not primitive
    # The larger span is gamma + 1, so the other parity reaches it; a pair's
    # shortest walk of gamma's parity has length gamma iff that span is gamma.
    if min(s.odd_diameter, s.even_diameter) != gamma:
        parity = "odd" if gamma % 2 else "even"
        return Failure(True, False, f"no shortest {parity} walk of length {gamma}")
    return None


@_claim(
    "Lem2.7",
    "product distance is at least the smaller mixed-parity factor walk length",
    _pair_instances,
)
def _check_mixed_parity_lower_bound(instance: Instance) -> Failure | None:
    # A product pair within distance k needs, in one factor, a walk of one
    # parity and length at most k and, in the other, one of the other
    # parity: bits of (O1 x J | J x E2) & (E1 x J | J x O2) for the latest
    # odd and positive even factor levels O and E up to k, J all ones.
    g1, g2 = instance
    levels1, levels2 = _walk_levels(g1), _walk_levels(g2)
    n1, n2 = g1.order, g2.order
    # A scan ends on the two levels that repeat from there on, so a factor is
    # primitive iff every row of its last two levels is full.
    for n, levels in ((n1, levels1), (n2, levels2)):
        if any(row != (1 << n) - 1 for row in levels[-2] + levels[-1]):
            return None  # a factor is not primitive
    latest = [((0,) * (n1 * n2),) * 2] * 2  # even, odd; step k renews k's parity
    for k, reached in enumerate(_reach(kronecker_product(g1, g2))):
        if k:
            w1, w2 = _level(levels1, k), _level(levels2, k)
            latest[k % 2] = kron_lift(BoolMatrix(n1, w1), BoolMatrix(n2, w2))
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
    lambda spec, rng: _single_instances(
        spec, rng, max_random_order=RANDOM_SINGLE_ORDER
    ),
)
def _check_l_o_bound(instance: Instance) -> Failure | None:
    (g,) = instance
    # A lone looped vertex has exponent 1 but cycle bound 0; the claim is
    # about nontrivial graphs.
    s = summarize(g)
    if g.order < 2 or not s.connected:
        return None
    gamma = s.exponent
    report = l_o_bound(g, s)
    # Truncated enumeration still yields a valid upper bound.
    if gamma > report.l_o:
        return Failure(f"<= {report.l_o}", gamma, "exponent exceeds the cycle bound")
    return None


@_claim(
    "Cor2.10",
    "a connected graph with a loop has exponent at most twice its diameter",
    _single_instances,
)
def _check_loop_diameter_bound(instance: Instance) -> Failure | None:
    (g,) = instance
    if g.order < 2:
        return None  # the lone looped vertex has exponent 1 and diameter 0
    s = summarize(g)
    if not s.connected or not any(g.has_loop(v) for v in range(g.order)):
        return None
    gamma = s.exponent
    bound = 2 * s.diameter
    if gamma > bound:
        return Failure(f"<= {bound}", gamma, "exponent exceeds twice the diameter")
    return None


@_claim(
    "Cor3.1",
    "exponent <= 2n - p - 1 for odd girth p, extremal only for the "
    "path-plus-odd-cycle family",
    lambda spec, rng: itertools.chain(
        _singles(_family_grid(kinds="F")), _single_instances(spec, rng, loops=False)
    ),
)
def _check_odd_girth_bound(instance: Instance) -> Failure | None:
    (g,) = instance
    s = summarize(g)
    if not is_finite(s.exponent) or s.odd_girth < 3:
        return None  # not primitive, or a loop gives odd girth 1
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
    lambda spec, rng: _singles(
        itertools.chain(
            _family_grid(kinds="H"),
            connected_graphs(spec.exhaustive_loopless_order, allow_loops=False),
        )
    ),
    lambda g: summarize(g).exponent,
)
def _clique_family_exponent(g: Graph) -> int | None:
    n = g.order
    p = next((q for q in range(3, n) if are_isomorphic(g, make_h_family(n, q))), None)
    return None if p is None else 2 * n - 2 * p + 2


@_claim(
    "Thm3.2",
    "product diameter lies within the exponent and diameter sandwich bounds",
    _pair_instances,
)
def _check_sandwich_bounds(instance: Instance) -> Failure | None:
    g1, g2 = instance
    if g1.order < 2 or g2.order < 2:
        return None  # predict prints no bounds
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
    lambda spec, rng: _stream(
        _square(
            connected_graphs(
                min(4, spec.exhaustive_loopless_order), allow_loops=False, min_order=2
            )
        ),
        spec,
        lambda: _random_pair(rng),
    ),
    _product_diameter,
)
def _main_formula(g1: Graph, g2: Graph) -> ExtLen:
    return predict_diameter(_summarize(g1), _summarize(g2)).value


@_closed_form_claim(
    "Thm3.4",
    "product diameter is 1 exactly when both factors are complete with all loops",
    lambda spec, rng: _square(_pair_pool(spec)),
    lambda g1, g2: _product_diameter(g1, g2) == 1,
)
def _both_k_plus(g1: Graph, g2: Graph) -> bool | None:
    if g1.order < 2 or g2.order < 2:
        return None
    return is_k_plus(g1) and is_k_plus(g2)


@_closed_form_claim(
    "Thm3.5",
    "a complete-all-loops factor gives diameter d(G), or 2 when d(G) = 1",
    lambda spec, rng: _stream(
        itertools.product(
            [make_complete(m, with_loops=True) for m in (2, 3, 4)], _pair_pool(spec)
        ),
        spec,
        lambda: (
            make_complete(rng.randint(2, 4), with_loops=True),
            random_connected(rng, RANDOM_ORDER),
        ),
    ),
    _product_diameter,
)
def _k_plus_factor(g1: Graph, g2: Graph) -> ExtLen:
    return predict_k_plus_factor(_summarize(g1), _summarize(g2))


_PART_LISTS = (
    [1, 1, 1],
    [2, 1, 1],
    [2, 2, 1],
    [2, 2, 2],
    [3, 1, 1],
    [1, 1, 1, 1],
    [2, 1, 1, 1],
)


@_closed_form_claim(
    "ThmMultipartite",
    "a complete multipartite factor on three or more parts follows the "
    "small-diameter closed form",
    # A random draw picks the parts before the other factor, so pairs are
    # built multipartite factor first and then flipped.
    lambda spec, rng: (
        (g, h)
        for h, g in _stream(
            itertools.product(
                map(make_complete_multipartite, _PART_LISTS), _pair_pool(spec)
            ),
            spec,
            lambda: (
                make_complete_multipartite(rng.choice(_PART_LISTS)),
                random_connected(rng, RANDOM_ORDER),
            ),
        )
    ),
    _product_diameter,
)
def _multipartite_factor(g: Graph, h: Graph) -> ExtLen | None:
    parts = complete_multipartite_parts(h)
    if parts is None:
        return None
    return predict_multipartite_factor(_summarize(g), parts)


def _hf_instances(spec: EnsembleSpec, rng: random.Random) -> Iterator[Instance]:
    families = _family_grid(span=3)
    return itertools.chain(
        itertools.product(families, _bipartite_pool()), _square(families)
    )


@_closed_form_claim(
    "CorHF",
    "factors with exponent exactly twice their diameter follow the family "
    "closed form",
    _hf_instances,
    _product_diameter,
)
def _family_products(g: Graph, h: Graph) -> ExtLen:
    return predict_family_product(_summarize(g), _summarize(h))


@_closed_form_claim(
    "CorLoops",
    "product of all-loops factors has diameter max(d1, d2)",
    # Adding every loop merges the looped classes, so the head takes the
    # loopless ones.
    lambda spec, rng: _stream(
        _square(map(with_all_loops, _pair_pool(spec, allow_loops=False))),
        spec,
        lambda: tuple(map(with_all_loops, _random_pair(rng))),
    ),
    _product_diameter,
)
def _all_loops(g1: Graph, g2: Graph) -> ExtLen:
    for label, g in (("first", g1), ("second", g2)):
        if not all(g.loop_flags):
            raise OutsideHypotheses(f"{label} factor: every vertex must have a loop")
    return predict_all_loops(_summarize(g1), _summarize(g2))


@_closed_form_claim(
    "CorK2",
    "exponent equals the diameter of the product with a single edge, minus one",
    _single_instances,
    lambda g: _product_diameter(g, make_complete(2)) - 1,
)
def _double_cover_exponent(g: Graph) -> ExtLen | None:
    if g.order < 2:
        return None  # trivial
    gamma = summarize(g).exponent
    return gamma if is_finite(gamma) else None  # None: not primitive


@_closed_form_claim(
    "CorCycles",
    "products of odd cycles with cycles and paths match the closed forms",
    lambda spec, rng: (
        (make_cycle(m), h)
        for m in (3, 5, 7)
        for h in [*map(make_cycle, range(3, 8)), *map(make_path, range(2, 8))]
    ),
    _product_diameter,
)
def _cycle_products(g1: Graph, g2: Graph) -> ExtLen | None:
    m, n = g1.order, g2.order
    if m < 3 or m % 2 == 0 or not are_isomorphic(g1, make_cycle(m)):
        return None
    if n >= 3 and are_isomorphic(g2, make_cycle(n)):
        if n % 2 == 0:
            return max(m, n // 2)
        if m == n:
            return m - 1
        if m > n:
            return max(n, (m - 1) // 2)
        return max(m, (n - 1) // 2)
    if n >= 2 and are_isomorphic(g2, make_path(n)):
        return max(m, n - 1)
    return None


@_closed_form_claim(
    "ParityRoute",
    "product diameter read off the factors' parity profiles matches BFS",
    _pair_instances,
    _product_diameter,
)
def _parity_route(g1: Graph, g2: Graph) -> ExtLen:
    # The route `product` prints as its measured diameter.
    return product_diameter(_summarize(g1), _summarize(g2))


CLAIM_IDS: tuple[str, ...] = tuple(REGISTRY)
