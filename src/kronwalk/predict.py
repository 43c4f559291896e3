"""Closed-form diameter prediction for Kronecker products.

Every predictor reads the parity profiles that :func:`walks.summarize`
gives the two factors; this module reads no graph.  The main predictor maps
two factor profiles to the exact product diameter:
the common exponent when the exponents agree, otherwise the larger of the
smaller exponent plus one and the other factor's diameter.  A bipartite
factor has infinite exponent and infinity compares greater than any finite
value, which folds the bipartite case into the same trichotomy; two
bipartite (or any disconnected) factors give a disconnected product.

Alongside the general formula this module evaluates the special closed
forms: a complete-with-loops factor, a complete multipartite factor,
factors whose exponent is exactly twice their diameter (the path-plus-clique
and path-plus-odd-cycle families), and all-loops factors.
Every predictor returns its record through one builder, which names the
case by comparing the two factor exponents.  The record holds only what
the predictor decided, the value, the case and the bounds; the factor
facts it read stay in the profiles.  A predictor refuses factors outside
its theorem's hypotheses with :class:`graphs.OutsideHypotheses`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .extlen import INF, ExtLen, is_finite
from .graphs import OutsideHypotheses
from .walks import ParityProfile

CASE_EQUAL_EXPONENTS = "EqualExponents"
CASE_GAMMA1_GREATER = "Gamma1Greater"
CASE_GAMMA2_GREATER = "Gamma2Greater"
CASE_DISCONNECTED = "Disconnected"
CASE_ORDER_ONE = "OrderOneFactor"


class Bounds(NamedTuple):
    lower: ExtLen
    upper: ExtLen


class DiameterPrediction(NamedTuple):
    value: ExtLen
    case: str
    bounds: Bounds | None


def diameter_bounds(s1: ParityProfile, s2: ParityProfile) -> Bounds:
    """Sandwich bounds on the product diameter.

    Lower: the larger factor diameter, raised to the common exponent (equal
    case) or the smaller exponent plus one when both factors have finite
    exponents.  Upper: the smaller of ``max(g1 + 1, d2)``, ``max(g2 + 1,
    d1)`` and ``max(g1, g2)`` (the last is vacuous when an exponent is
    infinite).
    """
    g1, g2 = s1.exponent, s2.exponent
    lower = max(s1.diameter, s2.diameter)
    if is_finite(g1) and is_finite(g2):
        lower = max(lower, g1 if g1 == g2 else min(g1, g2) + 1)
    upper = min(max(g1 + 1, s2.diameter), max(g2 + 1, s1.diameter), max(g1, g2))
    return Bounds(lower=lower, upper=upper)


def _prediction(
    value: ExtLen, s1: ParityProfile, s2: ParityProfile, case: str | None = None
) -> DiameterPrediction:
    """The record for a predicted value; bounds need both orders >= 2.

    Without an explicit case the larger exponent names it.
    """
    g1, g2 = s1.exponent, s2.exponent
    if case is None:
        if g1 == g2:
            case = CASE_EQUAL_EXPONENTS
        elif g1 > g2:
            case = CASE_GAMMA1_GREATER
        else:
            case = CASE_GAMMA2_GREATER
    bounds = diameter_bounds(s1, s2) if min(s1.order, s2.order) >= 2 else None
    return DiameterPrediction(value=value, case=case, bounds=bounds)


def predict_diameter(s1: ParityProfile, s2: ParityProfile) -> DiameterPrediction:
    """Exact product diameter from the factor exponents and diameters.

    Disconnected factors, or two bipartite ones, yield a Disconnected
    prediction with infinite value.  An order-one factor is its own case: a
    looped single vertex (exponent 1) is a multiplicative identity, so the
    product keeps the other factor's diameter; a bare single vertex makes
    the product edgeless, disconnected against order two or more and a
    single vertex (diameter 0) otherwise.
    """
    if min(s1.order, s2.order) == 1:
        one, other = (s1, s2) if s1.order == 1 else (s2, s1)
        if one.is_k_plus:
            return _prediction(other.diameter, s1, s2, CASE_ORDER_ONE)
        if other.order >= 2:
            return _prediction(INF, s1, s2, CASE_DISCONNECTED)
        return _prediction(0, s1, s2, CASE_ORDER_ONE)
    if not s1.connected or not s2.connected or (s1.bipartite and s2.bipartite):
        return _prediction(INF, s1, s2, CASE_DISCONNECTED)
    g1, g2 = s1.exponent, s2.exponent
    if g1 == g2:
        value: ExtLen = g1
    elif g1 > g2:
        value = max(g2 + 1, s1.diameter)
    else:
        value = max(g1 + 1, s2.diameter)
    return _prediction(value, s1, s2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutsideHypotheses(message)


def predict_k_plus_factor(
    s_kp: ParityProfile, s_other: ParityProfile
) -> DiameterPrediction:
    """Complete-with-loops factor times anything else connected.

    The product diameter is the other factor's, except that diameter 1
    becomes 2.
    """
    _require(s_kp.order >= 2, "first factor: order must be at least 2")
    _require(s_kp.is_k_plus, "first factor: not complete with a loop everywhere")
    _require(s_other.order >= 2, "second factor: order must be at least 2")
    _require(s_other.connected, "second factor: must be connected")
    _require(
        not s_other.is_k_plus,
        "second factor: must not be complete with a loop everywhere",
    )
    d = s_other.diameter
    return _prediction(2 if d == 1 else d, s_kp, s_other)


def _multipartite_profile(part_sizes: Sequence[int]) -> ParityProfile:
    # On three or more parts every pair has an odd walk of length at most 3
    # (a vertex back to itself needs 3) and an even walk of length 2; the
    # exponent 2 is witnessed at the first vertex and itself.
    return ParityProfile(
        order=sum(part_sizes),
        connected=True,
        bipartite=False,
        odd_girth=3,
        diameter=1 if all(s == 1 for s in part_sizes) else 2,
        odd_diameter=3,
        even_diameter=2,
        witness_pair=(0, 0),
    )


def predict_multipartite_factor(
    s_g: ParityProfile, part_sizes: Sequence[int]
) -> DiameterPrediction:
    """Connected factor times a complete multipartite graph on 3+ parts."""
    _require(len(part_sizes) >= 3, "multipartite factor: need at least 3 parts")
    _require(all(s >= 1 for s in part_sizes), "multipartite factor: empty part")
    _require(s_g.connected, "first factor: must be connected")
    _require(s_g.diameter >= 1, "first factor: diameter must be at least 1")
    d = s_g.diameter
    if d >= 3:
        value: ExtLen = d
    elif s_g.exponent <= 2:
        value = 2
    else:
        value = 3
    return _prediction(value, s_g, _multipartite_profile(part_sizes))


def predict_family_product(
    s1: ParityProfile, s2: ParityProfile
) -> DiameterPrediction:
    """Product where the first factor's exponent is exactly twice its diameter.

    The path-plus-clique and path-plus-odd-cycle families have this
    property.  Against a bipartite factor the diameter is
    ``max(2 d1 + 1, d2)``; against another such factor it follows the
    diameter trichotomy.
    """
    _require(s1.connected, "first factor: must be connected")
    _require(not s1.bipartite, "first factor: must contain an odd cycle")
    _require(s1.diameter >= 1, "first factor: diameter must be at least 1")
    _require(
        s1.exponent == 2 * s1.diameter,
        "first factor: exponent must equal twice the diameter",
    )
    _require(s2.connected, "second factor: must be connected")
    _require(s2.diameter >= 1, "second factor: diameter must be at least 1")
    d1, d2 = s1.diameter, s2.diameter
    if s2.bipartite:
        value: ExtLen = max(2 * d1 + 1, d2)
    else:
        _require(
            s2.exponent == 2 * s2.diameter,
            "second factor: exponent must equal twice the diameter",
        )
        if d1 == d2:
            value = 2 * d1
        elif d1 > d2:
            value = max(d1, 2 * d2 + 1)
        else:
            value = max(d2, 2 * d1 + 1)
    return _prediction(value, s1, s2)


def predict_all_loops(s1: ParityProfile, s2: ParityProfile) -> DiameterPrediction:
    """Product of two connected factors with a loop on every vertex.

    Loops give walks of every length at least the distance, so each
    exponent equals the diameter and the product diameter is the larger
    factor diameter.  A profile does not show whether every vertex has a
    loop, so that hypothesis is the caller's to check on the graphs.
    """
    for label, s in (("first", s1), ("second", s2)):
        _require(s.order >= 2, f"{label} factor: order must be at least 2")
        _require(s.connected, f"{label} factor: must be connected")
    return _prediction(max(s1.diameter, s2.diameter), s1, s2)
