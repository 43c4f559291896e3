"""Closed-form diameter prediction for Kronecker products.

Every predictor reads the parity profiles that :func:`walks.summarize`
gives the two factors; this module reads no graph.  The main predictor maps
two factor profiles to the exact product diameter:
the common exponent when the exponents agree, otherwise the larger of the
smaller exponent plus one and the other factor's diameter.  A bipartite
factor has infinite exponent and infinity compares greater than any finite
value, which folds the bipartite case into the same trichotomy.  Whether
the product is disconnected is :func:`kronecker.product_is_connected`'s
verdict (Weichsel's criterion), which this module does not restate.

Alongside the general formula this module evaluates the special closed
forms: a complete-with-loops factor, a complete multipartite factor,
factors whose exponent is exactly twice their diameter (the path-plus-clique
and path-plus-odd-cycle families), and all-loops factors.
Only the main predictor builds a :class:`DiameterPrediction`, the record
that ``predict`` and ``product`` print; it holds only what the predictor
decided, the value, the case and the bounds, and the factor facts it read
stay in the profiles.  Each special form returns the length its theorem
states.  A predictor refuses factors outside its theorem's hypotheses with
:class:`graphs.OutsideHypotheses`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .extlen import INF, ExtLen, is_finite
from .graphs import OutsideHypotheses
from .kronecker import product_is_connected
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


def predict_diameter(s1: ParityProfile, s2: ParityProfile) -> DiameterPrediction:
    """Exact product diameter from the factor exponents and diameters.

    A looped single vertex (exponent 1) is a multiplicative identity, so
    the product keeps the other factor's diameter, and two single vertices
    give a single vertex (diameter 0): the OrderOneFactor case.  Otherwise
    a disconnected factor or product (two bipartite factors, or a bare
    single vertex against order two or more) is the Disconnected case, with
    infinite value.  Otherwise the larger exponent names the case.  Bounds
    need both orders at least 2.
    """
    g1, g2 = s1.exponent, s2.exponent
    one, other = (s1, s2) if s1.order == 1 else (s2, s1)
    value: ExtLen
    if one.order == 1 and one.is_k_plus:
        value, case = other.diameter, CASE_ORDER_ONE
    elif one.order == 1 and other.order == 1:
        value, case = 0, CASE_ORDER_ONE
    elif not (s1.connected and s2.connected and product_is_connected(s1, s2)):
        value, case = INF, CASE_DISCONNECTED
    elif g1 == g2:
        value, case = g1, CASE_EQUAL_EXPONENTS
    elif g1 > g2:
        value, case = max(g2 + 1, s1.diameter), CASE_GAMMA1_GREATER
    else:
        value, case = max(g1 + 1, s2.diameter), CASE_GAMMA2_GREATER
    bounds = diameter_bounds(s1, s2) if min(s1.order, s2.order) >= 2 else None
    return DiameterPrediction(value=value, case=case, bounds=bounds)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutsideHypotheses(message)


def predict_k_plus_factor(s_kp: ParityProfile, s_other: ParityProfile) -> ExtLen:
    """Diameter of a complete-with-loops factor times anything else connected.

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
    return 2 if d == 1 else d


def predict_multipartite_factor(
    s_g: ParityProfile, part_sizes: Sequence[int]
) -> ExtLen:
    """Diameter of a connected factor times a complete multipartite graph.

    The multipartite factor has three or more parts, so its diameter is at
    most 2 and its exponent is 2.  The product diameter is the first
    factor's from 3 on, and otherwise 2 or 3 by its exponent.
    """
    _require(len(part_sizes) >= 3, "multipartite factor: need at least 3 parts")
    _require(all(s >= 1 for s in part_sizes), "multipartite factor: empty part")
    _require(s_g.connected, "first factor: must be connected")
    _require(s_g.diameter >= 1, "first factor: diameter must be at least 1")
    d = s_g.diameter
    if d >= 3:
        return d
    return 2 if s_g.exponent <= 2 else 3


def predict_family_product(s1: ParityProfile, s2: ParityProfile) -> ExtLen:
    """Diameter of a product whose first factor's exponent is twice its diameter.

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
        return max(2 * d1 + 1, d2)
    _require(
        s2.exponent == 2 * s2.diameter,
        "second factor: exponent must equal twice the diameter",
    )
    if d1 == d2:
        return 2 * d1
    if d1 > d2:
        return max(d1, 2 * d2 + 1)
    return max(d2, 2 * d1 + 1)


def predict_all_loops(s1: ParityProfile, s2: ParityProfile) -> ExtLen:
    """Product diameter of two connected factors with a loop on every vertex.

    Loops give walks of every length at least the distance, so each
    exponent equals the diameter and the product diameter is the larger
    factor diameter.  A profile does not show whether every vertex has a
    loop, so that hypothesis is the caller's to check on the graphs.
    """
    for label, s in (("first", s1), ("second", s2)):
        _require(s.order >= 2, f"{label} factor: order must be at least 2")
        _require(s.connected, f"{label} factor: must be connected")
    return max(s1.diameter, s2.diameter)
