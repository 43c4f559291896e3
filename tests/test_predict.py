import pytest
from hypothesis import given, settings

from kronwalk import (
    INF,
    Bounds,
    Graph,
    diameter,
    diameter_bounds,
    kronecker_product,
    make_complete,
    make_complete_multipartite,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
    predict_all_loops,
    predict_diameter,
    predict_family_product,
    predict_k_plus_factor,
    predict_multipartite_factor,
    summarize,
)
from kronwalk.predict import (
    CASE_DISCONNECTED,
    CASE_EQUAL_EXPONENTS,
    CASE_GAMMA1_GREATER,
    CASE_GAMMA2_GREATER,
    CASE_ORDER_ONE,
)
from helpers import graphs


def test_summarize_examples():
    s = summarize(make_complete(3, with_loops=True))
    assert (s.diameter, s.exponent, s.is_k_plus) == (1, 1, True)
    s = summarize(make_cycle(5))
    assert (s.diameter, s.exponent, s.bipartite) == (2, 4, False)
    s = summarize(make_path(4))
    assert (s.diameter, s.exponent, s.bipartite) == (3, INF, True)


def test_predict_examples():
    c5, c3, p4, k2 = make_cycle(5), make_cycle(3), make_path(4), make_complete(2)
    pred = predict_diameter(summarize(c5), summarize(c5))
    assert pred.value == 4 and pred.case == CASE_EQUAL_EXPONENTS
    pred = predict_diameter(summarize(c5), summarize(c3))
    assert pred.value == 3 and pred.case == CASE_GAMMA1_GREATER
    pred = predict_diameter(summarize(c3), summarize(p4))
    assert pred.value == 3 and pred.case == CASE_GAMMA2_GREATER
    pred = predict_diameter(summarize(c3), summarize(k2))
    assert pred.value == 3


def test_predict_disconnected_cases():
    k2 = summarize(make_complete(2))
    pred = predict_diameter(k2, k2)  # both bipartite
    assert pred.value == INF and pred.case == CASE_DISCONNECTED
    split = summarize(Graph(4, [(0, 1), (2, 3)]))
    pred = predict_diameter(split, summarize(make_cycle(3)))
    assert pred.value == INF and pred.case == CASE_DISCONNECTED


def test_bounds_examples():
    c5, c3, p4 = summarize(make_cycle(5)), summarize(make_cycle(3)), summarize(
        make_path(4)
    )
    assert diameter_bounds(c5, c5) == Bounds(4, 4)
    b = diameter_bounds(c3, c5)
    assert (b.lower, b.upper) == (3, 3)
    b = diameter_bounds(c3, p4)
    assert b.upper == 3  # attained: the second factor is bipartite


def test_bounds_attached_to_prediction():
    pred = predict_diameter(summarize(make_cycle(5)), summarize(make_cycle(3)))
    assert pred.bounds.lower <= pred.value <= pred.bounds.upper


def test_trivial_factor():
    k1_plus = summarize(make_complete(1, with_loops=True))
    k1 = summarize(Graph(1))
    c5 = summarize(make_cycle(5))
    for s1, s2 in ((c5, k1_plus), (k1_plus, c5)):
        pred = predict_diameter(s1, s2)
        assert pred.value == 2 and pred.case == CASE_ORDER_ONE
        assert pred.bounds is None
    for s1, s2 in ((c5, k1), (k1, c5)):
        pred = predict_diameter(s1, s2)
        assert pred.value == INF and pred.case == CASE_DISCONNECTED
    for s1, s2 in ((k1_plus, k1_plus), (k1, k1_plus), (k1, k1)):
        pred = predict_diameter(s1, s2)
        assert pred.value == 0 and pred.case == CASE_ORDER_ONE


def test_order_one_factor_reports_facts_in_argument_order():
    # The factor facts come from the profiles handed to the predictor, so
    # they follow the argument order even when the order-one factor is first.
    s1, s2 = summarize(make_complete(1, with_loops=True)), summarize(make_cycle(5))
    pred = predict_diameter(s1, s2)
    assert (s1.exponent, s1.diameter, s2.exponent, s2.diameter) == (1, 0, 4, 2)
    assert pred.value == 2 and pred.case == CASE_ORDER_ONE
    s1, s2 = summarize(make_cycle(5)), summarize(Graph(1))
    pred = predict_diameter(s1, s2)
    assert (s1.exponent, s1.diameter, s2.exponent, s2.diameter) == (4, 2, INF, 0)
    assert pred.value == INF and pred.case == CASE_DISCONNECTED


@given(graphs(min_order=1, max_order=1), graphs(min_order=1, max_order=4))
@settings(max_examples=100, deadline=None)
def test_order_one_prediction_matches_brute_force(g1, g2):
    for a, b in ((g1, g2), (g2, g1)):
        pred = predict_diameter(summarize(a), summarize(b))
        assert pred.value == diameter(kronecker_product(a, b))


def test_k_plus_pair():
    # diameter 1 exactly when both factors are complete with all loops
    k2p, k3p = make_complete(2, with_loops=True), make_complete(3, with_loops=True)
    assert predict_diameter(summarize(k2p), summarize(k3p)).value == 1
    assert diameter(kronecker_product(k2p, k3p)) == 1
    assert predict_diameter(summarize(k2p), summarize(make_complete(3))).value == 2


def test_k_plus_factor():
    k3_plus = summarize(make_complete(3, with_loops=True))
    assert predict_k_plus_factor(k3_plus, summarize(make_path(4))) == 3
    assert predict_k_plus_factor(k3_plus, summarize(make_complete(4))) == 2
    with pytest.raises(ValueError, match="not"):
        predict_k_plus_factor(summarize(make_path(3)), summarize(make_path(4)))
    with pytest.raises(ValueError, match="second factor"):
        predict_k_plus_factor(k3_plus, summarize(make_complete(2, with_loops=True)))


def test_k_plus_factor_matches_brute_force():
    k3_plus = make_complete(3, with_loops=True)
    for other in (make_path(4), make_complete(4), make_cycle(5), make_cycle(4)):
        expected = predict_k_plus_factor(summarize(k3_plus), summarize(other))
        assert diameter(kronecker_product(k3_plus, other)) == expected


def test_multipartite_factor():
    assert predict_multipartite_factor(summarize(make_complete(3)), [1, 1, 1]) == 2
    assert predict_multipartite_factor(summarize(make_cycle(5)), [2, 1, 1]) == 3
    assert predict_multipartite_factor(summarize(make_path(5)), [1, 1, 1]) == 4
    assert predict_multipartite_factor(summarize(make_path(3)), [2, 2, 2]) == 3
    with pytest.raises(ValueError, match="parts"):
        predict_multipartite_factor(summarize(make_cycle(3)), [2, 2])


def test_multipartite_factor_matches_brute_force():
    for g in (make_complete(3), make_cycle(5), make_path(5), make_path(3)):
        for parts in ([1, 1, 1], [2, 1, 1], [2, 2, 2]):
            h = make_complete_multipartite(parts)
            actual = diameter(kronecker_product(g, h))
            s = summarize(g)
            assert actual == predict_multipartite_factor(s, parts), (g, parts)
            bounds = diameter_bounds(s, summarize(h))
            assert bounds.lower <= actual <= bounds.upper


def test_family_product_bipartite_case():
    s1 = summarize(make_h_family(5, 3))  # diameter 3, exponent 6
    s2 = summarize(make_path(4))
    assert predict_family_product(s1, s2) == max(2 * 3 + 1, 3) == 7
    assert diameter(kronecker_product(make_h_family(5, 3), make_path(4))) == 7


def test_family_product_trichotomy():
    f53 = make_f_family(5, 3)  # diameter 3
    h64 = make_h_family(6, 4)  # diameter 3
    f83 = make_f_family(8, 3)  # diameter 6
    for a, b in ((f53, h64), (f83, f53), (f53, f83)):
        expected = predict_family_product(summarize(a), summarize(b))
        assert diameter(kronecker_product(a, b)) == expected


def test_family_product_validates_premise():
    with pytest.raises(ValueError, match="twice the diameter"):
        predict_family_product(
            summarize(make_complete(3, with_loops=True)), summarize(make_path(4))
        )
    with pytest.raises(ValueError, match="odd cycle"):
        predict_family_product(summarize(make_path(3)), summarize(make_path(4)))


def test_all_loops():
    g1 = Graph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    g2 = Graph(2, [(0, 0), (1, 1), (0, 1)])
    assert predict_all_loops(summarize(g1), summarize(g2)) == 2
    assert diameter(kronecker_product(g1, g2)) == 2
    with pytest.raises(ValueError, match="second factor: must be connected"):
        predict_all_loops(summarize(g1), summarize(Graph(2, [(0, 0), (1, 1)])))
    with pytest.raises(ValueError, match="first factor: order must be at least 2"):
        predict_all_loops(summarize(Graph(1, [(0, 0)])), summarize(g2))


def test_special_forms_agree_with_main_formula():
    # Each special closed form restates the general trichotomy on its own
    # hypothesis domain.
    k3p = summarize(make_complete(3, with_loops=True))
    for other in (make_path(4), make_complete(4), make_cycle(5)):
        s = summarize(other)
        assert predict_k_plus_factor(k3p, s) == predict_diameter(k3p, s).value
    for g in (make_complete(3), make_cycle(5), make_path(5)):
        for parts in ([1, 1, 1], [2, 2, 2]):
            h = summarize(make_complete_multipartite(parts))
            assert (
                predict_multipartite_factor(summarize(g), parts)
                == predict_diameter(summarize(g), h).value
            )
    fam = summarize(make_h_family(5, 3))
    for other in (make_path(4), make_f_family(6, 3), make_h_family(7, 5)):
        s = summarize(other)
        assert predict_family_product(fam, s) == predict_diameter(fam, s).value
    looped1 = Graph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    looped2 = Graph(2, [(0, 0), (1, 1), (0, 1)])
    assert (
        predict_all_loops(summarize(looped1), summarize(looped2))
        == predict_diameter(summarize(looped1), summarize(looped2)).value
    )


@given(graphs(min_order=2, max_order=5), graphs(min_order=2, max_order=5))
@settings(max_examples=200, deadline=None)
def test_prediction_matches_brute_force(g1, g2):
    from kronwalk import is_connected

    if not is_connected(g1) or not is_connected(g2):
        return
    pred = predict_diameter(summarize(g1), summarize(g2))
    assert pred.value == diameter(kronecker_product(g1, g2))
    if pred.bounds is not None and pred.value != INF:
        assert pred.bounds.lower <= pred.value <= pred.bounds.upper
