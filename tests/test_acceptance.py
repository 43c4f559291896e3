"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each test prints one pass line; a failing assertion aborts the test before
its line is printed.  Run with ``pytest tests/test_acceptance.py -v -s`` to
see the lines.
"""

import random
import time

import pytest

from kronwalk import (
    INF,
    adjacency,
    bool_pow,
    diameter,
    exponent,
    is_bipartite,
    is_connected,
    is_k_plus,
    kron_matrix,
    kronecker_product,
    l_o_bound,
    make_complete,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
    oracle_exponent,
    predict_diameter,
    random_graph,
    summarize,
)

from helpers import (
    ACCEPT_SEED,
    dp_parity_minima,
    enumerate_graphs,
    random_connected_graph,
)


def _report(criterion, label, detail, started):
    print(
        f"[acceptance] criterion {criterion} ({label}): PASS "
        f"({detail}, {time.time() - started:.1f}s)"
    )


@pytest.fixture(scope="module")
def exhaustive_pool():
    """Criterion 1 ensemble (a): connected loopless graphs, 2 <= n <= 4."""
    pool = []
    for n in range(2, 5):
        pool.extend(g for g in enumerate_graphs(n) if is_connected(g))
    assert len(pool) == 1 + 4 + 38
    return pool


@pytest.fixture(scope="module")
def random_pairs():
    """Criterion 1 ensemble (b): 500 seeded random connected pairs, loops, n <= 6."""
    rng = random.Random(ACCEPT_SEED)
    return [
        (random_connected_graph(rng), random_connected_graph(rng))
        for _ in range(500)
    ]


@pytest.fixture(scope="module")
def ensemble_graphs(exhaustive_pool, random_pairs):
    graphs = list(exhaustive_pool)
    for g1, g2 in random_pairs:
        graphs.append(g1)
        graphs.append(g2)
    return graphs


def test_criterion_1_main_formula(exhaustive_pool, random_pairs):
    started = time.time()
    summaries = {g: summarize(g) for g in exhaustive_pool}
    checked = 0
    for g1 in exhaustive_pool:
        for g2 in exhaustive_pool:
            assert g1.order * g2.order <= 36
            predicted = predict_diameter(summaries[g1], summaries[g2]).value
            assert predicted == diameter(kronecker_product(g1, g2)), (g1, g2)
            checked += 1
    for g1, g2 in random_pairs:
        predicted = predict_diameter(summarize(g1), summarize(g2)).value
        assert predicted == diameter(kronecker_product(g1, g2)), (g1, g2)
        checked += 1
    _report(1, "main diameter formula", f"{checked} ordered pairs", started)


def test_criterion_2_exponent_oracle_equivalence(ensemble_graphs):
    started = time.time()
    for g in ensemble_graphs:
        assert exponent(g).gamma == oracle_exponent(g), g
    _report(2, "exponent oracle equivalence", f"{len(ensemble_graphs)} graphs", started)


def test_criterion_3_family_exactness():
    started = time.time()
    checked = 0
    for p in (3, 5):
        for n in range(p + 1, p + 5):
            assert exponent(make_f_family(n, p)).gamma == 2 * n - p - 1, (n, p)
            checked += 1
    for p in (3, 4, 5):
        for n in range(p + 1, p + 5):
            assert exponent(make_h_family(n, p)).gamma == 2 * n - 2 * p + 2, (n, p)
            checked += 1
    _report(3, "family exponent exactness", f"{checked} family members", started)


def test_criterion_4_cycle_table():
    started = time.time()
    checked = 0
    for m in (3, 5, 7):
        cm = make_cycle(m)
        for n in (3, 5, 7):
            if m == n:
                expected = m - 1
            elif m > n:
                expected = max(n, (m - 1) // 2)
            else:
                expected = max(m, (n - 1) // 2)
            assert diameter(kronecker_product(cm, make_cycle(n))) == expected, (m, n)
            checked += 1
        for n in (4, 6):
            expected = max(m, n // 2)
            assert diameter(kronecker_product(cm, make_cycle(n))) == expected, (m, n)
            checked += 1
        for n in range(2, 8):
            expected = max(m, n - 1)
            assert diameter(kronecker_product(cm, make_path(n))) == expected, (m, n)
            checked += 1
    _report(4, "cycle and path product table", f"{checked} products", started)


def test_criterion_5_cycle_bound():
    started = time.time()
    checked = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if not is_connected(g):
                continue
            report = l_o_bound(g, summarize(g))
            assert report.exact
            assert exponent(g).gamma <= report.l_o, g
            checked += 1
    rng = random.Random(ACCEPT_SEED + 5)
    for _ in range(300):
        g = random_connected_graph(rng, max_order=8)
        report = l_o_bound(g, summarize(g))
        assert report.exact
        assert exponent(g).gamma <= report.l_o, g
        checked += 1
    _report(5, "odd-cycle exponent bound", f"{checked} graphs", started)


def test_criterion_6_diameter_one_characterization():
    started = time.time()
    pool = []
    for n in (2, 3):
        pool.extend(
            g for g in enumerate_graphs(n, allow_loops=True) if is_connected(g)
        )
    assert len(pool) == 4 + 32
    checked = 0
    for g1 in pool:
        for g2 in pool:
            product_diameter_one = diameter(kronecker_product(g1, g2)) == 1
            assert product_diameter_one == (is_k_plus(g1) and is_k_plus(g2)), (g1, g2)
            checked += 1
    _report(6, "diameter-one characterization", f"{checked} ordered pairs", started)


def test_criterion_7_double_cover_identity(ensemble_graphs):
    started = time.time()
    k2 = make_complete(2)
    checked = 0
    for g in ensemble_graphs:
        if g.order < 2 or not is_connected(g) or is_bipartite(g):
            continue
        assert exponent(g).gamma == diameter(kronecker_product(g, k2)) - 1, g
        checked += 1
    assert checked > 0
    _report(7, "exponent from the doubled graph", f"{checked} primitive graphs", started)


def test_criterion_8_kron_matrix_identity():
    started = time.time()
    rng = random.Random(ACCEPT_SEED + 8)
    for _ in range(100):
        g1 = random_graph(rng.randint(1, 5), rng.random(), rng.random(), rng.randrange(2**60))
        g2 = random_graph(rng.randint(1, 5), rng.random(), rng.random(), rng.randrange(2**60))
        a1, a2 = adjacency(g1), adjacency(g2)
        product = kron_matrix(a1, a2)
        assert product == adjacency(kronecker_product(g1, g2))
        for k in range(1, 7):
            assert bool_pow(product, k) == kron_matrix(bool_pow(a1, k), bool_pow(a2, k))
    _report(8, "power identity for matrix products", "100 factor pairs, k <= 6", started)


def test_criterion_9_parity_extremal_pairs():
    started = time.time()
    pool = []
    for n in range(2, 6):
        pool.extend(enumerate_graphs(n))
    for n in range(2, 5):
        pool.extend(enumerate_graphs(n, allow_loops=True))
    # Primitive graphs: connected with an odd cycle.
    pool = [g for g in pool if is_connected(g) and not is_bipartite(g)]
    checked = 0
    for g in pool:
        gamma = exponent(g).gamma
        n = g.order
        odd, even = dp_parity_minima(g, 2 * n)
        pairs = [(u, v) for u in range(n) for v in range(n)]
        if gamma % 2:
            assert any(odd[u][v] == gamma for u, v in pairs), g
            assert any(even[u][v] == gamma + 1 for u, v in pairs if u != v), g
        else:
            assert any(even[u][v] == gamma for u, v in pairs if u != v), g
            assert any(odd[u][v] == gamma + 1 for u, v in pairs), g
        checked += 1
    _report(9, "parity-extremal pair existence", f"{checked} primitive graphs", started)
