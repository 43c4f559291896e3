"""How many graph traversals each entry point runs.

Every traversal name is replaced, in each module that binds it, by a
wrapper that records the traversal and the function that called it.
"""

import sys

import pytest

import kronwalk.cli as cli
import kronwalk.cycles as cycles
import kronwalk.harness.claims as claims
import kronwalk.kronecker as kronecker
import kronwalk.predict as predict
import kronwalk.walks as walks
from kronwalk import make_complete, make_cycle, summarize
from kronwalk.harness import with_all_loops

TRAVERSALS = (
    "profile_of", "parity_distances", "distance_matrix", "diameter", "is_connected",
    "is_bipartite",
)
PROFILE = ("profile_of", "summarize")
BRUTE_FORCE = ("diameter", "_product_diameter")


@pytest.fixture
def traversals(monkeypatch):
    calls = []
    for module in (walks, cycles, kronecker, predict, cli, claims):
        for name in TRAVERSALS:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(g, _name=name, _real=real):
                calls.append((_name, sys._getframe(1).f_code.co_name))
                return _real(g)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_summarize_runs_one_parity_traversal(traversals):
    summarize(make_cycle(5))
    assert traversals == [PROFILE]


def test_metrics_runs_one_profile_and_the_cycle_bound(traversals, capsys):
    assert cli.main(["metrics", "F:30,5"]) == 0
    # The cycle bound builds no all-pairs table: one two-colouring search
    # shows an odd cycle, and the first cycle's unlimited search shows that
    # the graph is connected.
    assert traversals == [PROFILE, ("is_bipartite", "l_o_bound")]


def test_cycle_bound_checks_connectivity_only_with_no_odd_cycle(traversals, capsys):
    assert cli.main(["metrics", "path:30"]) == 0
    assert traversals == [
        PROFILE, ("is_bipartite", "l_o_bound"), ("is_connected", "l_o_bound")
    ]


@pytest.mark.parametrize(
    "pair", [("F:30,5", "H:20,4"), ("complete+:1", "cycle:5"), ("cycle:5", "path:1")]
)
def test_predict_runs_one_profile_per_factor(traversals, capsys, pair):
    assert cli.main(["predict", *pair]) == 0
    assert traversals == [PROFILE, PROFILE]


def test_parity_extremal_check_runs_one_parity_traversal(traversals):
    assert claims.REGISTRY["Lem2.6"].check((make_cycle(5),)) is None
    assert traversals == [PROFILE]


@pytest.mark.parametrize(
    "pair", [(make_complete(3, with_loops=True), make_complete(2, with_loops=True)),
             (make_cycle(5), make_cycle(3))]
)
def test_k_plus_check_runs_no_traversal_of_its_factors(traversals, pair):
    assert claims.REGISTRY["Thm3.4"].check(pair) is None
    # Only the brute force runs: one reach scan over the built product.
    assert traversals == [BRUTE_FORCE]


@pytest.mark.parametrize(
    "pair", [(make_cycle(5), make_cycle(3)), (make_complete(2), make_cycle(3))]
)
def test_mixed_parity_check_gates_on_the_parity_tables(traversals, pair):
    assert claims.REGISTRY["Lem2.7"].check(pair) is None
    names = [name for name, _ in traversals]
    assert "is_connected" not in names and "is_bipartite" not in names


@pytest.fixture
def builds(monkeypatch):
    calls = []
    real = cli.kronecker_product

    def counted(g1, g2):
        calls.append((g1.order, g2.order))
        return real(g1, g2)

    monkeypatch.setattr(cli, "kronecker_product", counted)
    return calls


def test_product_reads_two_profiles_and_builds_nothing(traversals, builds, capsys):
    assert cli.main(["product", "cycle:59", "cycle:61"]) == 0
    assert traversals == [PROFILE, PROFILE]
    assert builds == []


def test_product_builds_the_product_once_for_out(traversals, builds, capsys, tmp_path):
    out = str(tmp_path / "p.edges")
    assert cli.main(["product", "cycle:5", "path:4", "--out", out]) == 0
    assert traversals == [PROFILE, PROFILE]
    assert builds == [(5, 4)]


def test_all_loops_closed_form_runs_one_profile_per_factor(traversals):
    pair = (make_complete(3, with_loops=True), with_all_loops(make_cycle(5)))
    assert claims.REGISTRY["CorLoops"].check(pair) is None
    # One profile per factor for the closed form, one BFS over the product.
    assert sorted(traversals) == sorted([PROFILE, PROFILE, BRUTE_FORCE])


@pytest.mark.parametrize(
    "pair, connected_factors",
    [
        ((make_cycle(5), make_cycle(3)), True),
        ((make_cycle(4), make_complete(2)), True),
        ((make_cycle(4), kronecker.kronecker_product(make_cycle(4), make_complete(2))), False),
    ],
)
def test_product_connectivity_check_gates_on_the_criterion_alone(
    traversals, pair, connected_factors
):
    # The hypothesis is product_is_connected's own refusal: no traversal of
    # the factors beyond its own, and one BFS over the product when it answers.
    assert claims.REGISTRY["Lem2.4"].check(pair) is None
    own = [call for call in traversals if call[1] == "product_is_connected"]
    rest = [call for call in traversals if call[1] != "product_is_connected"]
    assert own
    bfs = [("is_connected", "_product_connected")]
    assert rest == (bfs if connected_factors else [])
