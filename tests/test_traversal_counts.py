"""How many graph traversals each entry point runs.

Every traversal name is replaced, in each module that binds it, by a
wrapper that records the traversal and the function that called it.  Every
verify check reads an instance graph's profile and walk levels through the
campaign memo, so those scans are called from ``_recall``; only a built
product is scanned directly.
"""

import sys

import pytest

import kronwalk.cli as cli
import kronwalk.cycles as cycles
import kronwalk.harness.claims as claims
import kronwalk.kronecker as kronecker
import kronwalk.walks as walks
from kronwalk import make_complete, make_cycle, summarize
from kronwalk.harness.ensembles import with_all_loops

TRAVERSALS = (
    "summarize", "walk_levels", "diameter", "is_connected", "is_bipartite",
)
MEMO_PROFILE = ("summarize", "_recall")
BRUTE_FORCE = ("diameter", "_product_diameter")


@pytest.fixture
def traversals(monkeypatch):
    calls = []
    for module in (walks, cycles, kronecker, cli, claims):
        for name in TRAVERSALS:
            real = getattr(module, name, None)
            if real is None:
                continue

            def counted(g, _name=name, _real=real):
                calls.append((_name, sys._getframe(1).f_code.co_name))
                return _real(g)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_summarize_runs_one_parity_traversal(traversals, monkeypatch):
    scans = []
    real = walks._levels

    def counted(g):
        scans.append(g)
        return real(g)

    monkeypatch.setattr(walks, "_levels", counted)
    g = make_cycle(5)
    summarize(g)
    assert scans == [g]
    assert traversals == []


def test_metrics_runs_one_profile_and_the_cycle_bound(traversals, capsys):
    assert cli.main(["metrics", "F:30,5"]) == 0
    # The cycle bound builds no all-pairs table, and reads connectivity and
    # bipartiteness off the profile metrics prints.
    assert traversals == [("summarize", "cmd_metrics")]


def test_cycle_bound_on_a_bipartite_graph_runs_no_search(traversals, capsys):
    assert cli.main(["metrics", "path:30"]) == 0
    assert traversals == [("summarize", "cmd_metrics")]


@pytest.mark.parametrize(
    "pair", [("F:30,5", "H:20,4"), ("complete+:1", "cycle:5"), ("cycle:5", "path:1")]
)
def test_predict_runs_one_profile_per_factor(traversals, capsys, pair):
    assert cli.main(["predict", *pair]) == 0
    assert traversals == [("summarize", "cmd_predict")] * 2


def test_parity_extremal_check_runs_one_parity_traversal(traversals):
    assert claims.REGISTRY["Lem2.6"].check((make_cycle(5),)) is None
    assert traversals == [MEMO_PROFILE]


@pytest.mark.parametrize(
    "pair, profiles",
    [((make_complete(3, with_loops=True), make_complete(2, with_loops=True)), 2),
     ((make_cycle(5), make_cycle(3)), 1)],
)
def test_k_plus_check_reads_the_factor_profiles(traversals, pair, profiles):
    assert claims.REGISTRY["Thm3.4"].check(pair) is None
    # The closed form reads K+ off the profiles, the second only when the
    # first is K+; the brute force is one reach scan over the built product.
    assert traversals == [MEMO_PROFILE] * profiles + [BRUTE_FORCE]


@pytest.mark.parametrize(
    "pair", [(make_cycle(5), make_cycle(3)), (make_complete(2), make_cycle(3))]
)
def test_mixed_parity_check_gates_on_the_walk_levels(traversals, pair):
    # The primitivity gate and the bound read the same walk levels, one scan
    # per factor, and no profile; K2 is refused at the gate.
    assert claims.REGISTRY["Lem2.7"].check(pair) is None
    levels = ("walk_levels", "_recall")
    assert traversals == [levels, levels]


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
    assert traversals == [("summarize", "cmd_product")] * 2
    assert builds == []


def test_product_builds_the_product_once_for_out(traversals, builds, capsys, tmp_path):
    out = str(tmp_path / "p.edges")
    assert cli.main(["product", "cycle:5", "path:4", "--out", out]) == 0
    assert traversals == [("summarize", "cmd_product")] * 2
    assert builds == [(5, 4)]


def test_all_loops_closed_form_runs_one_profile_per_factor(traversals):
    pair = (make_complete(3, with_loops=True), with_all_loops(make_cycle(5)))
    assert claims.REGISTRY["CorLoops"].check(pair) is None
    # One profile per factor for the closed form, one BFS over the product.
    assert sorted(traversals) == sorted([MEMO_PROFILE, MEMO_PROFILE, BRUTE_FORCE])


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
    # The criterion and its hypothesis, product_is_connected's own refusal,
    # read one profile per factor: no BFS of a factor, and one BFS over the
    # product when it answers.
    assert claims.REGISTRY["Lem2.4"].check(pair) is None
    bfs = [("is_connected", "_product_connected")]
    assert traversals == [MEMO_PROFILE, MEMO_PROFILE] + (bfs if connected_factors else [])
