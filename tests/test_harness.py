import itertools
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from kronwalk import (
    Bounds,
    Graph,
    diameter,
    kronecker_product,
    make_complete,
    make_complete_multipartite,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
    summarize,
)
from kronwalk.graphs import OutsideHypotheses
from kronwalk.harness import claims
from kronwalk.harness.campaign import minimize_counterexample, run_campaign
from kronwalk.harness.claims import (
    CLAIM_IDS,
    REGISTRY,
    Claim,
    Failure,
    are_isomorphic,
    complete_multipartite_parts,
)
from kronwalk.harness.ensembles import EnsembleSpec, connected_graphs, with_all_loops
from kronwalk.walks import ParityProfile

from helpers import enumerate_graphs, labeled_graphs

SMALL = EnsembleSpec(exhaustive_order=3, random_count=20)


def test_registry_covers_all_claims():
    expected = {
        "Prop1.1",
        "Lem2.2",
        "Lem2.4",
        "Lem2.5",
        "Lem2.6",
        "Lem2.7",
        "Thm3.1",
        "Cor2.10",
        "Cor3.1",
        "Cor3.2",
        "Thm3.2",
        "Thm3.3",
        "Thm3.4",
        "Thm3.5",
        "ThmMultipartite",
        "CorHF",
        "CorLoops",
        "CorK2",
        "CorCycles",
        "ParityRoute",
    }
    assert set(CLAIM_IDS) == expected


NUMBER_WORDS = (
    "zero one two three four five six seven eight nine ten eleven twelve thirteen "
    "fourteen fifteen sixteen seventeen eighteen nineteen twenty"
).split()


def test_readme_counts_the_further_claims():
    # The README names the main formula and then "<n> further claims".
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (word,) = re.findall(r"([\w-]+)\s+further\s+claims", readme)
    assert word in NUMBER_WORDS
    assert NUMBER_WORDS.index(word) == len(CLAIM_IDS) - 1


def test_full_registry_passes_on_small_ensembles():
    outcomes = run_campaign(list(CLAIM_IDS), SMALL, seed=5)
    failures = {o.claim_id: o.counterexample for o in outcomes if o.counterexample}
    assert failures == {}
    assert all(o.instances_checked > 0 for o in outcomes)


def test_campaign_is_deterministic():
    first = run_campaign(["Thm3.3", "Prop1.1"], SMALL, seed=9)
    second = run_campaign(["Thm3.3", "Prop1.1"], SMALL, seed=9)
    assert [(o.claim_id, o.instances_checked) for o in first] == [
        (o.claim_id, o.instances_checked) for o in second
    ]
    # claim streams are seeded per claim id, so a subset sees the same
    # instances
    alone = run_campaign(["Prop1.1"], SMALL, seed=9)
    assert alone[0].instances_checked == first[1].instances_checked


def test_campaign_profiles_each_factor_once_per_claim(monkeypatch):
    seen = []
    real = claims.summarize

    def counted(g):
        seen.append(g)
        return real(g)

    monkeypatch.setattr(claims, "summarize", counted)
    for claim_id in ("Thm3.3", "CorLoops"):
        seen.clear()
        run_campaign([claim_id], SMALL, seed=0)
        assert seen and len(seen) == len(set(seen)), claim_id
        # Each claim starts a fresh memo, so a second run profiles every
        # factor again.
        run_campaign([claim_id], SMALL, seed=0)
        assert Counter(seen) == Counter({g: 2 for g in seen}), claim_id
        # A check outside a campaign computes afresh.
        g = seen[0]
        REGISTRY[claim_id].check((g, g))
        assert Counter(seen)[g] == 4, claim_id


def test_sandwich_claim_checks_the_shipped_bounds(monkeypatch):
    # Thm3.2 must read the bounds that predict and product print, so a
    # lower bound raised by one has to be caught.
    real = claims.diameter_bounds

    def raised(s1, s2):
        b = real(s1, s2)
        return Bounds(b.lower + 1, b.upper)

    monkeypatch.setattr(claims, "diameter_bounds", raised)
    (outcome,) = run_campaign(["Thm3.2"], SMALL, seed=0)
    assert outcome.counterexample is not None


def test_sandwich_claim_checks_bipartite_pairs(monkeypatch):
    # predict prints bounds for two bipartite factors, so Thm3.2 checks them.
    pair = (make_path(3), make_path(4))
    assert REGISTRY["Thm3.2"].check(pair) is None
    monkeypatch.setattr(claims, "diameter_bounds", lambda s1, s2: Bounds(0, 0))
    assert REGISTRY["Thm3.2"].check(pair) is not None


def _one_more(real):
    return lambda *args: real(*args) + 1


def _negated(real):
    return lambda g: not real(g)


def _flipped_bipartite(real):
    def wrong(g):
        s = real(g)
        return s._replace(bipartite=not s.bipartite)

    return wrong


def _shifted_spans(odd, even):
    def mutate(real):
        def wrong(g):
            s = real(g)
            return s._replace(
                odd_diameter=s.odd_diameter + odd,
                even_diameter=s.even_diameter + even,
            )

        return wrong

    return mutate


@pytest.mark.parametrize(
    "claim_id, name, mutate",
    [
        ("Prop1.1", "oracle_exponent", _one_more),  # the brute force
        ("Lem2.4", "is_connected", _negated),  # the brute force
        ("Lem2.4", "summarize", _flipped_bipartite),  # the closed form
        ("Thm3.4", "is_k_plus", _negated),  # the closed form
        ("CorK2", "summarize", _shifted_spans(1, 1)),  # the closed form
        ("ParityRoute", "summarize", _shifted_spans(2, 0)),  # the closed form
        ("Thm3.5", "predict_k_plus_factor", _one_more),  # the closed form
        ("ThmMultipartite", "predict_multipartite_factor", _one_more),
        ("CorHF", "predict_family_product", _one_more),
        ("CorLoops", "predict_all_loops", _one_more),
    ],
)
def test_closed_form_claims_catch_a_broken_route(monkeypatch, claim_id, name, mutate):
    monkeypatch.setattr(claims, name, mutate(getattr(claims, name)))
    (outcome,) = run_campaign([claim_id], SMALL, seed=0)
    assert outcome.counterexample is not None


def _product_levels_two_behind(monkeypatch):
    # Level k of every built product reads level k - 2, from level 3 on.
    built = []
    real_product, real_levels = claims.kronecker_product, claims.walk_levels

    def product(g1, g2):
        built.append(real_product(g1, g2))
        return built[-1]

    def levels(g):
        scan = real_levels(g)
        return [*scan[:3], *scan[1:-2]] if any(g is p for p in built) else scan

    monkeypatch.setattr(claims, "kronecker_product", product)
    monkeypatch.setattr(claims, "walk_levels", levels)


def _reach_a_step_ahead(monkeypatch):
    real = claims._reach
    monkeypatch.setattr(claims, "_reach", lambda g: itertools.islice(real(g), 1, None))


def _scan_a_level_short(monkeypatch):
    real = claims.walk_levels
    monkeypatch.setattr(claims, "walk_levels", lambda g: real(g)[:-1])


def _powers_a_step_ahead(monkeypatch):
    real = claims.bool_powers

    def ahead(a):
        return itertools.islice(real(a), 1, None)

    monkeypatch.setattr(claims, "bool_powers", ahead)


def _lift_missing_a_tile(monkeypatch):
    # Every row of J x B loses its first tile, the columns (0, j2).
    real = claims.kron_lift

    def lift(a, b):
        left, right = real(a, b)
        return left, tuple(row & ~((1 << b.dim) - 1) for row in right)

    monkeypatch.setattr(claims, "kron_lift", lift)


@pytest.mark.parametrize(
    "claim_id, mutate",
    [
        ("Lem2.5", _product_levels_two_behind),  # the truth
        ("Lem2.7", _reach_a_step_ahead),  # the truth
        ("Lem2.7", _lift_missing_a_tile),  # the factor bound
        ("Lem2.2", _scan_a_level_short),  # the periodic extension
        ("Lem2.2", _powers_a_step_ahead),  # the boolean route
    ],
    ids=lambda p: p if isinstance(p, str) else p.__name__.strip("_"),
)
def test_walk_lemma_claims_catch_a_broken_scan(monkeypatch, claim_id, mutate):
    mutate(monkeypatch)
    (outcome,) = run_campaign([claim_id], SMALL, seed=0)
    assert outcome.counterexample is not None


def test_exponent_claim_catches_a_profile_exponent_one_too_high(monkeypatch):
    # The closed form reads the factor exponents off the parity profiles; the
    # truth, the boolean powers of the built product, reads no profile.
    too_high = property(lambda s: max(s.odd_diameter, s.even_diameter))
    monkeypatch.setattr(ParityProfile, "exponent", too_high)
    (outcome,) = run_campaign(["Prop1.1"], SMALL, seed=0)
    assert outcome.counterexample is not None


@pytest.mark.parametrize("pair", [(Graph(1), make_cycle(3)), (Graph(1), Graph(1))])
def test_connectivity_claim_holds_on_a_bare_vertex_factor(pair):
    # The minimizer can shrink a factor to one vertex without a loop.
    assert REGISTRY["Lem2.4"].check(pair) is None


def test_clique_family_claim_finds_the_clique_size(monkeypatch):
    # Cor3.2 reads p off the family the graph is isomorphic to: H(7, 4)
    # must be checked against 2 * 7 - 2 * 4 + 2 = 8, and a graph outside
    # the family skipped.
    check = REGISTRY["Cor3.2"].check
    assert check((make_h_family(7, 4),)) is None
    monkeypatch.setattr(claims, "summarize", _shifted_spans(1, 1)(claims.summarize))
    failure = check((make_h_family(7, 4),))
    assert (failure.expected, failure.actual) == (8, 9)
    assert check((make_f_family(7, 5),)) is None


def test_parity_extremal_claim_reads_the_spans(monkeypatch):
    # C5 has odd span 5 and even span 4, so exponent 4 and a shortest even
    # walk of length 4; an even span of 2 leaves none of that length.
    check = REGISTRY["Lem2.6"].check
    assert check((make_cycle(5),)) is None
    monkeypatch.setattr(claims, "summarize", _shifted_spans(0, -2)(claims.summarize))
    failure = check((make_cycle(5),))
    assert failure.detail == "no shortest even walk of length 4"
    (outcome,) = run_campaign(["Lem2.6"], SMALL, seed=0)
    assert outcome.counterexample is not None


def test_diameter_claim_compares_the_closed_form_with_bfs():
    claims._closed_form_claim("Probe", "probe", None, claims._product_diameter)(
        lambda g1, g2: 4 if g1.order == g2.order else None
    )
    check = REGISTRY.pop("Probe").check
    assert check((make_cycle(5), make_cycle(5))) is None  # d(C5 x C5) = 4
    failure = check((make_cycle(3), make_cycle(3)))
    assert (failure.expected, failure.actual) == (4, 2)
    assert check((make_cycle(3), make_cycle(5))) is None  # hypotheses unmet


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        run_campaign(["bogus"], SMALL, seed=0)


def _buggy_claim():
    # deliberately wrong main formula: equal-exponent case answers gamma - 1
    def check(instance):
        from kronwalk import is_connected, predict_diameter

        g1, g2 = instance
        if g1.order < 2 or g2.order < 2:
            return None
        if not is_connected(g1) or not is_connected(g2):
            return None
        pred = predict_diameter(summarize(g1), summarize(g2))
        wrong = pred.value - 1 if pred.case == "EqualExponents" else pred.value
        actual = diameter(kronecker_product(g1, g2))
        if wrong != actual:
            return Failure(wrong, actual, "buggy formula")
        return None

    def instances(spec, rng):
        yield (make_cycle(5), make_cycle(5))

    return Claim("buggy", "mutation test", instances, check)


def test_minimizer_finds_local_minimum_for_injected_bug():
    claim = _buggy_claim()
    instance = (make_cycle(5), make_cycle(5))
    assert claim.check(instance) is not None
    minimized = minimize_counterexample(claim, instance)
    assert claim.check(minimized) is not None
    # locally minimal: no single deletion still fails
    for i, g in enumerate(minimized):
        for v in range(g.order):
            if g.order >= 2:
                candidate = (
                    minimized[:i] + (g.remove_vertex(v),) + minimized[i + 1 :]
                )
                assert claim.check(candidate) is None
        for u, v in g.edges():
            candidate = minimized[:i] + (g.remove_edge(u, v),) + minimized[i + 1 :]
            assert claim.check(candidate) is None


def test_minimizer_returns_passing_instance_unchanged():
    claim = _buggy_claim()
    passing = (make_cycle(5), make_cycle(3))  # unequal exponents: not buggy
    assert claim.check(passing) is None
    assert minimize_counterexample(claim, passing) == passing


def test_are_isomorphic():
    assert are_isomorphic(make_cycle(5), Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]))
    assert not are_isomorphic(make_cycle(5), make_path(5))
    assert not are_isomorphic(make_cycle(5), make_cycle(4))
    looped = Graph(2, [(0, 0), (0, 1)])
    other = Graph(2, [(1, 1), (0, 1)])
    assert are_isomorphic(looped, other)
    assert not are_isomorphic(looped, make_complete(2))
    assert are_isomorphic(make_f_family(6, 3), make_f_family(6, 3))


@pytest.mark.parametrize("order, loops, classes", [(4, True, 90), (5, False, 34)])
def test_are_isomorphic_counts_the_unlabeled_graphs(order, loops, classes):
    # OEIS A000666 (graphs with loops allowed) and A000088 (simple graphs).
    representatives = []
    for g in enumerate_graphs(order, allow_loops=loops):
        if not any(are_isomorphic(g, r) for r in representatives):
            representatives.append(g)
    assert len(representatives) == classes


def _assert_pairwise_non_isomorphic(graphs):
    for g, h in itertools.combinations(graphs, 2):
        assert not are_isomorphic(g, h), (g, h)


@pytest.mark.parametrize("order, loops, classes", [(5, False, 31), (4, True, 65)])
def test_connected_graphs_hold_one_graph_per_class(order, loops, classes):
    # Every claim is blind to vertex labels, so a relabeled copy in an
    # exhaustive head would only repeat a check.
    head = list(connected_graphs(order, loops))
    assert len(head) == classes
    _assert_pairwise_non_isomorphic(head)


def test_pair_pools_hold_one_graph_per_class():
    spec = EnsembleSpec(exhaustive_order=3, random_count=0)
    pool = claims._pair_pool(spec)
    assert len(pool) == 13
    _assert_pairwise_non_isomorphic(pool)
    # Adding every loop maps the 13 classes onto K2, P3 and K3 with loops, so
    # CorLoops takes the loopless classes: 3 * 3 pairs.
    (outcome,) = run_campaign(["CorLoops"], spec, seed=0)
    assert outcome.instances_checked == 9


@pytest.mark.parametrize("order, graphs", [(3, 21), (4, 86)])
def test_single_graph_head_holds_one_graph_per_class(order, graphs):
    # The looped sweep already holds every loopless class of its orders, so
    # the loopless sweep adds only the order above the looped cap.
    spec = EnsembleSpec(exhaustive_order=order, random_count=0)
    head = [g for (g,) in claims._single_instances(spec, random.Random(0))]
    assert len(head) == graphs
    _assert_pairwise_non_isomorphic(head)
    for g in connected_graphs(order + 1, allow_loops=False):
        assert any(are_isomorphic(g, h) for h in head), g


def test_complete_multipartite_recognizer():
    assert complete_multipartite_parts(make_complete(3)) == [1, 1, 1]
    assert sorted(complete_multipartite_parts(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]))) == [2, 2]
    assert complete_multipartite_parts(make_path(3)) == [2, 1]
    assert complete_multipartite_parts(make_cycle(5)) is None
    assert complete_multipartite_parts(Graph(2, [(0, 0), (0, 1)])) is None


def test_with_all_loops():
    g = with_all_loops(make_path(3))
    assert all(g.has_loop(v) for v in range(3))
    assert g.edge_count == 5


def test_diameter_claim_reads_a_refusal_as_outside_the_hypotheses(monkeypatch):
    def refuse(g1, g2):
        raise OutsideHypotheses("outside the hypotheses")

    claims._closed_form_claim("Probe", "probe", None, claims._product_diameter)(refuse)
    check = REGISTRY.pop("Probe").check
    assert check((make_cycle(5), make_cycle(3))) is None
    # Any other ValueError from the closed form is a broken route, not a
    # refusal, and propagates.
    def broken(g1, g2):
        raise ValueError("broken route")

    claims._closed_form_claim("Probe", "probe", None, claims._product_diameter)(broken)
    check = REGISTRY.pop("Probe").check
    with pytest.raises(ValueError, match="broken route"):
        check((make_cycle(5), make_cycle(3)))
    # Only the closed form is guarded: a size guard of the product still
    # raises.
    claims._closed_form_claim("Probe", "probe", None, claims._product_diameter)(lambda g1, g2: 3)
    check = REGISTRY.pop("Probe").check

    def oversized(g1, g2):
        raise ValueError("order exceeds the limit")

    monkeypatch.setattr(claims, "kronecker_product", oversized)
    with pytest.raises(ValueError, match="exceeds the limit"):
        check((make_cycle(5), make_cycle(3)))


@pytest.mark.parametrize(
    "claim_id, closed_form, pair",
    [
        # the first factor is not complete with all loops
        ("Thm3.5", "_k_plus_factor", (make_cycle(5), make_cycle(3))),
        # K3+ has exponent 1 and diameter 1
        ("CorHF", "_family_products", (make_complete(3, with_loops=True), make_cycle(5))),
        ("CorHF", "_family_products", (make_cycle(5), make_complete(3, with_loops=True))),
        # two parts only
        (
            "ThmMultipartite",
            "_multipartite_factor",
            (make_cycle(5), make_complete_multipartite([2, 3])),
        ),
        # a factor lacks a loop; max(d1, d2) would read 2 for a product of
        # diameter 3
        ("CorLoops", "_all_loops", (with_all_loops(make_path(3)), make_complete(2))),
        ("CorLoops", "_all_loops", (make_path(3), with_all_loops(make_path(3)))),
    ],
)
def test_closed_forms_refuse_pairs_outside_their_hypotheses(claim_id, closed_form, pair):
    with pytest.raises(OutsideHypotheses):
        getattr(claims, closed_form)(*pair)
    assert REGISTRY[claim_id].check(pair) is None


@pytest.mark.parametrize(
    "pair",
    [
        (Graph(1), make_cycle(5)),
        (make_cycle(5), Graph(1, [(0, 0)])),
        (Graph(1), Graph(1)),
        (Graph(4, [(0, 1), (1, 2), (0, 2)]), make_cycle(3)),
        (make_path(3), Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])),
    ],
)
def test_main_formula_holds_on_order_one_and_disconnected_pairs(pair):
    # Thm3.3's closed form is total, so these pairs are compared with BFS.
    assert claims._main_formula(*pair) == diameter(kronecker_product(*pair))
    assert REGISTRY["Thm3.3"].check(pair) is None


def _set_partitions(n):
    """Every partition of 0..n-1, as blocks listed by their smallest vertex."""
    if n == 0:
        yield []
        return
    for blocks in _set_partitions(n - 1):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + [n - 1]] + blocks[i + 1 :]
        yield blocks + [[n - 1]]


def test_complete_multipartite_recognizer_on_all_small_graphs():
    expected = {}
    for n in range(1, 6):
        for blocks in _set_partitions(n):
            part = {v: i for i, block in enumerate(blocks) for v in block}
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
            expected[Graph(n, edges)] = [len(block) for block in blocks]
    assert len(expected) == 1 + 2 + 5 + 15 + 52
    small = list(labeled_graphs())
    assert set(expected) <= set(small)
    for g in small:
        assert complete_multipartite_parts(g) == expected.get(g)
