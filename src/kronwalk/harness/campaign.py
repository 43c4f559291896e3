"""Campaign driver: run claim checkers, collect and shrink counterexamples.

A campaign is deterministic in (claims, ensemble, seed): the random stream
of each claim is seeded from the campaign seed and the claim id, so adding
or removing claims never shifts another claim's instances.
"""

from __future__ import annotations

import random
import time
from typing import Iterator, NamedTuple

from ..edgelist import graph_to_json
from ..extlen import to_json
from .claims import CLAIM_IDS, REGISTRY, Claim, Failure, Instance, memo_profiles
from .ensembles import EnsembleSpec


class CheckOutcome(NamedTuple):
    """A claim's run: ``counterexample`` is its first failing instance."""

    claim_id: str
    instances_checked: int
    counterexample: Instance | None
    elapsed: float


def get_claim(claim_id: str) -> Claim:
    try:
        return REGISTRY[claim_id]
    except KeyError:
        raise ValueError(
            f"unknown claim {claim_id!r}; known: {', '.join(CLAIM_IDS)}"
        ) from None


def run_campaign(
    claim_ids: list[str], ensemble: EnsembleSpec, seed: int
) -> list[CheckOutcome]:
    """Check each claim over its ensemble, stopping a claim at its first failure."""
    outcomes = []
    for claim_id in claim_ids:
        claim = get_claim(claim_id)
        rng = random.Random(f"{seed}:{claim_id}")
        start = time.perf_counter()
        checked = 0
        counterexample = None
        # The pair pools reuse each factor many times; a fresh memo per claim
        # profiles it once, and a check run outside a campaign computes afresh.
        with memo_profiles():
            for instance in claim.instances(ensemble, rng):
                checked += 1
                if claim.check(instance) is not None:
                    counterexample = instance
                    break
        outcomes.append(
            CheckOutcome(
                claim_id=claim_id,
                instances_checked=checked,
                counterexample=counterexample,
                elapsed=time.perf_counter() - start,
            )
        )
    return outcomes


def _single_deletions(graphs: Instance) -> Iterator[Instance]:
    """The instance less one vertex or one edge: graph by graph, vertices
    first.  A graph of order one keeps its vertex."""
    for i, g in enumerate(graphs):
        for v in range(g.order if g.order >= 2 else 0):
            yield graphs[:i] + (g.remove_vertex(v),) + graphs[i + 1 :]
        for u, v in g.edges():
            yield graphs[:i] + (g.remove_edge(u, v),) + graphs[i + 1 :]


def minimize_counterexample(claim: Claim, instance: Instance) -> Instance:
    """Greedy shrink: drop vertices, then edges, while the claim still fails.

    A non-failing instance is returned unchanged.  The result is locally
    minimal: no single vertex or edge deletion keeps it failing.
    """
    if claim.check(instance) is None:
        return instance
    while True:
        smaller = next(
            (c for c in _single_deletions(instance) if claim.check(c) is not None),
            None,
        )
        if smaller is None:
            return instance
        instance = smaller


def counterexample_to_json(graphs: Instance, failure: Failure) -> dict:
    def value(obj: object) -> object:
        return to_json(obj) if isinstance(obj, (int, float)) else obj

    return {
        "graphs": [graph_to_json(g) for g in graphs],
        "expected": value(failure.expected),
        "actual": value(failure.actual),
        "detail": failure.detail,
    }
