"""Campaign runner: run each claim's checker and shrink its counterexample.

A campaign is deterministic in (claims, ensemble, seed): the random stream
of each claim is seeded from the campaign seed and the claim id, so adding
or removing claims never shifts another claim's instances.  A claim stops
at its first failing instance, which is shrunk to a locally minimal one;
its record holds that instance and the check's failure on it, so a reporter
only formats what the campaign found.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Iterator, NamedTuple

from ..graphs import Graph
from .claims import CLAIM_IDS, REGISTRY, Claim, Failure, Instance, memo_profiles
from .ensembles import EnsembleSpec


class CheckOutcome(NamedTuple):
    """A claim's run: ``counterexample`` is its first failing instance,
    shrunk, and ``failure`` what the claim's check reports on it."""

    claim: Claim
    instances_checked: int
    counterexample: Instance | None
    failure: Failure | None
    elapsed: float


def run_campaign(
    claim_ids: list[str], ensemble: EnsembleSpec, seed: int
) -> list[CheckOutcome]:
    """Check each claim over its ensemble, stopping a claim at its first failure.

    Every id is looked up before any claim runs, so an unknown one is refused
    at once.  Claims are read from ``REGISTRY`` at call time.
    """
    unknown = [claim_id for claim_id in claim_ids if claim_id not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown claim {unknown[0]!r}; known: {', '.join(CLAIM_IDS)}")
    outcomes = []
    for claim in [REGISTRY[claim_id] for claim_id in claim_ids]:
        rng = random.Random(f"{seed}:{claim.claim_id}")
        start = time.perf_counter()
        checked = 0
        counterexample = failure = None
        # The pair pools reuse each factor many times; a fresh memo per claim
        # profiles it once, and a check run outside a campaign computes afresh.
        with memo_profiles():
            for instance in claim.instances(ensemble, rng):
                checked += 1
                failure = claim.check(instance)
                if failure is not None:
                    break
        elapsed = time.perf_counter() - start
        if failure is not None:
            counterexample, failure = minimize_counterexample(claim, instance, failure)
        outcomes.append(CheckOutcome(claim, checked, counterexample, failure, elapsed))
        # Give the claim's freed heap back before the next claim runs.  The
        # collection finds nothing unreachable; a full one also empties the
        # interpreter's free lists (CPython 3.11), which otherwise keep the
        # pools of the tuples, lists and dicts the claim freed partly in use,
        # so the next claim grows the heap instead of reusing them.  With
        # `run`'s `gc.freeze()` no automatic full collection comes inside a
        # `verify` process.  All 20 claims at `--exhaustive 3 --random 100`,
        # seeds 0 and 1, peaked at 16.3-16.7 MB without it and 15.7 MB with
        # it; the 20 collections took 5-10 ms of a 0.4-0.6 s campaign
        # (Python 3.11.7, 2 vCPUs).
        gc.collect()
    return outcomes


def _single_deletions(graphs: Instance) -> Iterator[Instance]:
    """The instance less one vertex or one edge: graph by graph, every vertex
    first, with the labels above it shifted down by one, then every edge in
    ``edges()`` order.  A graph of order one keeps its vertex."""
    for i, g in enumerate(graphs):
        edges = list(g.edges())
        for v in range(g.order if g.order >= 2 else 0):
            kept = [(a - (a > v), b - (b > v)) for a, b in edges if v not in (a, b)]
            yield graphs[:i] + (Graph(g.order - 1, kept),) + graphs[i + 1 :]
        for k in range(len(edges)):
            kept = edges[:k] + edges[k + 1 :]
            yield graphs[:i] + (Graph(g.order, kept),) + graphs[i + 1 :]


def minimize_counterexample(
    claim: Claim, instance: Instance, failure: Failure
) -> tuple[Instance, Failure]:
    """Greedy shrink: drop vertices, then edges, while the claim still fails.

    ``failure`` is what the claim's check reported on ``instance``, which is
    not checked again.  Returns the shrunk instance with the failure the check
    reported on it.  The result is locally minimal: no single vertex or edge
    deletion keeps it failing.  Checks are pure, so a candidate found passing
    in one round is skipped in the later ones: each is checked once.
    """
    passed = set()
    while True:
        for smaller in _single_deletions(instance):
            if smaller in passed:
                continue
            smaller_failure = claim.check(smaller)
            if smaller_failure is not None:
                instance, failure = smaller, smaller_failure
                break
            passed.add(smaller)
        else:
            return instance, failure
