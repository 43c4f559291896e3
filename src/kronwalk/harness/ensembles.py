"""Deterministic graph ensembles for verification campaigns.

Every generator is a pure function of an :class:`EnsembleSpec` and a seeded
``random.Random``, so a campaign with the same spec and seed always visits
the same instances.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from ..graphs import Graph, random_graph, unlabeled_graphs
from ..walks import is_connected


RANDOM_ORDER = 6  # largest random graph, in most claims
RANDOM_SINGLE_ORDER = 8  # largest random graph in the cycle-bound claim


class EnsembleSpec(NamedTuple):
    """Cap for exhaustive sweeps and count for randomized ones."""

    exhaustive_order: int = 4  # graphs with loops up to this order, one per class
    random_count: int = 500  # random instances per claim

    @property
    def exhaustive_loopless_order(self) -> int:
        return self.exhaustive_order + 1


def connected_graphs(
    max_order: int, allow_loops: bool, min_order: int = 1
) -> Iterator[Graph]:
    """One connected graph per isomorphism class, orders in ``[min_order, max_order]``."""
    for n in range(min_order, max_order + 1):
        for g in unlabeled_graphs(n, allow_loops):
            if is_connected(g):
                yield g


def random_connected(rng: random.Random, max_order: int, loops: bool = True) -> Graph:
    """Rejection-sample a connected random graph of order 2 to ``max_order``."""
    while True:
        n = rng.randint(2, max_order)
        edge_prob = rng.uniform(0.3, 0.9)
        loop_prob = rng.uniform(0.0, 0.6) if loops else 0.0
        g = random_graph(n, edge_prob, loop_prob, seed=rng.randrange(2**60))
        if is_connected(g):
            return g


def with_all_loops(g: Graph) -> Graph:
    return Graph(g.order, list(g.edges()) + [(v, v) for v in range(g.order)])
