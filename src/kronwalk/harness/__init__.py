"""Verification harness: claim checkers, ensembles, and campaign driver."""

from ..edgelist import graph_to_json
from .campaign import (
    CheckOutcome,
    counterexample_to_json,
    get_claim,
    minimize_counterexample,
    run_campaign,
)
from .claims import CLAIM_IDS, REGISTRY, Claim, Failure
from .ensembles import EnsembleSpec, connected_graphs, random_connected, with_all_loops

__all__ = [
    "CLAIM_IDS",
    "CheckOutcome",
    "Claim",
    "EnsembleSpec",
    "Failure",
    "REGISTRY",
    "connected_graphs",
    "counterexample_to_json",
    "get_claim",
    "graph_to_json",
    "minimize_counterexample",
    "random_connected",
    "run_campaign",
    "with_all_loops",
]
