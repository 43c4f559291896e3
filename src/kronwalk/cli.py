"""Command-line front door.

Commands: ``metrics`` (walk metrics of one graph), ``product`` (measure a
Kronecker product's diameter from the factors, compare it with the
prediction, and optionally write the product out), ``predict``
(closed-form prediction only), ``verify`` (report the claim campaign that
``harness.campaign.run_campaign`` runs), and ``generate`` (construct a
graph and write it out).  Each command reads its flags, calls the library
and builds one document from what it returns.

Graphs are given either as an edge-list file path or as a family
expression: ``path:n``, ``cycle:n``, ``complete:n``, ``complete+:n``,
``multipartite:a,b,c``, ``H:n,p``, ``F:n,p``.

All stdout output is a single JSON document (infinite values appear as the
string "inf"); progress and diagnostics go to stderr.  Exit codes: 0 ok,
1 usage or input error, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import NoReturn, Sequence

from .cycles import DEFAULT_CYCLE_CAP, l_o_bound
from .edgelist import graph_to_json, read_graph, write_graph
from .extlen import to_json
from .graphs import (
    ENUM_CAP_LOOPED,
    Graph,
    make_complete,
    make_complete_multipartite,
    make_cycle,
    make_f_family,
    make_h_family,
    make_path,
    random_graph,
)
from .harness.campaign import CheckOutcome, run_campaign
from .harness.claims import CLAIM_IDS
from .harness.ensembles import EnsembleSpec
from .kronecker import kronecker_product, product_diameter, product_edge_count
from .predict import DiameterPrediction, predict_diameter
from .walks import ParityProfile, summarize


_FAMILIES = {
    "path": (make_path, 1),
    "cycle": (make_cycle, 1),
    "complete": (lambda n: make_complete(n, with_loops=False), 1),
    "complete+": (lambda n: make_complete(n, with_loops=True), 1),
    "H": (make_h_family, 2),
    "F": (make_f_family, 2),
    "multipartite": (lambda *sizes: make_complete_multipartite(sizes), None),
}


def parse_graph_spec(spec: str) -> Graph:
    """Family expression or edge-list file path."""
    head, sep, rest = spec.partition(":")
    if sep and head in _FAMILIES:
        builder, arity = _FAMILIES[head]
        args = _int_args(spec, rest, arity)
        try:
            return builder(*args)
        except ValueError as exc:
            raise ValueError(f"{spec}: {exc}") from None
    try:
        return read_graph(spec)
    except OSError as exc:
        raise ValueError(f"cannot read graph file {spec!r}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{spec}: {exc}") from None


def _int_args(spec: str, rest: str, arity: int | None) -> list[int]:
    parts = rest.split(",") if rest else []
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"{spec}: parameters must be integers") from None
    if arity is not None and len(values) != arity:
        raise ValueError(f"{spec}: expected {arity} parameter(s)")
    return values


def _emit(document: dict) -> None:
    print(json.dumps(document, sort_keys=True, indent=2, allow_nan=False))


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _prediction_json(
    pred: DiameterPrediction, s1: ParityProfile, s2: ParityProfile
) -> dict:
    bounds = None
    if pred.bounds is not None:
        bounds = {"lower": to_json(pred.bounds.lower), "upper": to_json(pred.bounds.upper)}
    return {
        "predicted": to_json(pred.value),
        "case": pred.case,
        "bounds": bounds,
        "gamma1": to_json(s1.exponent),
        "gamma2": to_json(s2.exponent),
        "d1": to_json(s1.diameter),
        "d2": to_json(s2.diameter),
    }


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.cap_cycles < 1:
        raise ValueError(f"--cap-cycles must be at least 1, got {args.cap_cycles}")
    g = parse_graph_spec(args.graph)
    s = summarize(g)
    document = {
        "order": g.order,
        "edges": g.edge_count,
        "connected": s.connected,
        "bipartite": s.bipartite,
        "odd_girth": to_json(s.odd_girth),
        "diameter": to_json(s.diameter),
        "exponent": to_json(s.exponent),
        "witness_pair": list(s.witness_pair) if s.witness_pair else None,
        "l_o": None,
        "l_o_exact": None,
    }
    if s.connected:
        bound = l_o_bound(g, s, cap=args.cap_cycles)
        document["l_o"] = to_json(bound.l_o)
        document["l_o_exact"] = bound.exact
    _emit(document)
    return 0


def cmd_product(args: argparse.Namespace) -> int:
    g1 = parse_graph_spec(args.graph1)
    g2 = parse_graph_spec(args.graph2)
    # Build first, so an oversized product fails before any other work, and
    # write after the profiles, so a factor they refuse leaves no file behind.
    product = kronecker_product(g1, g2) if args.out else None
    s1, s2 = summarize(g1), summarize(g2)
    if product is not None:
        _write_output(args.out, product, args.format)
    prediction = predict_diameter(s1, s2)
    measured = product_diameter(s1, s2)
    document = {
        "order": g1.order * g2.order,
        "edges": product_edge_count(g1, g2),
        "measured": to_json(measured),
        "match": prediction.value == measured,
        "out": args.out,
        **_prediction_json(prediction, s1, s2),
    }
    _emit(document)
    if prediction.value != measured:
        _progress(
            f"prediction {to_json(prediction.value)} disagrees with "
            f"measured diameter {to_json(measured)}"
        )
        return 2
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    g1 = parse_graph_spec(args.graph1)
    g2 = parse_graph_spec(args.graph2)
    s1, s2 = summarize(g1), summarize(g2)
    _emit(_prediction_json(predict_diameter(s1, s2), s1, s2))
    return 0


def _outcome_json(outcome: CheckOutcome) -> dict:
    failure, counterexample = outcome.failure, None
    if failure is not None:
        counterexample = {
            "graphs": [graph_to_json(g) for g in outcome.counterexample],
            "expected": to_json(failure.expected),
            "actual": to_json(failure.actual),
            "detail": failure.detail,
        }
    return {
        "claim_id": outcome.claim.claim_id,
        "description": outcome.claim.description,
        "instances_checked": outcome.instances_checked,
        "pass": failure is None,
        "counterexample": counterexample,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    # Exhaustive sweeps hold one graph per isomorphism class of each order,
    # found by marking every relabeling, so the orders stop at the library's
    # enumeration caps.
    if not 1 <= args.exhaustive <= ENUM_CAP_LOOPED:
        raise ValueError(
            f"--exhaustive must lie in [1, {ENUM_CAP_LOOPED}], got {args.exhaustive}"
        )
    if args.random < 0:
        raise ValueError(f"--random must be at least 0, got {args.random}")
    if args.claims == "all":
        claim_ids = list(CLAIM_IDS)
    else:
        # A claim named twice runs once, in first-seen order.
        claim_ids = list(
            dict.fromkeys(c.strip() for c in args.claims.split(",") if c.strip())
        )
    if not claim_ids:
        raise ValueError(f"--claims names no claim: {args.claims!r}")
    ensemble = EnsembleSpec(exhaustive_order=args.exhaustive, random_count=args.random)
    outcomes = run_campaign(claim_ids, ensemble, args.seed)
    # A claim that checked nothing has shown nothing, so it cannot pass.
    unchecked = [o.claim.claim_id for o in outcomes if not o.instances_checked]
    if unchecked:
        raise ValueError(
            f"--exhaustive {args.exhaustive} --random {args.random} gives no "
            f"instance to {', '.join(unchecked)}"
        )
    for o in outcomes:
        _progress(
            f"{o.claim.claim_id}: {o.instances_checked} instances in {o.elapsed:.2f}s"
        )
    passed = all(o.failure is None for o in outcomes)
    _emit(
        {
            "seed": args.seed,
            "claims": [_outcome_json(o) for o in outcomes],
            "pass": passed,
        }
    )
    return 0 if passed else 2


def cmd_generate(args: argparse.Namespace) -> int:
    if args.spec.startswith("random:"):
        params = _int_args(args.spec, args.spec.partition(":")[2], 1)
        try:
            g = random_graph(params[0], args.edge_prob, args.loop_prob, args.seed)
        except ValueError as exc:
            raise ValueError(f"{args.spec}: {exc}") from None
    else:
        g = parse_graph_spec(args.spec)
    if args.out:
        _write_output(args.out, g, args.format)
        _emit({"order": g.order, "edges": g.edge_count, "out": args.out})
    else:
        _emit({**graph_to_json(g), "out": None})
    return 0


def _write_output(path: str, g: Graph, fmt: str) -> None:
    if fmt == "edgelist":
        write_graph(path, g)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(graph_to_json(g), sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # verification mismatches here, so remap usage errors to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="kronwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    metrics = sub.add_parser("metrics", help="walk metrics of one graph")
    metrics.add_argument("graph", help="edge-list file or family expression")
    metrics.add_argument(
        "--cap-cycles", type=int, default=DEFAULT_CYCLE_CAP,
        help="most odd cycles the cycle bound considers; the search between "
             "them is not capped, and on graphs such as grids it can be long",
    )
    metrics.set_defaults(func=cmd_metrics)

    product = sub.add_parser("product", help="check the diameter of a product")
    product.add_argument("graph1")
    product.add_argument("graph2")
    product.add_argument("--out", help="write the product to this path")
    product.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    product.set_defaults(func=cmd_product)

    predict = sub.add_parser("predict", help="closed-form diameter prediction")
    predict.add_argument("graph1")
    predict.add_argument("graph2")
    predict.set_defaults(func=cmd_predict)

    verify = sub.add_parser("verify", help="run claim checkers")
    verify.add_argument("--claims", default="all", help="comma-separated ids or 'all'")
    verify.add_argument("--exhaustive", type=int, default=4, metavar="N",
                        help=f"exhaustive cap with loops, 1 to {ENUM_CAP_LOOPED} "
                        "(loopless cap is N+1)")
    verify.add_argument("--random", type=int, default=500, metavar="COUNT")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    generate = sub.add_parser("generate", help="construct a graph and write it out")
    generate.add_argument("spec", help="family expression or random:n")
    generate.add_argument("--out")
    generate.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    generate.add_argument("--edge-prob", type=float, default=0.5)
    generate.add_argument("--loop-prob", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        _progress(f"error: {exc}")
        return 1
    except Exception as exc:  # any other failure still exits 1 with a message
        _progress(f"error: {type(exc).__name__}: {exc}")
        return 1


def run() -> NoReturn:
    """Process entry of ``python -m kronwalk.cli`` and the ``kronwalk`` script.

    Moves every object the imports left behind into the collector's permanent
    generation, so the full collections the interpreter runs at shutdown skip
    them; the objects live until exit either way.  ``main`` itself keeps no
    process-wide effect, because tests and the benchmark call it in process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
