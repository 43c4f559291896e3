"""Per-layer metrics from the span files that ``tracechild.py`` writes.

A layer is a kronwalk module (the three harness modules form one layer); a
span's layer is the part of its name before the first dot.  A span's self
time is its duration minus the durations of its direct children; spans nest,
so that is the time no deeper traced call covers.  Every metric is a mean
per traced op, apart from the ratios, which are ratios of totals.
"""

from __future__ import annotations

import marshal
from collections import defaultdict

import numpy as np

from workloads import CLAIM_IDS

LAYERS = ("cli", "edgelist", "graphs", "walks", "boolmat", "kronecker", "cycles",
          "predict", "harness")
TRAVERSALS = ("walks.parity_distances", "walks.distance_matrix", "walks.is_connected",
              "walks.is_bipartite")


def _metric_units() -> dict[str, str]:
    units = {"cli.startup_s": "s/op"}
    units.update({f"{layer}.self_s": "s/op" for layer in LAYERS})
    for name in ("edgelist.read_s", "edgelist.write_s", "graphs.build_s", "walks.parity_s",
                 "walks.distance_s", "walks.exponent_s", "kronecker.build_s",
                 "kronecker.product_bfs_s", "cycles.l_o_s", "predict.summarize_s",
                 "harness.generate_s", "harness.check_s"):
        units[name] = "s/op"
    units.update({f"harness.{cid}.s": "s/op" for cid in CLAIM_IDS})
    for name in ("edgelist.read_bytes", "edgelist.write_bytes"):
        units[name] = "bytes/op"
    for name in ("graphs.builds", "graphs.built_vertices", "walks.parity_calls",
                 "walks.parity_sources", "walks.distance_calls", "walks.distance_sources",
                 "walks.traversals_per_op", "boolmat.mul_calls", "kronecker.product_vertices",
                 "kronecker.product_edges", "kronecker.product_bfs_sources",
                 "cycles.l_o_calls", "cycles.considered", "predict.summarize_calls",
                 "harness.instances"):
        units[name] = "count/op"
    for name in ("cycles.exact_ratio", "predict.summarize_distinct_ratio",
                 "harness.sample_accept_ratio", "trace.coverage", "trace.overhead_ratio"):
        units[name] = "ratio"
    return units


UNITS = _metric_units()


class LayerTotals:
    """Sums over the traced ops of one run."""

    def __init__(self) -> None:
        self.ops = 0
        self.wall = 0.0
        self.untraced_wall = 0.0
        self.startup = 0.0
        self.covered = 0.0
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, float] = defaultdict(float)
        self.counters: defaultdict[str, float] = defaultdict(float)

    def add(self, trace_path: str, wall: float, untraced_wall: float) -> None:
        with open(trace_path, "rb") as handle:
            names, startup, counters, name_ids, parents, starts, ends = marshal.load(handle)
        name_ids = np.frombuffer(name_ids, dtype=np.int32)
        parents = np.frombuffer(parents, dtype=np.int32)
        duration = np.frombuffer(ends, dtype=np.float64) - np.frombuffer(starts, dtype=np.float64)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested],
                               minlength=len(duration))
        own = duration - children
        k = len(names)
        for name, self_s, incl, calls in zip(
            names,
            np.bincount(name_ids, weights=own, minlength=k),
            np.bincount(name_ids, weights=duration, minlength=k),
            np.bincount(name_ids, minlength=k),
        ):
            self.self_time[name.split(".")[0]] += self_s
            self.inclusive[name] += incl
            self.calls[name] += calls
        for key, value in counters.items():
            self.counters[key] += value
        self.ops += 1
        self.wall += wall
        self.untraced_wall += untraced_wall
        self.startup += startup
        self.covered += startup + float(duration[~nested].sum())

    def metrics(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        incl, calls, c = self.inclusive, self.calls, self.counters

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def prefixed(table, prefix: str) -> float:
            return sum(v for k, v in table.items() if k.startswith(prefix))

        m = {
            "cli.startup_s": self.startup / ops,
            "edgelist.read_s": incl["edgelist.read_graph"] / ops,
            "edgelist.read_bytes": c["edgelist.read_bytes"] / ops,
            "edgelist.write_s": incl["edgelist.write_graph"] / ops,
            "edgelist.write_bytes": c["edgelist.write_bytes"] / ops,
            "graphs.build_s": incl["graphs.Graph"] / ops,
            "graphs.builds": calls["graphs.Graph"] / ops,
            "graphs.built_vertices": c["graphs.built_vertices"] / ops,
            "walks.parity_s": incl["walks.parity_distances"] / ops,
            "walks.parity_calls": calls["walks.parity_distances"] / ops,
            "walks.parity_sources": c["walks.parity_sources"] / ops,
            "walks.distance_s": incl["walks.distance_matrix"] / ops,
            "walks.distance_calls": calls["walks.distance_matrix"] / ops,
            "walks.distance_sources": c["walks.distance_sources"] / ops,
            "walks.exponent_s": incl["walks.exponent"] / ops,
            "walks.traversals_per_op": sum(calls[t] for t in TRAVERSALS) / ops,
            "boolmat.mul_calls": calls["boolmat.bool_mul"] / ops,
            "kronecker.build_s": incl["kronecker.kronecker_product"] / ops,
            "kronecker.product_vertices": c["kronecker.product_vertices"] / ops,
            "kronecker.product_edges": c["kronecker.product_edges"] / ops,
            "kronecker.product_bfs_s": c["kronecker.product_bfs_s"] / ops,
            "kronecker.product_bfs_sources": c["kronecker.product_bfs_sources"] / ops,
            "cycles.l_o_s": incl["cycles.l_o_bound"] / ops,
            "cycles.l_o_calls": calls["cycles.l_o_bound"] / ops,
            "cycles.considered": c["cycles.considered"] / ops,
            "cycles.exact_ratio": ratio(c["cycles.exact"], calls["cycles.l_o_bound"]),
            "predict.summarize_s": incl["predict.summarize"] / ops,
            "predict.summarize_calls": calls["predict.summarize"] / ops,
            "predict.summarize_distinct_ratio": ratio(c["predict.summarize_distinct"],
                                                      calls["predict.summarize"]),
            "harness.instances": c["harness.instances"] / ops,
            "harness.generate_s": prefixed(incl, "harness.generate:") / ops,
            "harness.check_s": prefixed(incl, "harness.check:") / ops,
            "harness.sample_accept_ratio": ratio(calls["harness.random_connected"],
                                                 c["harness.samples"]),
            "trace.coverage": ratio(self.covered, self.wall),
            "trace.overhead_ratio": ratio(self.wall, self.untraced_wall),
        }
        for cid in CLAIM_IDS:
            m[f"harness.{cid}.s"] = (incl[f"harness.check:{cid}"]
                                     + incl[f"harness.generate:{cid}"]) / ops
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_time[layer] / ops
        return m
