"""Run one kronwalk CLI command with every public kronwalk function traced.

Usage: ``python tracechild.py TRACE_FILE SPAWN_TIME CLI_ARG...``

The kronwalk sources are not changed.  Before ``kronwalk.cli.main`` runs,
each public function of each kronwalk module (and ``Graph.__init__``) is
replaced by a wrapper, and every name in every kronwalk module that refers to
the original is rebound to the wrapper, so calls between modules and within a
module both pass through it.  Claims are reached through the claim registry,
so its entries get wrapped ``check`` and ``instances`` callables.

A wrapper records a span (name, start, end, parent span) in memory and, for a
few functions, adds to counters at the same boundary.  Generators get one
span per resumption, so the work they do lands in their own layer.  The spans
and counters are written to TRACE_FILE when the command ends, whatever its
outcome.  SPAWN_TIME is the parent's ``time.time()`` just before it started
this process; the time from then until ``kronwalk.cli`` is imported is the
command's start-up time.
"""

import sys
import time

_trace_file, _spawn = sys.argv[1], float(sys.argv[2])

import kronwalk.cli  # noqa: E402  (start-up ends when this import is done)

_startup = time.time() - _spawn

import dataclasses  # noqa: E402
import inspect  # noqa: E402
import marshal  # noqa: E402
import os  # noqa: E402
from array import array  # noqa: E402
from collections import defaultdict, deque  # noqa: E402

MODULES = (
    "graphs", "walks", "boolmat", "cycles", "edgelist", "kronecker", "predict",
    "extlen", "harness.campaign", "harness.claims", "harness.ensembles", "cli",
)
# Traversals: (all sources at once?, counter of sources run).
TRAVERSALS = {
    "walks.parity_distances": (True, "walks.parity_sources"),
    "walks.distance_matrix": (True, "walks.distance_sources"),
    "walks.is_connected": (False, None),
    "walks.is_bipartite": (False, None),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.recent_products: deque = deque(maxlen=4)
        self.summarized: set = set()

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            return lambda *args, **kwargs: self.iterate(name, fn(*args, **kwargs))
        nid = self._id(name)
        span_name, parent, start, end, stack = (
            self.span_name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result, end[i] - start[i])
            return result

        return traced

    def iterate(self, name, iterator):
        """Re-yield ``iterator``, one span per resumption."""
        step = self.wrap(name, next)
        while True:
            try:
                item = step(iterator)
            except StopIteration:
                return
            yield item

    # -- counters recorded at layer boundaries -------------------------------

    def hooks(self) -> dict:
        c = self.counters

        def built(args, result, dur):
            c["graphs.built_vertices"] += args[0].order

        def traversal(name):
            all_sources, counter = TRAVERSALS[name]

            def hook(args, result, dur):
                g = args[0]
                if counter:
                    c[counter] += g.order
                if any(g is p for p in self.recent_products):
                    c["kronecker.product_bfs_s"] += dur
                    c["kronecker.product_bfs_sources"] += g.order if all_sources else 1
            return hook

        def product(args, result, dur):
            self.recent_products.append(result)
            c["kronecker.product_vertices"] += result.order
            c["kronecker.product_edges"] += result.edge_count

        def cycle_bound(args, result, dur):
            c["cycles.considered"] += result.cycles_considered
            c["cycles.exact"] += result.exact

        def file_bytes(counter):
            def hook(args, result, dur):
                c[counter] += os.path.getsize(args[0])
            return hook

        def summarized(args, result, dur):
            self.summarized.add(args[0])

        def campaign(args, result, dur):
            c["harness.instances"] += sum(o.instances_checked for o in result)

        random_connected = self._id("harness.random_connected")

        def sampled(args, result, dur):
            if self.span_name[self.stack[-1]] == random_connected:
                c["harness.samples"] += 1

        return {
            "graphs.Graph": built,
            **{name: traversal(name) for name in TRAVERSALS},
            "kronecker.kronecker_product": product,
            "cycles.l_o_bound": cycle_bound,
            "edgelist.read_graph": file_bytes("edgelist.read_bytes"),
            "edgelist.write_graph": file_bytes("edgelist.write_bytes"),
            "predict.summarize": summarized,
            "harness.run_campaign": campaign,
            "graphs.random_graph": sampled,
        }

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        hooks = self.hooks()
        modules = {m: sys.modules["kronwalk." + m] for m in MODULES}
        wrapped = {}
        for short, module in modules.items():
            layer = short.split(".")[0]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    qual = f"{layer}.{name}"
                    wrapped[obj] = self.wrap(qual, obj, hooks.get(qual))
        graph = modules["graphs"].Graph
        graph.__init__ = self.wrap("graphs.Graph", graph.__init__, hooks["graphs.Graph"])
        targets = [m for m in sys.modules.values()
                   if m is not None and m.__name__.split(".")[0] == "kronwalk"]
        for module in targets:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])
        registry = modules["harness.claims"].REGISTRY
        for cid, claim in registry.items():
            registry[cid] = dataclasses.replace(
                claim,
                check=self.wrap(f"harness.check:{cid}", claim.check),
                instances=self._instances(cid, claim.instances),
            )

    def _instances(self, cid, instances):
        return lambda spec, rng: self.iterate(f"harness.generate:{cid}", instances(spec, rng))

    def dump(self, path: str, startup: float) -> None:
        self.counters["predict.summarize_distinct"] = len(self.summarized)
        record = (
            self.names,
            startup,
            dict(self.counters),
            array("i", self.span_name).tobytes(),
            array("i", self.parent).tobytes(),
            array("d", self.start).tobytes(),
            array("d", self.end).tobytes(),
        )
        with open(path, "wb") as handle:
            marshal.dump(record, handle)


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return kronwalk.cli.main(sys.argv[3:])
    finally:
        tracer.dump(_trace_file, _startup)


if __name__ == "__main__":
    sys.exit(main())
