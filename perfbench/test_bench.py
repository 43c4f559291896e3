"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  The smoke
runs take a few seconds in all; the reference tests compare the benchmark's
own answers with kronwalk's on small graphs, which is the one place the two
are allowed to meet.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import kronwalk  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric_and_passes_checks(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["failures"] == {}
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    for key in ("python", "nproc", "loadavg_before", "loadavg_after",
                "kronwalk_source_sha256", "trace_overhead_ratio"):
        assert key in report["env"]
    assert len(report["inputs_sha256"]) == 64


def test_same_seed_same_inputs():
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        a, b = workloads.schedule(workload, 5), workloads.schedule(workload, 5)
        assert workloads.digest(a) == workloads.digest(b)
        assert workloads.digest(a) != workloads.digest(workloads.schedule(workload, 6))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("--workload", "factor", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _small_graphs():
    rng = random.Random(11)
    graphs = [workloads.family(e) for e in (
        "path:2", "path:7", "cycle:3", "cycle:8", "cycle:9", "complete:2", "complete+:3",
        "H:7,3", "F:9,5")]
    graphs += [workloads.random_connected(rng, rng.randint(2, 12), extra=rng.randint(0, 3),
                                          p=rng.uniform(0, 0.4), loop_p=rng.uniform(0, 0.3))
               for _ in range(40)]
    return graphs


def _graph(g: workloads.Spec) -> kronwalk.Graph:
    return kronwalk.Graph(g.n, g.edges)


def test_reference_facts_agree_with_kronwalk():
    for g in _small_graphs():
        f, kg = reference.facts(g), _graph(g)
        assert f.exponent == kronwalk.oracle_exponent(kg) == kronwalk.exponent(kg).gamma
        assert f.diameter == kronwalk.diameter(kg)
        assert f.odd_girth == kronwalk.odd_girth(kg)
        assert (f.connected, f.bipartite) == (kronwalk.is_connected(kg), kronwalk.is_bipartite(kg))
        if f.exponent != reference.INF:
            u, v = kronwalk.exponent(kg).witness_pair
            assert f.lacks_walk(u, v)


def test_reference_product_agrees_with_kronwalk():
    graphs = _small_graphs()[:20]
    for g1, g2 in zip(graphs, graphs[1:]):
        prod = reference.product(g1, g2)
        kprod = kronwalk.kronecker_product(_graph(g1), _graph(g2))
        assert prod == workloads.Spec(kprod.order, tuple(kprod.edges()))
        assert reference.facts(prod).diameter == kronwalk.diameter(kprod)


def test_family_labelling_matches_the_cli():
    from kronwalk.cli import parse_graph_spec

    for expr in ("path:5", "cycle:6", "complete:4", "complete+:3", "H:9,4", "F:10,5"):
        g = parse_graph_spec(expr)
        assert workloads.family(expr) == workloads.Spec(g.order, tuple(g.edges()))
