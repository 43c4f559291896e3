import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from kronwalk import Graph, make_cycle, read_graph, write_graph
from kronwalk.cli import main, parse_graph_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_graph_spec_families():
    assert parse_graph_spec("cycle:5") == make_cycle(5)
    assert parse_graph_spec("complete+:2") == Graph(2, [(0, 0), (1, 1), (0, 1)])
    assert parse_graph_spec("multipartite:2,2").order == 4
    assert parse_graph_spec("H:5,3").order == 5
    assert parse_graph_spec("F:5,3").order == 5
    assert parse_graph_spec("path:1").order == 1


def test_parse_graph_spec_errors():
    for bad in ("cycle:2", "cycle:x", "H:3", "nosuchfile.txt", "what:1"):
        with pytest.raises(ValueError):
            parse_graph_spec(bad)


def test_metrics_cycle(capsys):
    code, out, _ = run_cli(capsys, "metrics", "cycle:5")
    assert code == 0
    doc = json.loads(out)
    assert doc["diameter"] == 2
    assert doc["exponent"] == 4
    assert doc["odd_girth"] == 5
    assert doc["l_o"] == 4
    assert doc["l_o_exact"] is True


def test_metrics_k_plus(capsys):
    code, out, _ = run_cli(capsys, "metrics", "complete+:3")
    assert code == 0
    assert json.loads(out)["exponent"] == 1


def test_metrics_family(capsys):
    code, out, _ = run_cli(capsys, "metrics", "F:5,3")
    assert code == 0
    assert json.loads(out)["exponent"] == 6


def test_metrics_disconnected_file(tmp_path, capsys):
    path = tmp_path / "split.edges"
    write_graph(path, Graph(4, [(0, 1), (2, 3)]))
    code, out, _ = run_cli(capsys, "metrics", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["diameter"] == "inf"
    assert doc["connected"] is False
    assert doc["l_o"] is None


def test_metrics_long_cycle(capsys):
    code, out, _ = run_cli(capsys, "metrics", "cycle:999")
    assert code == 0
    doc = json.loads(out)
    assert doc["exponent"] == 998 and doc["l_o"] == 998 and doc["l_o_exact"] is True


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_metrics_rejects_cycle_cap_below_one(tmp_path, capsys, cap):
    split = tmp_path / "split.edges"
    write_graph(split, Graph(4, [(0, 1), (2, 3)]))
    for graph in ("cycle:5", str(split)):
        code, out, err = run_cli(capsys, "metrics", graph, "--cap-cycles", cap)
        assert code == 1
        assert out == ""
        assert "--cap-cycles" in err


def test_metrics_bad_spec(capsys):
    code, out, err = run_cli(capsys, "metrics", "cycle:1")
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("multipartite:1", "multipartite:1: need at least two parts"),
        ("multipartite:2,x", "multipartite:2,x: parameters must be integers"),
    ],
)
def test_metrics_bad_multipartite_spec(capsys, spec, message):
    code, out, err = run_cli(capsys, "metrics", spec)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_product_writes_file_and_matches(tmp_path, capsys):
    out_path = tmp_path / "product.edges"
    code, out, _ = run_cli(
        capsys, "product", "cycle:3", "complete:2", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == 3 and doc["measured"] == 3 and doc["match"] is True
    product = read_graph(out_path)
    assert product.order == 6 and product.edge_count == 6


def test_product_disconnected(capsys):
    code, out, _ = run_cli(capsys, "product", "complete:2", "complete:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == "inf" and doc["measured"] == "inf"


def test_product_cycle_pair(capsys):
    code, out, _ = run_cli(capsys, "product", "cycle:5", "cycle:3")
    assert code == 0
    assert json.loads(out)["predicted"] == 3


def test_product_trivial_factor(capsys):
    code, out, _ = run_cli(capsys, "product", "complete+:1", "cycle:5")
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == 2 and doc["measured"] == 2


def test_product_builds_no_all_pairs_table(capsys):
    # Expanding the factors' parity tables for path:600 peaked at 11.95 MB;
    # two profiles keep a few lists of 600 bitsets of at most 600 bits each.
    tracemalloc.start()
    try:
        code = main(["product", "path:600", "cycle:3"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["measured"] == 599
    assert peak < 2_000_000


def test_metrics_builds_no_all_pairs_table(capsys):
    # The cycle bound's distance table for path:600 peaked at 7.0 MB; the
    # profile and one BFS per scored cycle keep a few lists of 600 entries.
    tracemalloc.start()
    try:
        code = main(["metrics", "path:600"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["l_o"] == "inf"
    assert peak < 2_000_000


def test_predict_order_one_factor_in_argument_order(capsys):
    code, out, _ = run_cli(capsys, "predict", "complete+:1", "cycle:5")
    assert code == 0
    doc = json.loads(out)
    assert (doc["gamma1"], doc["d1"], doc["gamma2"], doc["d2"]) == (1, 0, 4, 2)
    assert doc["predicted"] == 2 and doc["case"] == "OrderOneFactor"


def test_predict_only(capsys):
    code, out, _ = run_cli(capsys, "predict", "cycle:3", "path:4")
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == 3
    assert doc["gamma2"] == "inf"
    assert doc["bounds"] == {"lower": 3, "upper": 3}


def test_verify_single_claim(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--claims", "Thm3.4", "--exhaustive", "3",
        "--random", "5", "--seed", "7",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["claims"][0]["claim_id"] == "Thm3.4"
    assert doc["claims"][0]["instances_checked"] == 13 * 13


def test_verify_report_matches_golden_file(capsys):
    # Pins every claim's instance stream and count at a small size.
    golden = Path(__file__).parent / "data" / "verify_exhaustive3_random20_seed0.json"
    code, out, _ = run_cli(
        capsys, "verify", "--exhaustive", "3", "--random", "20", "--seed", "0"
    )
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_verify_report_is_byte_stable(capsys):
    args = ("verify", "--claims", "CorCycles,CorK2", "--exhaustive", "2",
            "--random", "4", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "flags", [("--exhaustive", "9"), ("--exhaustive", "0"), ("--random", "-1")]
)
def test_verify_rejects_out_of_range_sizes(monkeypatch, capsys, flags):
    import kronwalk.harness.ensembles as ensembles

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(ensembles, "unlabeled_graphs", refuse)
    code, out, err = run_cli(capsys, "verify", *flags)
    assert code == 1
    assert out == ""
    assert flags[0] in err


def test_verify_runs_a_repeated_claim_once(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--claims", "CorCycles,CorCycles", "--exhaustive", "1",
        "--random", "1",
    )
    assert code == 0
    assert [c["claim_id"] for c in json.loads(out)["claims"]] == ["CorCycles"]


def test_verify_refuses_an_ensemble_that_leaves_a_claim_unchecked(capsys):
    # The pair pools start at order 2, so order 1 with no random draw gives
    # the pair claims nothing to check.
    code, out, err = run_cli(capsys, "verify", "--exhaustive", "1", "--random", "0")
    assert code == 1
    assert out == ""
    named = err.strip().partition("gives no instance to ")[2].split(", ")
    assert named == [
        "Prop1.1", "Lem2.4", "Lem2.5", "Lem2.7", "Thm3.2", "Thm3.4", "Thm3.5",
        "ThmMultipartite", "CorLoops", "ParityRoute",
    ]


def test_verify_passes_a_claim_with_fixed_instances_at_the_smallest_ensemble(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--claims", "CorCycles", "--exhaustive", "1", "--random", "0"
    )
    assert code == 0
    (entry,) = json.loads(out)["claims"]
    assert entry["pass"] and entry["instances_checked"] > 0


def test_verify_unknown_claim(capsys):
    code, out, err = run_cli(capsys, "verify", "--claims", "nope")
    assert code == 1
    assert "unknown claim" in err


def test_product_mismatch_exits_two(monkeypatch, capsys):
    # force a wrong prediction: a mismatch must be signaled with exit 2
    import kronwalk.cli as cli_module
    from kronwalk.predict import DiameterPrediction

    real = cli_module.predict_diameter

    def wrong(s1, s2):
        pred = real(s1, s2)
        return DiameterPrediction(
            value=pred.value + 1,
            case=pred.case,
            bounds=pred.bounds,
            gamma1=pred.gamma1,
            gamma2=pred.gamma2,
            d1=pred.d1,
            d2=pred.d2,
        )

    monkeypatch.setattr(cli_module, "predict_diameter", wrong)
    code, out, err = run_cli(capsys, "product", "cycle:3", "cycle:5")
    assert code == 2
    doc = json.loads(out)
    assert doc["match"] is False
    assert "disagrees" in err


def test_verify_counterexample_exits_two_with_minimized_instance(monkeypatch, capsys):
    from kronwalk.harness.claims import REGISTRY, Claim, Failure

    def instances(spec, rng):
        yield (make_cycle(7),)

    def check(instance):
        (g,) = instance
        # fails whenever the graph has at least 5 vertices
        if g.order >= 5:
            return Failure("< 5 vertices", g.order, "synthetic failure")
        return None

    claim = Claim("synthetic", "always fails on big graphs", instances, check)
    monkeypatch.setitem(REGISTRY, "synthetic", claim)
    code, out, err = run_cli(capsys, "verify", "--claims", "synthetic")
    assert code == 2
    doc = json.loads(out)
    assert doc["pass"] is False
    cx = doc["claims"][0]["counterexample"]
    # minimization deleted vertices until the failure was about to vanish
    assert cx["graphs"][0]["order"] == 5
    assert cx["detail"] == "synthetic failure"


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["metrics"])  # missing the graph argument
    assert excinfo.value.code == 1


def test_generate_family_file(tmp_path, capsys):
    out_path = tmp_path / "c5.edges"
    code, out, _ = run_cli(capsys, "generate", "cycle:5", "--out", str(out_path))
    assert code == 0
    assert read_graph(out_path) == make_cycle(5)
    doc = json.loads(out)
    assert doc["order"] == 5 and doc["edges"] == 5


def test_generate_random_deterministic(tmp_path, capsys):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "generate", "random:6", "--edge-prob", "0.5",
            "--loop-prob", "0.25", "--seed", "42", "--out", str(path),
        )
        assert code == 0
    assert a.read_text() == b.read_text()


def test_generate_json_format(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, out, _ = run_cli(
        capsys, "generate", "path:3", "--out", str(out_path), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc == {"order": 3, "edges": [[0, 1], [1, 2]]}


def test_generate_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "generate", "path:3")
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == [[0, 1], [1, 2]]


def test_stdout_is_json_only(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--claims", "CorCycles", "--random", "2"
    )
    assert code == 0
    json.loads(out)  # the whole stdout is one JSON document
    assert "instances" in err  # progress goes to stderr


def test_oversized_edge_list_header_exits_one_at_once(monkeypatch, tmp_path, capsys):
    # The header alone must refuse the file: nothing graph-sized is built.
    import kronwalk.edgelist as edgelist_module

    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(edgelist_module, "Graph", no_graph)
    path = tmp_path / "huge.edges"
    path.write_text("n 1000000000\n0 1\n")
    code, out, err = run_cli(capsys, "metrics", str(path))
    assert code == 1 and out == ""
    assert "exceeds the limit" in err


def test_oversized_product_is_measured_but_not_written(tmp_path, capsys):
    out_path = tmp_path / "product.edges"
    code, out, err = run_cli(
        capsys, "product", "cycle:401", "cycle:401", "--out", str(out_path)
    )
    assert code == 1 and out == ""
    assert "exceeds the limit" in err
    assert not out_path.exists()
    code, out, _ = run_cli(capsys, "product", "cycle:401", "cycle:401")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 401 * 401 and doc["edges"] == 2 * 401 * 401
    assert doc["measured"] == 400 and doc["match"] is True


def run_cli_capped(cwd, *argv):
    # A child process capped at 256 MB of address space, so that a missing
    # size guard ends in MemoryError instead of allocating gigabytes.
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    return subprocess.run(
        [sys.executable, "-m", "kronwalk.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, preexec_fn=cap, timeout=60,
    )


def test_oversized_complete_graph_exits_one_at_once(tmp_path):
    # 100,000 vertices pass MAX_ORDER; about 5 * 10**9 edges do not pass
    # MAX_EDGES.
    result = run_cli_capped(tmp_path, "generate", "complete:100000")
    assert result.returncode == 1 and result.stdout == ""
    assert "edge count 4999950000 exceeds the limit" in result.stderr


def test_product_above_the_edge_limit_is_not_written(tmp_path):
    result = run_cli_capped(
        tmp_path, "product", "complete:800", "complete:3", "--out", "p.edges"
    )
    assert result.returncode == 1 and result.stdout == ""
    assert "edge count 1917600 exceeds the limit" in result.stderr
    assert not (tmp_path / "p.edges").exists()


def test_factor_above_the_table_limit_exits_one_at_once(tmp_path):
    # 3,001 vertices pass MAX_ORDER; their parity tables would need about
    # 450 MB, which the capped child does not have.  The bound leaves room
    # for interpreter start-up on a loaded host (the refusal takes ~0.15 s).
    start = time.perf_counter()
    result = run_cli_capped(tmp_path, "predict", "path:3001", "cycle:3")
    assert time.perf_counter() - start < 2
    assert result.returncode == 1 and result.stdout == ""
    assert "order 3001 exceeds the all-pairs table limit of 3000" in result.stderr


def test_factor_above_the_table_limit_writes_no_product(monkeypatch, tmp_path, capsys):
    import kronwalk.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "MAX_TABLE_ORDER", 5)
    out_path = tmp_path / "product.edges"
    code, out, err = run_cli(capsys, "product", "path:6", "cycle:3", "--out", str(out_path))
    assert code == 1 and out == ""
    assert "all-pairs table limit of 5" in err
    assert not out_path.exists()


def test_unexpected_exception_exits_one_with_its_type(monkeypatch, capsys):
    import kronwalk.cli as cli_module

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_module, "cmd_metrics", broken)
    code, out, err = run_cli(capsys, "metrics", "cycle:5")
    assert code == 1 and out == ""
    assert err == "error: RuntimeError: boom\n"


@pytest.mark.parametrize("claims", [",", ""])
def test_verify_refuses_an_empty_claim_list(monkeypatch, capsys, claims):
    import kronwalk.cli as cli_module

    campaigns = []
    monkeypatch.setattr(cli_module, "run_campaign", lambda *args: campaigns.append(args))
    code, out, err = run_cli(capsys, "verify", "--claims", claims)
    assert code == 1
    assert out == ""
    assert "--claims" in err
    assert campaigns == []


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "cycle:5"],
        ["verify", "--claims", "Thm3.1,Lem2.6", "--exhaustive", "2", "--random", "3"],
    ],
)
def test_benchmark_tracer_runs_the_cli(tmp_path, argv):
    # The benchmark's tracer imports kronwalk.cli alone, then looks up every
    # kronwalk module in sys.modules: that import must still load them all.
    root = Path(__file__).parents[1]
    trace = tmp_path / "run.trace"
    result = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracechild.py"), str(trace),
         str(time.time()), *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    json.loads(result.stdout)
    assert trace.stat().st_size > 0
