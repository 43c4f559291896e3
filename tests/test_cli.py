import ast
import gc
import importlib
import inspect
import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from kronwalk import Graph, make_cycle, read_graph, write_graph
from kronwalk.cli import _build_parser, main, parse_graph_spec

from helpers import traced_peak


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_cli_lines_parse():
    # Every command line the README shows names a real command and flags.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("## CLI", 1)[1].split("```")[1].strip().splitlines()
    assert lines and all(line.startswith("kronwalk ") for line in lines)
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


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


def _flag_case(*argv):
    # A flag's text is refused by argparse, which names the flag and the text.
    *_, flag, value = argv
    line = f"kronwalk {argv[0]}: error: argument {flag}: invalid int value: {value!r}"
    return pytest.param(list(argv), line, id=" ".join(argv))


@pytest.mark.parametrize(
    "spec, message",
    [
        # int() would read the first four as 50, 5, 5 and 3.
        ("cycle:5_0", "parameters must be integers"),
        ("cycle:+5", "parameters must be integers"),
        ("cycle: 5", "parameters must be integers"),
        ("cycle:\u0663", "parameters must be integers"),
        ("cycle:-", "parameters must be integers"),
        ("H:9,-", "parameters must be integers"),
        # A minus sign is read, and the family refuses the value.
        ("cycle:-5", "cycle needs at least three vertices"),
        # generate reads random:n through the same family path.
        ("random:5_0", "parameters must be integers"),
        # Each integer flag reads its text by the same rule.
        _flag_case("metrics", "cycle:5", "--cap-cycles", "5_0"),
        _flag_case("verify", "--exhaustive", "+3"),
        _flag_case("verify", "--random", " 5"),
        _flag_case("verify", "--seed", "\u0663"),
        _flag_case("generate", "cycle:5", "--seed", "-"),
    ],
)
def test_family_parameters_are_ascii_integers(capsys, spec, message):
    # An integer is an optional minus sign and ASCII digits, nothing else.  A
    # flag's case gives its whole argv and the last line of stderr, after the
    # usage line argparse prints.
    if isinstance(spec, list):
        argv, line = spec, message
    else:
        argv = ["generate" if spec.startswith("random:") else "metrics", spec]
        line = f"error: {spec}: {message}"
    code, out, err = run_cli(capsys, *argv)
    lines = err.splitlines()
    assert code == 1 and out == ""
    assert lines[-1] == line and (len(lines) == 1 or isinstance(spec, list))


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
    code, peak = traced_peak(lambda: main(["product", "path:600", "cycle:3"]))
    assert code == 0 and json.loads(capsys.readouterr().out)["measured"] == 599
    assert peak < 2_000_000


def test_metrics_builds_no_all_pairs_table(capsys):
    # The cycle bound's distance table for path:600 peaked at 7.0 MB; the
    # profile and one BFS per scored cycle keep a few lists of 600 entries.
    code, peak = traced_peak(lambda: main(["metrics", "path:600"]))
    assert code == 0 and json.loads(capsys.readouterr().out)["l_o"] == "inf"
    assert peak < 2_000_000


def test_predict_order_one_factor_in_argument_order(capsys):
    code, out, _ = run_cli(capsys, "predict", "complete+:1", "cycle:5")
    assert code == 0
    doc = json.loads(out)
    assert (doc["gamma1"], doc["d1"], doc["gamma2"], doc["d2"]) == (1, 0, 4, 2)
    assert doc["predicted"] == 2 and doc["case"] == "OrderOneFactor"
    code, out, _ = run_cli(capsys, "predict", "cycle:5", "complete:1")
    assert code == 0
    doc = json.loads(out)
    assert (doc["gamma1"], doc["d1"], doc["gamma2"], doc["d2"]) == (4, 2, "inf", 0)


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


def test_verify_fails_a_route_that_raises_a_plain_value_error(monkeypatch, capsys):
    # Only an OutsideHypotheses puts an instance outside a claim;
    # a route that breaks with any other ValueError must not pass unchecked.
    from kronwalk.harness import claims

    def broken(g):
        raise ValueError("injected")

    monkeypatch.setattr(claims, "summarize", broken)
    code, out, err = run_cli(
        capsys, "verify", "--claims", "Thm3.3,ParityRoute,CorLoops,Thm3.5,CorHF",
        "--exhaustive", "3", "--random", "20",
    )
    assert code == 1
    assert out == ""
    assert err == "error: injected\n"


def test_verify_unknown_claim(capsys):
    code, out, err = run_cli(capsys, "verify", "--claims", "nope")
    assert code == 1
    assert "unknown claim" in err


def test_product_mismatch_exits_two(monkeypatch, capsys):
    # force a wrong prediction: a mismatch must be signaled with exit 2
    import kronwalk.cli as cli_module

    real = cli_module.predict_diameter

    def wrong(s1, s2):
        pred = real(s1, s2)
        return pred._replace(value=pred.value + 1)

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


def test_verify_shrinks_a_registered_claims_counterexample(monkeypatch, capsys):
    from kronwalk.harness import claims

    real = claims.predict_all_loops

    def wrong(s1, s2):
        return real(s1, s2) + 1 if s1.order >= 3 else real(s1, s2)

    monkeypatch.setattr(claims, "predict_all_loops", wrong)
    code, out, _ = run_cli(
        capsys, "verify", "--claims", "CorLoops", "--exhaustive", "3",
        "--random", "20", "--seed", "0",
    )
    assert code == 2
    # A looped star on three vertices times a looped edge: no single vertex
    # or edge deletion keeps the injected error.
    assert json.loads(out)["claims"][0]["counterexample"] == {
        "actual": 2,
        "detail": "closed form differs from brute force",
        "expected": 3,
        "graphs": [
            {"edges": [[0, 0], [0, 1], [0, 2], [1, 1], [2, 2]], "order": 3},
            {"edges": [[0, 0], [0, 1], [1, 1]], "order": 2},
        ],
    }


def test_usage_error_exits_one(capsys):
    code, out, err = run_cli(capsys, "metrics")  # missing the graph argument
    assert code == 1 and out == ""
    line = "kronwalk metrics: error: the following arguments are required: graph"
    assert err.splitlines()[-1] == line


@pytest.mark.parametrize("argv", [["--help"], ["metrics", "--help"]])
def test_help_returns_zero(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("usage: kronwalk") and err == ""


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


def test_generate_refuses_a_random_graph_above_the_edge_limit(monkeypatch, capsys):
    import kronwalk.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "MAX_EDGES", 10)
    code, out, err = run_cli(capsys, "generate", "random:9", "--edge-prob", "1")
    assert code == 1 and out == ""
    assert err == "error: random:9: edge count 15 exceeds the limit of 10\n"


@pytest.mark.parametrize("spec", ["cycle:5", "random:6"])
@pytest.mark.parametrize(
    "flag, value", [("--edge-prob", "2"), ("--loop-prob", "-0.5"), ("--edge-prob", "nan")]
)
def test_generate_refuses_a_probability_outside_the_unit_interval(
    capsys, spec, flag, value
):
    if value == "nan":
        # nan is no ASCII decimal, so argparse refuses it before any range check.
        code, out, err = run_cli(capsys, "generate", spec, flag, value)
        assert code == 1 and out == ""
        line = f"kronwalk generate: error: argument {flag}: invalid float value: 'nan'"
        assert err.splitlines()[-1] == line
        return
    code, out, err = run_cli(capsys, "generate", spec, flag, value)
    assert code == 1 and out == ""
    assert err == f"error: {flag} must lie in [0, 1], got {float(value)}\n"


@pytest.mark.parametrize("flag", ["--edge-prob", "--loop-prob"])
@pytest.mark.parametrize(
    "value",
    # float() would read each one; the last two as 0.9 and 1.0.
    ["nan", "inf", "1e-1", "+0.5", ".5", "5.", "0_5", "\u0660.\u0669", " 1_0e-1"],
)
def test_probability_flags_are_ascii_decimals(capsys, flag, value):
    # A probability is an optional minus sign, ASCII digits, and optionally a
    # point and more ASCII digits; argparse refuses any other text.
    code, out, err = run_cli(capsys, "generate", "random:6", flag, value)
    assert code == 1 and out == ""
    line = f"kronwalk generate: error: argument {flag}: invalid float value: {value!r}"
    assert err.splitlines()[-1] == line


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


def test_generate_streams_its_stdout_document(monkeypatch, tmp_path):
    # complete:200 has 19,900 edges.  Built whole, as one string, the
    # document peaked at about 6.7 MB traced; written in chunks as it is
    # encoded it peaks at about 2.3 MB, most of it the per-edge lists.  The
    # bytes are those of json.dumps and a newline.
    from kronwalk import make_complete
    from kronwalk.edgelist import graph_to_json

    path = tmp_path / "stdout.json"
    with open(path, "w", encoding="utf-8") as handle:
        monkeypatch.setattr(sys, "stdout", handle)
        code, peak = traced_peak(lambda: main(["generate", "complete:200"]))
    assert code == 0 and peak < 3 * 2**20
    document = {**graph_to_json(make_complete(200)), "out": None}
    expected = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
    assert path.read_text(encoding="utf-8") == expected


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


@pytest.mark.parametrize(
    "argv",
    [["metrics", "{}"], ["predict", "{}", "cycle:3"], ["product", "cycle:3", "{}"]],
    ids=["metrics", "predict", "product"],
)
def test_file_above_the_table_limit_is_refused_at_its_header(tmp_path, capsys, argv):
    # The malformed second line is never parsed: the header refuses the file.
    path = tmp_path / "big.edges"
    path.write_text("n 5000\nnot an edge\n")
    code, out, err = run_cli(capsys, *[arg.format(path) for arg in argv])
    assert code == 1 and out == ""
    assert err == f"error: {path}: order 5000 exceeds the all-pairs table limit of 3000\n"


@pytest.mark.parametrize(
    "argv",
    [["metrics", "{}"], ["predict", "{}", "cycle:3"], ["product", "cycle:3", "{}"],
     ["generate", "{}"]],
    ids=["metrics", "predict", "product", "generate"],
)
def test_file_above_the_edge_limit_is_refused_while_it_is_read(
    monkeypatch, tmp_path, capsys, argv
):
    import kronwalk.graphs as graphs_module

    monkeypatch.setattr(graphs_module, "MAX_EDGES", 10)
    path = tmp_path / "dense.edges"
    # K5 plus a loop on every vertex: 15 edges.  The malformed last line is
    # never parsed, since the eleventh edge is refused first.
    lines = [f"{u} {v}" for u in range(5) for v in range(u, 5)]
    path.write_text("\n".join(["n 5", *lines, "not an edge"]) + "\n")
    code, out, err = run_cli(capsys, *[arg.format(path) for arg in argv])
    assert code == 1 and out == ""
    assert err == f"error: {path}: edge count 11 exceeds the limit of 10\n"
    # A file at the limit reads as before.
    path.write_text("\n".join(["n 5", *lines[:10]]) + "\n")
    code, out, _ = run_cli(capsys, *[arg.format(path) for arg in argv])
    assert code == 0 and out


def test_generate_reads_a_file_above_the_table_limit(tmp_path, capsys):
    # generate runs no scan, so only MAX_ORDER bounds the file it reads.
    path = tmp_path / "big.edges"
    path.write_text("n 5000\nnot an edge\n")
    code, out, err = run_cli(capsys, "generate", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {path}: line 2: expected 'u v'\n"


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
    # The family graph is refused as a file is, with its spec named.
    assert result.stderr == (
        "error: path:3001: order 3001 exceeds the all-pairs table limit of 3000\n"
    )


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
    monkeypatch.setattr(
        cli_module.campaign, "run_campaign", lambda *args: campaigns.append(args)
    )
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
        ["product", "cycle:5", "cycle:3"],
        ["predict", "cycle:5", "path:4"],
    ],
)
def test_benchmark_tracer_runs_the_cli(tmp_path, argv):
    # The benchmark's tracer imports kronwalk.cli alone, then looks up every
    # kronwalk module in sys.modules: that import must still register them
    # all, the harness modules lazily, and wrapping must load them even for
    # a command that never reads the harness.
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


# Span names that the benchmark's tracer hooks or its layer report reads but
# that name no function the tracer wraps, so their metrics read 0 until the
# benchmark points them at live functions.
STALE_TRACED_NAMES = {"walks.parity_distances", "walks.distance_matrix", "predict.summarize"}


def _literal(tree: ast.Module, name: str):
    (value,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name
    ]
    return ast.literal_eval(value)


def _traced_span_names(bench: Path) -> tuple[set[str], tuple[str, ...]]:
    """The span names that tracechild.py hooks and layers.py reads, and the
    modules that the tracer wraps."""
    child, layers = (
        ast.parse((bench / f"{name}.py").read_text(encoding="utf-8"))
        for name in ("tracechild", "layers")
    )
    (hooks,) = [n for n in ast.walk(child) if isinstance(n, ast.FunctionDef)
                and n.name == "hooks"]
    names = {*_literal(child, "TRAVERSALS"), *_literal(layers, "TRAVERSALS")}
    names.update(key.value for key in hooks.body[-1].value.keys
                 if isinstance(key, ast.Constant))
    names.update(
        node.args[0].value for node in ast.walk(child)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_id" and isinstance(node.args[0], ast.Constant)
    )
    names.update(
        node.slice.value for node in ast.walk(layers)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id in ("incl", "calls") and isinstance(node.slice, ast.Constant)
    )
    return names, _literal(child, "MODULES")


def _traced_by(name: str, modules: tuple[str, ...]) -> bool:
    """Whether the tracer wraps a function under ``name``: a public function
    defined in a module of the name's layer, or ``graphs.Graph``."""
    if name == "graphs.Graph":
        return True
    layer, _, function = name.partition(".")
    for short in modules:
        if short.split(".")[0] != layer or function.startswith("_"):
            continue
        module = importlib.import_module(f"kronwalk.{short}")
        obj = vars(module).get(function)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            return True
    return False


def test_benchmark_tracer_names_resolve():
    # A rename in the package must fail here at once, rather than silently
    # zero the benchmark metric that reads the old name.
    names, modules = _traced_span_names(Path(__file__).parents[1] / "perfbench")
    assert {"graphs.Graph", "harness.run_campaign", "harness.random_connected",
            "boolmat.bool_mul", "walks.is_bipartite"} <= names
    assert {name for name in names if not _traced_by(name, modules)} == STALE_TRACED_NAMES


# Runs kronwalk.cli as __main__, as `python -m kronwalk.cli` does, and prints
# the collector's frozen object count from an exit handler.
_MODULE_ENTRY = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
runpy.run_module("kronwalk.cli", run_name="__main__")
"""


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["metrics", "cycle:5"], 0, None),
        (["metrics", "cycle:x"], 1, "error: cycle:x: parameters must be integers"),
    ],
)
def test_module_entry_freezes_the_heap_and_exits_with_mains_code(
    tmp_path, argv, code, message
):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", _MODULE_ENTRY, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == code
    *lines, frozen = result.stderr.splitlines()
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0
    if message is None:
        assert json.loads(result.stdout)["odd_girth"] == 5 and lines == []
    else:
        assert result.stdout == "" and lines == [message]


_HARNESS_FIRST = """
import types
import kronwalk.harness.claims as claims
import kronwalk.cli as cli
assert cli.claims is claims and type(cli.claims) is types.ModuleType
assert cli.claims.REGISTRY is claims.REGISTRY and len(claims.REGISTRY) == 20
print("ok")
"""


def test_cli_takes_a_harness_module_imported_before_it_as_it_is(tmp_path):
    # A fresh process, so the harness is imported before kronwalk.cli: the
    # CLI binds that module, not a second, lazily loaded copy of it.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", _HARNESS_FIRST],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_main_leaves_the_collector_unfrozen(capsys):
    # Tests and the benchmark's tracer call main in process.
    before = gc.get_freeze_count()
    code, out, _ = run_cli(capsys, "metrics", "cycle:5")
    assert code == 0 and json.loads(out)["odd_girth"] == 5
    assert gc.get_freeze_count() == before


def test_console_script_runs_the_module_entry():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    root = Path(__file__).parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, function = project["project"]["scripts"]["kronwalk"].partition(":")
    assert module == "kronwalk.cli"
    tree = ast.parse((root / "src" / "kronwalk" / "cli.py").read_text(encoding="utf-8"))
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{function}()"]


def test_every_corpus_command_line_gives_its_recorded_output(monkeypatch, tmp_path):
    # tests/cli_corpus.py lists the ops and writes the corpus; an entry that
    # differs here is a change in what the CLI prints, exit codes and error
    # messages included, and is recorded only by rerunning that script.
    import cli_corpus

    monkeypatch.chdir(tmp_path)
    recorded = json.loads(cli_corpus.CORPUS.read_text(encoding="utf-8"))
    corpus = cli_corpus.run_corpus()
    assert len(corpus) == len(cli_corpus.OPS)
    assert corpus.keys() == recorded.keys()
    changed = [op for op in corpus if corpus[op] != recorded[op]]
    assert {op: corpus[op] for op in changed} == {op: recorded[op] for op in changed}
