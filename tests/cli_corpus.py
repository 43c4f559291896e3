"""The CLI output corpus: what ``kronwalk.cli.main`` gives for each of a fixed
list of command lines.

Run ``python tests/cli_corpus.py`` from the repository root to rewrite
``tests/data/cli_corpus.json``, which
``tests/test_cli.py::test_every_corpus_command_line_gives_its_recorded_output``
replays in process.  The corpus is changed only by rerunning this script, and
each change to an entry is a change in what the CLI prints.

Each op is run in a directory that holds the input files of ``FILES`` and
nothing else, so paths in the command lines and in the messages are relative.
Its entry holds the exit code, stdout (or the SHA-256 of a stdout longer than
``STDOUT_LIMIT`` characters), the last line of stderr when the op exits 1,
and the SHA-256 of its ``--out`` file, or null when none was written.  Other
exits keep no stderr, since ``verify`` reports its timings there.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).parent
CORPUS = HERE / "data" / "cli_corpus.json"
STDOUT_LIMIT = 600

FILES = {
    "plain.edges": b"# comment lines and blank lines are ignored\nn 5\n0 1\n1 2\n# a loop\n2 2\n",
    "bom.edges": b"\xef\xbb\xbfn 3\n0 1\n2 2\n",
    "crlf.edges": b"# square\r\nn 4\r\n0 1\r\n1 2\r\n\r\n2 3\r\n3 0\r\n",
    "comments.edges": b"# a\n\n   # indented\nn 3\n# mid\n0 1\n  1 2  \n#\n",
    "loops.edges": b"n 3\n0 0\n1 1\n0 1\n1 2\n2 2\n",
    "split.edges": b"n 4\n0 1\n2 3\n",
    "single.edges": b"n 1\n",
    "duplicate.edges": b"n 3\n0 1\n1 0\n",
    "malformed.edges": b"n 3\n0 1 2\n",
    "range.edges": b"n 3\n0 3\n",
    "words.edges": b"n 3\na b\n",
    "no_header.edges": b"0 1\n",
    "comment_only.edges": b"# nothing\n",
    "bad_header.edges": b"m 3\n",
    "order_word.edges": b"n five\n",
    "order_zero.edges": b"n 0\n",
    "huge.edges": b"n 1000000000\n0 1\n",
    "big.edges": b"n 3001\nnot an edge\n",
    "binary.edges": b"\xff\xfe\x00\x01",
    # Integer forms in a file: an optional minus sign and ASCII digits.
    "order_underscore.edges": b"n 5_0\n",
    "order_plus.edges": b"n +3\n0 1\n",
    "order_space_plus.edges": "n +3\n0 ١\n".encode(),  # both forms at once
    "order_arabic.edges": "n ٣\n0 1\n".encode(),
    "order_dash.edges": b"n -\n",
    "order_minus.edges": b"n -3\n",
    "order_zeros.edges": b"n 007\n0 6\n",
    "end_arabic.edges": "n 3\n0 ١\n".encode(),
    "end_plus.edges": b"n 3\n+0 1\n",
    "end_underscore.edges": b"n 20\n1_0 1\n",
    "end_dash.edges": b"n 3\n- 0\n",
    "end_minus.edges": b"n 3\n-1 0\n",
    "end_zeros.edges": b"n 3\n00 02\n",
}

_FAMILY_SPECS = [
    # Order one where the family has it, then a small member.
    "path:1", "path:4",
    "cycle:3", "cycle:6",
    "complete:1", "complete:4",
    "complete+:1", "complete+:3",
    "multipartite:1,1", "multipartite:1,2,2",
    "H:2,1", "H:6,3",
    "F:4,3", "F:7,3",
]

_FAMILY_REFUSALS = [
    "cycle:1", "cycle:2", "path:0", "complete:0", "complete+:0",
    "multipartite:1", "multipartite:", "multipartite:2,0", "multipartite:2,x",
    "H:1,1", "H:3,3", "H:3", "H:3,4,5", "F:1,1", "F:5,2", "F:3,3",
    "cycle:", "cycle:x", "cycle:5,6", "path:100001",
    "complete:1415", "complete+:1414", "multipartite:1000,1001",
    # Integer forms in a family parameter.
    "cycle:5_0", "cycle:+5", "cycle: 5", "cycle:٣", "cycle:-", "cycle:-5",
    "cycle:007", "H:9,-", "H:09,04",
]

_INTEGER_FORMS = ["5_0", "+5", " 5", "٣", "-", "x", "007", "-5", "1e3"]

# Probability forms: an optional minus sign, ASCII digits, and optionally a
# point and more ASCII digits.
_DECIMAL_FORMS = [
    "0.25", "1", "0", "-0", "2", "-0.5", "nan", "inf", "1e-1", "+0.5", ".5",
    "5.", "0_5", "٠.٩", " 1_0e-1",
]


def _ops() -> list[list[str]]:
    ops: list[list[str]] = []
    for spec in _FAMILY_SPECS:
        ops += [
            ["metrics", spec],
            ["predict", spec, "cycle:3"],
            ["product", spec, "cycle:3"],
            ["product", "path:2", spec, "--out", "p.edges"],
            ["product", spec, "complete+:2", "--out", "p.json", "--format", "json"],
            ["generate", spec],
            ["generate", spec, "--out", "g.edges"],
            ["generate", spec, "--out", "g.json", "--format", "json"],
        ]
    for spec in _FAMILY_REFUSALS:
        ops += [["metrics", spec], ["generate", spec]]
    for name in FILES:
        ops += [["metrics", name], ["generate", name]]
    ops += [
        ["predict", "plain.edges", "crlf.edges"],
        ["product", "crlf.edges", "loops.edges", "--out", "p.edges"],
        ["product", "bom.edges", "split.edges", "--out", "p.json", "--format", "json"],
        ["metrics", "missing.edges"],
        ["metrics", "what:1"],
        ["metrics", "random:5"],
        ["metrics", "F:9,5", "--cap-cycles", "1"],
        ["metrics", "cycle:5", "--cap-cycles", "0"],
        # The all-pairs table limit, for a family and for a file.
        ["metrics", "path:3001"],
        ["metrics", "H:3001,2"],
        ["predict", "path:3001", "cycle:3"],
        ["predict", "cycle:3", "path:3001"],
        ["product", "path:3001", "cycle:3"],
        ["product", "cycle:3", "path:3001", "--out", "p.edges"],
        ["generate", "path:3001", "--out", "g.edges"],
        ["predict", "big.edges", "cycle:3"],
        ["product", "cycle:3", "big.edges"],
        # The product limits, with --out only.
        ["product", "cycle:401", "cycle:401", "--out", "p.edges"],
        ["product", "complete:800", "complete:3", "--out", "p.edges"],
        ["product", "cycle:3", "cycle:5", "--out", "missing/p.edges"],
        ["generate", "cycle:5", "--out", "missing/g.edges"],
        ["generate", "cycle:5", "--format", "yaml"],
        # random:n and its flags.
        ["generate", "random:1"],
        ["generate", "random:6", "--edge-prob", "0.7", "--loop-prob", "0.3", "--seed", "3"],
        ["generate", "random:9", "--seed", "4", "--out", "g.edges"],
        ["generate", "random:9", "--seed", "4", "--out", "g.json", "--format", "json"],
        ["generate", "random:0"],
        ["generate", "random:"],
        ["generate", "random:3,4"],
        ["generate", "random:100001"],
        ["generate", "random"],
        ["generate", "random:6", "--edge-prob", "2"],
        ["generate", "cycle:5", "--loop-prob", "-0.5"],
        ["generate", "random:6", "--edge-prob", "nan"],
        ["generate", "random:6", "--edge-prob", "x"],
        # Orders in the hundreds, as in the benchmark's ops.
        ["metrics", "F:300,5"],
        ["metrics", "cycle:201"],
        ["metrics", "path:350"],
        ["metrics", "H:160,5"],
        ["predict", "cycle:251", "path:251"],
        ["predict", "F:250,5", "H:25,4"],
        ["product", "cycle:35", "cycle:37"],
        ["product", "cycle:35", "path:36"],
        ["product", "H:50,4", "complete+:3"],
        ["product", "H:24,4", "cycle:21", "--out", "p.edges"],
        ["product", "F:50,5", "complete:2", "--out", "p.json", "--format", "json"],
        # verify's refusals, and small runs.
        ["verify", "--claims", "CorK2,Prop1.1", "--exhaustive", "1", "--random", "2"],
        ["verify", "--claims", "Lem2.2,Lem2.2", "--exhaustive", "2", "--random", "1", "--seed", "5"],
        ["verify", "--exhaustive", "1", "--random", "0"],
        ["verify", "--claims", "Thm3.1,Lem2.5", "--exhaustive", "3", "--random", "100", "--seed", "7"],
        ["verify", "--claims", "Lem2.7,ParityRoute", "--exhaustive", "4", "--random", "100", "--seed", "8"],
        ["verify", "--exhaustive", "4", "--random", "5", "--seed", "9"],
        # The two standing full campaigns.
        ["verify", "--seed", "0"],
        ["verify", "--exhaustive", "3", "--random", "100", "--seed", "1"],
        ["verify", "--exhaustive", "0"],
        ["verify", "--exhaustive", "5"],
        ["verify", "--random", "-1"],
        ["verify", "--claims", ","],
        ["verify", "--claims", ""],
        ["verify", "--claims", "Nope"],
        # Usage errors.
        [],
        ["nosuch"],
        ["metrics"],
        ["metrics", "cycle:3", "cycle:4"],
        ["predict", "cycle:3"],
        ["metrics", "cycle:3", "--nosuch"],
    ]
    # Integer forms in each integer flag.
    for value in _INTEGER_FORMS:
        ops += [
            ["metrics", "cycle:5", "--cap-cycles", value],
            ["verify", "--claims", "CorK2", "--exhaustive", value, "--random", "1"],
            ["verify", "--claims", "CorK2", "--exhaustive", "1", "--random", value],
            ["verify", "--claims", "CorK2", "--exhaustive", "1", "--random", "1", "--seed", value],
            ["generate", "random:4", "--seed", value],
            ["generate", f"random:{value}"],
        ]
    # Probability forms in each probability flag.
    for value in _DECIMAL_FORMS:
        ops += [
            ["generate", "random:6", "--seed", "3", "--edge-prob", value],
            ["generate", "random:6", "--seed", "3", "--loop-prob", value],
        ]
    return ops


OPS = _ops()


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def record(argv: list[str]) -> dict:
    """One op's entry, run in the current directory through ``main``."""
    from kronwalk.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    stdout = out.getvalue()
    entry = {
        "exit": code,
        "stdout": stdout if len(stdout) <= STDOUT_LIMIT else _sha256(stdout.encode()),
    }
    if code == 1:
        entry["stderr"] = err.getvalue().splitlines()[-1]
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        entry["out"] = _sha256(path.read_bytes()) if path.exists() else None
        path.unlink(missing_ok=True)
    return entry


def run_corpus() -> dict:
    """Every op's entry, keyed by its shell-quoted command line.  Writes
    ``FILES`` into the current directory first."""
    for name, data in FILES.items():
        Path(name).write_bytes(data)
    return {shlex.join(argv): record(argv) for argv in OPS}


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            corpus = run_corpus()
        finally:
            os.chdir(cwd)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(corpus)} ops written to {CORPUS}")


if __name__ == "__main__":
    main()
