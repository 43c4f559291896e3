"""The result records are frozen, hashable named tuples.

Named tuples are created without generating code, so importing the package
loads neither ``dataclasses`` nor ``inspect``.  The verify harness, whose
``Claim`` is a dataclass, runs only when ``verify`` reads it, so the
``metrics``, ``predict`` and ``product`` commands load neither either.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from kronwalk import (
    diameter_bounds,
    exponent,
    l_o_bound,
    make_cycle,
    predict_diameter,
    summarize,
)
from kronwalk.harness.campaign import run_campaign
from kronwalk.harness.claims import Failure
from kronwalk.harness.ensembles import EnsembleSpec

SRC = Path(__file__).parents[1] / "src"


def test_importing_the_package_loads_no_dataclasses():
    # -I -S: no site, no PYTHON* variables and no working directory on the
    # path, so only kronwalk's own imports can load either module.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kronwalk; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Runs kronwalk.cli as __main__, as `python -m kronwalk.cli` does, and prints
# which of dataclasses and inspect are loaded from an exit handler.
_MODULE_ENTRY = """
import atexit, runpy, sys
sys.path.insert(0, sys.argv.pop(1))
atexit.register(
    lambda: print(sorted({"dataclasses", "inspect"} & set(sys.modules)), file=sys.stderr)
)
runpy.run_module("kronwalk.cli", run_name="__main__")
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["metrics", "cycle:5"], "[]"),
        (["predict", "cycle:5", "cycle:3"], "[]"),
        (["product", "cycle:5", "cycle:3"], "[]"),
        (["verify", "--claims", "Prop1.1", "--exhaustive", "1", "--random", "1"],
         "['dataclasses', 'inspect']"),
    ],
    ids=["metrics", "predict", "product", "verify"],
)
def test_only_verify_runs_the_harness(tmp_path, argv, loaded):
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _MODULE_ENTRY, str(SRC), *argv],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == loaded


def _records():
    c5 = summarize(make_cycle(5))
    return [
        c5,
        exponent(make_cycle(5)),
        l_o_bound(make_cycle(5), c5),
        diameter_bounds(c5, c5),
        predict_diameter(c5, c5),
        EnsembleSpec(4, 500),
        Failure(4, 5, "off by one"),
        run_campaign(["Prop1.1"], EnsembleSpec(1, 1), 0)[0],
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen_hashable_tuples(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    hash(record)
    assert type(record._replace(**{field: getattr(record, field)})) is type(record)
    assert record == tuple(getattr(record, name) for name in record._fields)
