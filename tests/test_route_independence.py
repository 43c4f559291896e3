"""Routes that check each other never import each other.

``exponent`` (the level scan in ``walks``) and ``oracle_exponent`` (powers
in ``boolmat``) check each other only while they share no code, so no
module on the walk side may import ``boolmat``, and ``boolmat`` may not
import ``walks``.  Likewise ``product_diameter`` (in ``kronecker``) checks the
closed forms (in ``predict``) from the same factor profiles, so ``kronecker``
may not import ``predict``.  Imports are read from the syntax tree, so an
import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

import kronwalk

PACKAGE = Path(kronwalk.__file__).parent


def _imported_modules(name: str) -> set[str]:
    """Last components of the kronwalk modules that ``kronwalk.<name>`` imports."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.add(node.module.split(".")[-1])
            # `from . import boolmat` names the module in the alias.
            found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", ["walks", "kronecker", "predict"])
def test_walk_side_never_imports_boolmat(module):
    assert "boolmat" not in _imported_modules(module)


def test_boolmat_never_imports_walks():
    assert "walks" not in _imported_modules("boolmat")


def test_kronecker_never_imports_predict():
    assert "predict" not in _imported_modules("kronecker")


def test_the_reader_sees_relative_imports():
    assert {"extlen", "graphs"} <= _imported_modules("walks")
    assert "walks" in _imported_modules("kronecker")
