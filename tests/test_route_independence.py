"""Routes that check each other never import each other.

``exponent`` (the level scan in ``walks``) and ``oracle_exponent`` (powers
in ``boolmat``) check each other only while they share no code, so no
module on the walk side may import ``boolmat``, and ``boolmat`` may not
import ``walks``.  Likewise ``product_diameter`` (in ``kronecker``) checks the
closed forms (in ``predict``) from the same factor profiles, so ``kronecker``
may not import ``predict``.  Imports are read from the syntax tree, so an
import inside a function counts too.

Within ``walks``, the reach scan behind ``diameter`` is the ground truth on
every built product, which the parity level scan behind the profiles and
``walk_levels`` is checked against, so neither scan names the other.  The
harness's walk-lemma checkers take that truth from the built product, and
``Prop1.1`` takes its truth from the boolean powers of the built product,
never from the parity scan that gives its closed form the factor exponents.
The power loop lives in ``boolmat`` alone, so the harness never multiplies
matrices itself.
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


def _names(node: ast.AST) -> set[str]:
    """Every name, attribute and imported name under ``node``."""
    return (
        {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        | {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
           for a in n.names}
    )


def _names_in_function(module: str, function: str) -> set[str]:
    """Every name and attribute that ``kronwalk.<module>.<function>`` mentions."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    (node,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function
    ]
    return _names(node)


@pytest.mark.parametrize("function", ["diameter", "_reach"])
def test_distances_never_read_the_parity_scan(function):
    names = _names_in_function("walks", function)
    assert not names & {"_levels", "summarize", "walk_levels"}


def test_parity_scan_never_reads_the_reach_scan():
    assert "_reach" not in _names_in_function("walks", "_levels")
    assert "_reach" not in _names_in_function("walks", "walk_levels")


@pytest.mark.parametrize(
    "checker, truth",
    [
        ("_check_walk_combination", {"kronecker_product", "walk_levels"}),
        ("_check_mixed_parity_lower_bound", {"kronecker_product", "_reach"}),
    ],
    ids=["Lem2.5", "Lem2.7"],
)
def test_walk_lemmas_read_the_built_product(checker, truth):
    # Lem2.5 scans the built product's walks; Lem2.7 reads the built
    # product's distances off the reach scan, never off the factor levels.
    assert truth <= _names_in_function("harness/claims", checker)


def test_exponent_claim_reads_the_boolean_powers_of_the_built_product():
    # Prop1.1's closed form reads the factor exponents off the parity scan,
    # so its truth must not.
    names = _names_in_function("harness/claims", "_product_exponent")
    assert {"oracle_exponent", "kronecker_product"} <= names
    assert not names & {"summarize", "exponent", "walk_levels", "_levels"}


def test_the_harness_never_multiplies_matrices():
    # Lem2.2 reads boolmat's power sequence, and Prop1.1 its oracle.
    tree = ast.parse((PACKAGE / "harness/claims.py").read_text(encoding="utf-8"))
    assert "bool_mul" not in _names(tree)


@pytest.mark.parametrize(
    "module, function", [("cycles", "l_o_bound"), ("kronecker", "product_is_connected")]
)
def test_connectivity_and_bipartiteness_come_from_the_profile(module, function):
    # The factor's parity profile is the one source of both facts, so the
    # bipartite flag that metrics, predict and product print is the one
    # these routes read, and verify checks it.
    names = _names_in_function(module, function)
    assert not names & {"is_bipartite", "is_connected"}
    assert {"connected", "bipartite"} <= names


def test_the_predictor_reads_weichsels_rule_from_kronecker():
    # predict_diameter's Disconnected case is product_is_connected's verdict,
    # the rule Lem2.4 checks, and the predictor does not restate it.
    names = _names_in_function("predict", "predict_diameter")
    assert "product_is_connected" in names
    assert "bipartite" not in names


def test_the_reader_sees_each_scan_where_it_runs():
    assert "_reach" in _names_in_function("walks", "diameter")
    assert "_levels" in _names_in_function("walks", "summarize")
