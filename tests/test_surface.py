"""Every exported name, and every public name defined, has a use inside the package.

A name in ``kronwalk.__all__`` must appear as code somewhere in
``src/kronwalk/`` outside the package ``__init__.py``: not as the name of
its own ``def`` or ``class``, not as an attribute after a dot, and not in
a comment or a string.  So the CLI, the verify harness or a cross-check
route uses it.  Every public function, class, method and property defined
in the package must appear there too, an attribute after a dot included.
The only exceptions are the names below, kept for outside callers.

Each name has one definition: the profile reader lives in ``walks`` alone,
the harness package binds only its submodules, the prediction record
copies no field of the profiles it was given, and only the main predictor
builds that record.
"""

import ast
import tokenize
from pathlib import Path
from types import ModuleType

import kronwalk
import kronwalk.harness
import kronwalk.predict

# The walk route's exponent report, which the benchmark's checks and the
# tests call (ROADMAP item 11 deletes it once the benchmark reads the profile
# instead), the odd girth that outside reference checks read, and the
# two-colouring search that the tests and the benchmark's checks compare the
# profile's bipartite flag with.
KEPT_FOR_OUTSIDE_CALLERS = ("exponent", "odd_girth", "is_bipartite")

PACKAGE = Path(kronwalk.__file__).parent


def _names_used_inside_the_package(skipped_after=("def", "class", ".")) -> set[str]:
    used = set()
    for path in PACKAGE.rglob("*.py"):
        if path == PACKAGE / "__init__.py":
            continue
        previous = None
        with tokenize.open(path) as handle:
            for token in tokenize.generate_tokens(handle.readline):
                if token.type == tokenize.NAME and previous not in skipped_after:
                    used.add(token.string)
                if token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                    previous = token.string
    return used


def _public_definitions():
    """``(qualified name, name)`` of each public function, class, method and
    property: its name, and for a member its class's name, lack a leading
    underscore."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs) and not member.name.startswith("_"):
                        yield f"{module}.{node.name}.{member.name}", member.name


def test_every_export_is_used_inside_the_package():
    used = _names_used_inside_the_package()
    unused = [
        name
        for name in kronwalk.__all__
        if name not in KEPT_FOR_OUTSIDE_CALLERS and name not in used
    ]
    assert unused == []


def test_every_public_definition_is_used_inside_the_package():
    used = _names_used_inside_the_package(skipped_after=("def", "class"))
    unused = [
        qualified
        for qualified, name in _public_definitions()
        if name not in KEPT_FOR_OUTSIDE_CALLERS and name not in used
    ]
    assert unused == []


def test_names_kept_for_outside_callers_are_exported():
    assert set(KEPT_FOR_OUTSIDE_CALLERS) <= set(kronwalk.__all__)


def test_the_profile_reader_is_defined_once():
    # walks.summarize is the one reader of a factor's profile; the
    # predictors take profiles and read no graph.
    assert kronwalk.summarize.__module__ == "kronwalk.walks"
    assert not hasattr(kronwalk.predict, "summarize")


def test_the_harness_package_re_exports_nothing():
    public = {name for name in vars(kronwalk.harness) if not name.startswith("_")}
    assert all(isinstance(getattr(kronwalk.harness, name), ModuleType) for name in public)
    assert public <= {"campaign", "claims", "ensembles"}


def test_the_prediction_record_holds_only_what_the_predictor_decided():
    # The factor exponents and diameters stay in the profiles.
    assert kronwalk.DiameterPrediction._fields == ("value", "case", "bounds")


def test_only_the_main_predictor_builds_a_record():
    # The corollary closed forms return the length their theorem states, so
    # no record builder and no hand-typed multipartite profile remain.
    assert not hasattr(kronwalk.predict, "_prediction")
    assert not hasattr(kronwalk.predict, "_multipartite_profile")
