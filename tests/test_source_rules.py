"""Rules on the package source: no `assert` statements (they vanish under
`python -O`), and the cross-check routes in `gtboson.oracles` stay out of
the library modules and their exports."""

import ast
import pathlib

import pytest

import gtboson
from gtboson import basisgen, coupling, gelfand, oracles, polyengine

SRC = pathlib.Path(gtboson.__file__).parent
LIBRARY = ("__init__", "gelfand", "polyengine", "basisgen", "coupling")


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[-1] == "oracles" for n in names):
            return True
    return False


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not lines, f"assert statements in {path.name} at lines {lines}"


@pytest.mark.parametrize("name", LIBRARY)
def test_library_module_does_not_import_oracles(name):
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    assert not _imports_oracles(tree)


def test_import_rule_sees_every_import_form():
    for text in ("from .oracles import p_n_1_oracle", "from . import oracles",
                 "import gtboson.oracles", "from gtboson.oracles import x"):
        assert _imports_oracles(ast.parse(text)), text


@pytest.mark.parametrize("module", [gtboson, gelfand, polyengine, basisgen,
                                    coupling], ids=lambda m: m.__name__)
def test_oracle_routes_are_not_library_surface(module):
    assert not set(vars(module)) & set(oracles.__all__)
