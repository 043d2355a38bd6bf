"""Rules on the package source: no `assert` statements (they vanish under
`python -O`), the cross-check routes in `gtboson.oracles` and
`gtboson.racah` stay out of the library modules and their exports, the
polynomial ring stays an integer ring with no conversion helpers around
it, the basis module names no `Fraction`, a packed monomial is read back
only inside `PackedLayout`, and the public surface is pinned."""

import ast
import pathlib
import types

import pytest

import gtboson
from gtboson import basisgen, coupling, gelfand, oracles, polyengine, racah

SRC = pathlib.Path(gtboson.__file__).parent
LIBRARY = ("__init__", "gelfand", "packed", "polyengine", "basisgen",
           "coupling")
ORACLE_MODULES = ("oracles", "racah")


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[-1] in ORACLE_MODULES for n in names):
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
                 "import gtboson.oracles", "from gtboson.oracles import x",
                 "from .racah import racah_threej_oracle",
                 "from . import racah"):
        assert _imports_oracles(ast.parse(text)), text


@pytest.mark.parametrize("module", [gtboson, gelfand, polyengine, basisgen,
                                    coupling], ids=lambda m: m.__name__)
def test_oracle_routes_are_not_library_surface(module):
    assert not set(vars(module)) & set(oracles.__all__ + racah.__all__)


def _names_fraction(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "Fraction"
               or isinstance(n, ast.Attribute) and n.attr == "Fraction"
               or isinstance(n, ast.alias) and n.name == "Fraction"
               for n in ast.walk(node))


def test_integer_ring_does_not_name_fraction():
    tree = ast.parse((SRC / "polyengine.py").read_text(encoding="utf-8"))
    ring = {n.name: n for n in tree.body
            if getattr(n, "name", None) in ("ExactPoly", "bargmann_inner")}
    assert set(ring) == {"ExactPoly", "bargmann_inner"}
    assert not [name for name, node in ring.items() if _names_fraction(node)]
    assert _names_fraction(ast.parse("x: Fraction = fractions.Fraction(1)"))
    assert _names_fraction(ast.parse("from fractions import Fraction"))


def test_basis_module_does_not_name_fraction():
    # every production basis and norm is an integer; the rational closed-form
    # norms are oracles
    assert not _names_fraction(
        ast.parse((SRC / "basisgen.py").read_text(encoding="utf-8")))


def test_no_integer_bridge():
    # coefficients are integers by type, so no module converts them back
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = [n.lineno for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef) and n.name == "_as_int"]
        assert not defined, f"_as_int in {path.name} at lines {defined}"


def _exponents_calls_outside_layout(tree: ast.AST) -> list[int]:
    """Lines of `.exponents(` calls that no `PackedLayout` class body
    holds."""
    inside = {id(n) for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) and c.name == "PackedLayout"
              for n in ast.walk(c)}
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "exponents" and id(n) not in inside]


def test_packed_keys_are_read_back_only_by_the_layout():
    # `PackedLayout.unpack` is the one way from a packed key to a monomial
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = _exponents_calls_outside_layout(tree)
        assert not lines, f".exponents( in {path.name} at lines {lines}"
    assert _exponents_calls_outside_layout(
        ast.parse("def f(layout, k):\n    return layout.exponents(k)")) == [2]
    assert not _exponents_calls_outside_layout(ast.parse(
        "class PackedLayout:\n    def unpack(self, k):\n"
        "        return self.exponents(k)"))


PUBLIC = {
    "BasisPolynomial", "ConsistencyError", "CouplingTable", "DomainError",
    "ExactPoly", "GelfandPattern", "IrrepLabel", "IsoscalarUndefined",
    "SqrtRational", "StructureError", "bargmann_inner", "basis_from_branching",
    "coupling_table", "enumerate_patterns", "lr_exponents", "minor", "p_n_1",
    "pattern_phi", "su2_threej", "su3_isoscalar", "su3_wigner",
    "symbolic_matrix", "u3_basis_closed", "u4_basis_closed", "weight",
    "weyl_dimension",
}


def test_public_surface_resolves_and_is_pinned():
    # bench/spans.py wraps getattr(module, name) for every `__all__` entry
    for module in (gelfand, polyengine, basisgen, coupling, oracles):
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"
    exported = {n for n, v in vars(gtboson).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert exported == PUBLIC
