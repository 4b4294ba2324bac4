"""Only poly knows how a body is stored, and no module imports a name it
does not use.

An exact body is stored as integer numerators over one denominator; that
format is private to paradirac.poly, so a change to it touches one
module.  Every other module reads a body through its public API: the
operators, .terms, keys() and coeffs(key).  This test parses each other
module and fails on a read of the storage attributes, a call of the
storage constructors and readers, or an import of a private name from
poly or scalars.  It also parses every module but the package's
__init__ and fails on an imported name that the module never reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "paradirac"
STORAGE_ATTRS = {"_nums", "_D", "_view"}
STORAGE_CALLS = {"_make", "_new", "_values", "_coeffs"}
PRIVATE_SOURCES = {"poly", "scalars"}


def storage_uses(tree: ast.AST):
    """(line, what) for every use of the storage format in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRS:
            yield node.lineno, f"attribute {node.attr}"
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name in STORAGE_CALLS:
                yield node.lineno, f"call of {name}"
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            if module in PRIVATE_SOURCES:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield node.lineno, f"import of {alias.name} from {module}"


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "poly.py")


def test_modules_found():
    assert {"cli.py", "harmonics.py", "serialize.py", "timefn.py"} <= {
        p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_storage_format_is_private_to_poly(path):
    uses = list(storage_uses(ast.parse(path.read_text(), str(path))))
    assert not uses, f"{path.name} reads the body storage: {uses}"


def test_detector_sees_each_kind_of_use():
    code = ("from .poly import _acc\n"
            "from paradirac.scalars import _ratio, Scalar\n"
            "n = len(p._nums) + p._D\n"
            "q = p._new({}, 1)\n"
            "r = _coeffs(key)\n")
    found = [what for _, what in storage_uses(ast.parse(code))]
    assert sorted(found) == sorted([
        "import of _acc from poly", "import of _ratio from scalars",
        "attribute _nums", "attribute _D", "call of _new", "call of _coeffs"])


def unused_imports(tree: ast.AST):
    """(line, name) for every name a parsed module imports and never reads,
    a quoted annotation counting as a read of the names in it."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".", 1)[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    unused = unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_detector():
    code = ("from __future__ import annotations\n"
            "import math, os.path\n"
            "from typing import NamedTuple, Optional\n"
            "from .zeta import ZetaElement as Z, IntMatrix\n"
            "def f(x: Optional[int]) -> \"IntMatrix\":\n"
            "    return math.pi\n")
    assert unused_imports(ast.parse(code)) == [(2, "os"), (3, "NamedTuple"),
                                               (4, "Z")]
