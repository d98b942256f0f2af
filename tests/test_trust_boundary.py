"""Only linalg.py names the trusted matrix constructor, and only it
builds an object past its class's constructor.

RationalMatrix._of coerces and checks nothing, so it is safe only on
entries that linalg's own arithmetic produced.  Every other module
builds matrices through the public constructors, which coerce.  The
records' trusted constructor is the named tuple's _make; object.__new__
appears only inside RationalMatrix._of.
"""

import ast
from pathlib import Path

import dimshift

TRUSTED = "_of"


def names_of_trusted(source: str) -> list:
    """Line numbers where the source names the trusted constructor, as
    an attribute, a bare name or a string (for getattr)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            (isinstance(node, ast.Attribute) and node.attr == TRUSTED)
            or (isinstance(node, ast.Name) and node.id == TRUSTED)
            or (isinstance(node, ast.Constant) and node.value == TRUSTED)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_the_guard_finds_every_form():
    source = (
        "a = RationalMatrix._of(rows, 2)\n"
        "b = getattr(RationalMatrix, '_of')\n"
        "_of = 1\n"
        "c = RationalMatrix(rows, 2)\n"
        "d = M.of_rows\n"
    )
    assert names_of_trusted(source) == [1, 2, 3]


def test_only_linalg_names_the_trusted_constructor():
    package = Path(dimshift.__file__).parent
    offenders = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if path.name != "linalg.py" and (found := names_of_trusted(path.read_text()))
    }
    assert offenders == {}
    assert names_of_trusted((package / "linalg.py").read_text())


def uses_of_object_new(source: str) -> list:
    """(enclosing qualified name, line) of each object.__new__ in the
    source; the name is "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "__new__"
                and isinstance(child.value, ast.Name)
                and child.value.id == "object"
            ):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_the_object_new_guard_finds_every_scope():
    source = (
        "a = object.__new__(A)\n"
        "class A:\n"
        "    def slice(self):\n"
        "        return object.__new__(type(self))\n"
        "    b = super().__new__(A)\n"
        "def f():\n"
        "    return object.__new__(A)\n"
    )
    assert uses_of_object_new(source) == [("", 1), ("A.slice", 4), ("f", 7)]


def test_only_the_trusted_matrix_constructor_uses_object_new():
    package = Path(dimshift.__file__).parent
    found = {
        (path.name, scope)
        for path in sorted(package.glob("*.py"))
        for scope, _ in uses_of_object_new(path.read_text())
    }
    assert found == {("linalg.py", "RationalMatrix._of")}
