"""Only linalg.py names the trusted matrix constructor.

RationalMatrix._of coerces and checks nothing, so it is safe only on
entries that linalg's own arithmetic produced.  Every other module
builds matrices through the public constructors, which coerce.
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
