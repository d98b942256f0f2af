"""The package has one scalar type, fractions.Fraction.

Matrices are integer rows over one common denominator, so a second
rational backend could only speed up the conversions at the boundary,
and it would be a code path that no test run covers.
"""

import ast
import fractions
from pathlib import Path

import dimshift
import dimshift.linalg


def imported_modules(source: str) -> set:
    """Top-level names of every absolute import, wherever it sits."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_guard_finds_imports_inside_try_blocks():
    source = (
        "try:\n    from gmpy2 import mpq as Rat\n"
        "except ImportError:\n    from fractions import Fraction as Rat\n"
        "import os.path\nfrom . import linalg\n"
    )
    assert imported_modules(source) == {"gmpy2", "fractions", "os"}


def test_no_module_imports_gmpy2():
    package = Path(dimshift.__file__).parent
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if "gmpy2" in imported_modules(path.read_text())
    ]
    assert offenders == []


def test_rat_is_fraction():
    assert dimshift.linalg.Rat is fractions.Fraction
