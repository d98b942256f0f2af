"""Every function of the package reads each parameter it takes.

A parameter no body reads is a slot that every caller must fill and
that changes nothing, so a caller can believe it chose something.  The
instance a method is bound to is not chosen by a caller, and the
record constructors take their fields only for __new__, then check
them through self._check(0); neither counts.
"""

import ast
from pathlib import Path

import dimshift

RECORD_CHECK = "self._check(0)"


def unread_parameters(source: str) -> tuple:
    """The unread parameters as (line, qualified name, parameter), reads
    in nested functions included, and the record constructors as
    (line, qualified name)."""
    tree = ast.parse(source)
    owners = {
        child: node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for child in node.body
    }
    unread, records = [], []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if node in owners:
            name = f"{owners[node].name}.{name}"
        body = node.body if isinstance(node.body, list) else [node.body]
        if name.endswith(".__init__") and [ast.unparse(s) for s in body] == [RECORD_CHECK]:
            records.append((node.lineno, name))
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a]
        if node in owners and params[:1] in (["self"], ["cls"]):
            params = params[1:]
        read = {
            n.id
            for statement in body
            for n in ast.walk(statement)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        unread += [(node.lineno, name, p) for p in params if p not in read]
    return unread, records


def test_the_guard_finds_unread_parameters():
    source = (
        "def a(x, y, *rest, z=1, **extra):\n    return x + z\n"
        "def b(u):\n    def inner():\n        return u\n    return inner\n"
        "f = lambda v, w: v\n"
        "class C:\n"
        "    def __init__(self, p):\n        self._check(0)\n"
        "    def m(self, q):\n        return 1\n"
    )
    unread, records = unread_parameters(source)
    assert unread == [
        (1, "a", "y"), (1, "a", "rest"), (1, "a", "extra"),
        (7, "<lambda>", "w"), (11, "C.m", "q"),
    ]
    assert records == [(9, "C.__init__")]


def test_every_parameter_is_read():
    package = Path(dimshift.__file__).parent
    found = {path.name: unread_parameters(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: unread for name, (unread, _) in found.items() if unread} == {}
    records = {record for _, (_, rs) in found.items() for _, record in rs}
    assert records == {
        "VectorComplex.__init__", "ChainMap.__init__", "SesOfComplexes.__init__", "Resolution.__init__",
    }
