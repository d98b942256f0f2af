"""No module of the package keeps a mutable container at module level,
and the package defines one invariant-failure class.

State such a container would hold is shared by every caller in the
process, so one run could see what another left behind.  Memos are
functools.lru_cache wrappers bounded at MEMO_SIZE instead.  A second
failure class would be one a suite does not catch as a failed trial.
"""

import ast
import builtins
from pathlib import Path

import dimshift

MUTABLE_CALLS = {"dict", "list", "set"}


def is_mutable_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MUTABLE_CALLS
    )


def module_level_containers(source: str) -> list:
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if value is not None and names != ["__all__"] and is_mutable_container(value):
            found.append((node.lineno, names))
    return found


def test_the_guard_flags_module_level_containers():
    source = "a: dict = {}\nb = []\nc = set()\nd = dict(x=1)\n__all__ = ['a']\ne = (1, 2)\n"
    assert [names for _, names in module_level_containers(source)] == [["a"], ["b"], ["c"], ["d"]]


def test_no_module_level_mutable_containers():
    package = Path(dimshift.__file__).parent
    offenders = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := module_level_containers(path.read_text()))
    }
    assert offenders == {}


MEMO_DECORATORS = {"functools.lru_cache", "lru_cache", "functools.cache", "cache"}
BOUNDED_MEMO = "functools.lru_cache(maxsize=MEMO_SIZE)"


def memo_uses(source: str) -> list:
    """(line, text) of every use of an lru_cache or cache decorator,
    with its arguments when it is called."""
    tree = ast.parse(source)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [
        (node.lineno, ast.unparse(calls.get(id(node), node)))
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(node) in MEMO_DECORATORS
    ]


def test_the_guard_finds_every_memo_use():
    source = (
        "@functools.lru_cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache(maxsize=MEMO_SIZE)\ndef c(): pass\n"
        "d = functools.cache(len)\ne = lru_cache(maxsize=MEMO_SIZE)(len)\n"
    )
    assert [use for use in memo_uses(source) if use[1] != BOUNDED_MEMO] == [
        (1, "functools.lru_cache"),
        (3, "functools.lru_cache(maxsize=None)"),
        (7, "functools.cache(len)"),
        (8, "lru_cache(maxsize=MEMO_SIZE)"),
    ]


def test_every_memo_is_bounded_by_memo_size():
    package = Path(dimshift.__file__).parent
    uses = [use for path in sorted(package.glob("*.py")) for use in memo_uses(path.read_text())]
    assert len(uses) == 8
    assert {text for _, text in uses} == {BOUNDED_MEMO}


ALLOWED_EXCEPTIONS = {("linalg.py", "VerificationFailure"), ("harness.py", "ConfigError")}


def exception_classes(sources: dict) -> set:
    """(file, class) for every class that derives from a builtin
    exception, directly or through other classes in the sources."""
    bases = {
        (name, node.name): {ast.unparse(b).split(".")[-1] for b in node.bases}
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }
    known = {
        n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)
    }
    found = set()
    while new := {key for key, b in bases.items() if key not in found and b & known}:
        found |= new
        known |= {cls for _, cls in new}
    return found


def test_the_guard_finds_exception_classes_through_subclasses():
    sources = {"a.py": "class E(ValueError): pass\nclass P: pass\n", "b.py": "class F(E): pass\n"}
    assert exception_classes(sources) == {("a.py", "E"), ("b.py", "F")}


def test_one_invariant_failure_class():
    package = Path(dimshift.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert exception_classes(sources) - ALLOWED_EXCEPTIONS == set()
