"""No module of the package keeps a mutable container at module level.

State such a container would hold is shared by every caller in the
process, so one run could see what another left behind.  Memos are
bounded functools.lru_cache wrappers instead.
"""

import ast
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
