"""Every function the package defines is entered by some command.

A function that no command enters is either dead or serves only tests,
and either way it is code a reader must check for nothing.  The guard
runs each subcommand at a small size under sys.setprofile, after
emptying the memos so every memoized body runs, and compares the code
objects entered with every def and lambda in the package.  The ones
left out are named below, each with the reason it stays.
"""

import ast
import contextlib
import importlib
import io
import pkgutil
import sys

import dimshift
from dimshift.cli import main

from test_report_digests import package_memos

COMMANDS = [
    "demo --m 2 --n 3",
    "verify-sign --seed 31 --m 2 --max-dim 6 --horizon 3 --trials 2",
    "verify-sign --seed 31 --m 2 --max-dim 6 --horizon 3 --trials 2 --format md",
    "verify-lemmas --seed 41 --m 2 --max-dim 6 --horizon 3 --trials 2",
    "sign-table --n 4",
] + [f"dump --what {what} --m 2 --seed 5" for what in ("module", "map", "resolution", "fcomplex")]

ACCEPTANCE = "acceptance criteria 2 and 6 call it"
READER = "the dump round-trip tests read dumps back with it"
REPR = "a readable value in a failed assertion or a debugger"

NOT_ENTERED = {
    "complexes.find_homotopy": ACCEPTANCE,
    "complexes.homotopy_defect": ACCEPTANCE,
    "modules.check_left_exactness": ACCEPTANCE,
    "derived.derived_functor": ACCEPTANCE,
    "derived.DerivedFunctorValue.presentation": ACCEPTANCE,
    "derived.DerivedFunctorValue.dim": ACCEPTANCE,
    "modules.cyclic_module": "perfbench/test_oracle.py builds its modules with it",
    "modules.is_injective": "find_homotopy calls it",
    "modules.HomBasis.coordinates": "tests/test_modules.py cross-checks apply_F_map with it",
    "linalg.RationalMatrix.entry": "tests/test_modules.py cross-checks apply_F_map with it",
    "serialize.matrix_from_lists": READER,
    "serialize.module_from_json": READER,
    "serialize.module_map_from_json": READER,
    "linalg.Subspace.full": "cohomology at a complex's horizon reaches it",
    "harness._failure": "the error path of a trial that raises",
    "harness.ConfigError.__init__": "the error path of a bad flag",
    "complexes.VectorComplex.__repr__": REPR,
    "complexes.ChainMap.__repr__": REPR,
    "complexes.SesOfComplexes.__repr__": REPR,
    "complexes.CohomologyPresentation.__repr__": REPR,
    "linalg.RationalMatrix.__repr__": REPR,
    "linalg.Subspace.__repr__": REPR,
    "linalg.QuotientPresentation.__repr__": REPR,
    "modules.LambdaModule.__repr__": REPR,
    "modules.ModuleMap.__repr__": REPR,
    "modules.SesModules.__repr__": REPR,
    "resolutions.Resolution.__repr__": REPR,
}


def defined_functions(source: str, filename: str, prefix: str) -> dict:
    """{(filename, first line): qualified name} of every def and lambda.
    The first line is that of the first decorator, as a code object's
    co_firstlineno gives it."""
    tree = ast.parse(source)
    owners = {child: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for child in node.body}
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            if node in owners:
                name = f"{owners[node].name}.{name}"
            line = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            found[(filename, line)] = f"{prefix}.{name}"
    return found


def entered_code(run) -> set:
    """(filename, first line) of every Python function run() enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered


def test_the_guard_keys_a_def_as_its_code_object_does():
    source = (
        "import functools\n"
        "@functools.lru_cache(maxsize=2)\n"
        "def a(x):\n    return x\n"
        "class C:\n    @property\n    def b(self):\n        return (lambda: 1)()\n"
        "def unused():\n    pass\n"
    )
    namespace = {}
    exec(compile(source, "<guard>", "exec"), namespace)
    entered = entered_code(lambda: (namespace["a"](1), namespace["C"]().b))
    defined = defined_functions(source, "<guard>", "m")
    assert {name for key, name in defined.items() if key not in entered} == {"m.unused"}


def test_every_function_is_entered_by_a_command():
    defined = {}
    # Importing __main__ would run the command line; it defines nothing.
    for info in pkgutil.iter_modules(dimshift.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"dimshift.{info.name}")
        with open(module.__file__) as f:
            defined.update(defined_functions(f.read(), module.__file__, info.name))
    for memo in package_memos():
        memo.cache_clear()

    def run_all():
        for command in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(command.split()) == 0, command

    entered = entered_code(run_all)
    assert {name for key, name in defined.items() if key not in entered} == set(NOT_ENTERED)
