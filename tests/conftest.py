import sys
from pathlib import Path

import pytest

# Make the sibling fraction_oracle module importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))

from dimshift.complexes import ChainMap, ModuleComplex
from dimshift.linalg import NoSolution, RationalMatrix
from dimshift.modules import (
    LambdaModule,
    ModuleMap,
    TruncatedAlgebra,
    free_module,
    identity_map,
    simple_module,
)
from dimshift.resolutions import ResolutionRegistry


def identity_chain_map(C):
    """The identity chain map of a vector or module complex."""
    if isinstance(C, ModuleComplex):
        return ChainMap(C, C, [identity_map(M) for M in C.objects])
    return ChainMap(C, C, [RationalMatrix.identity(d) for d in C.dims])


@pytest.fixture
def alg2():
    return TruncatedAlgebra(2)


@pytest.fixture
def alg3():
    return TruncatedAlgebra(3)


@pytest.fixture
def k2(alg2):
    return simple_module(alg2)


@pytest.fixture
def lam2(alg2):
    return free_module(alg2, 1)


@pytest.fixture
def zero2(alg2):
    """The zero module over k[x]/(x^2)."""
    return LambdaModule(alg2, RationalMatrix.zeros(0, 0))


@pytest.fixture
def zero_map():
    """zero_map(src, dst): the zero map of modules."""
    return lambda src, dst: ModuleMap(src, dst, RationalMatrix.zeros(dst.dim, src.dim))


@pytest.fixture
def registry():
    return ResolutionRegistry()


@pytest.fixture
def fail_on_call(monkeypatch):
    """install(owner, name, call): owner.name returns NoSolution on its
    call-th call from then on, and passes every other call through."""

    def install(owner, name, call):
        real = getattr(owner, name)
        calls = []

        def patched(*args):
            calls.append(None)
            return NoSolution if len(calls) == call else real(*args)

        monkeypatch.setattr(owner, name, patched)

    return install
