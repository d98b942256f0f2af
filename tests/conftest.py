import sys
from pathlib import Path

import pytest

# Make the sibling fraction_oracle module importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))

from dimshift.modules import TruncatedAlgebra, free_module, simple_module
from dimshift.resolutions import ResolutionRegistry


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
def registry():
    return ResolutionRegistry()
