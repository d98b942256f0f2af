"""The package's value records are named tuples: importing the command
line loads no dataclasses, every record is frozen, and the checks that
ran after construction still run in the constructor."""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dimshift
from dimshift import complexes, derived, harness, linalg, modules, resolutions
from dimshift.cli import main
from dimshift.harness import ConfigError, GeneratorConfig, run_sign_suite
from dimshift.linalg import RationalMatrix
from dimshift.modules import (
    FunctorSpec,
    TruncatedAlgebra,
    apply_F_map,
    cyclic_module,
    identity_map,
    simple_module,
)
from dimshift.resolutions import Resolution, ResolutionRegistry, injective_resolution

RECORDS = [
    modules.TruncatedAlgebra,
    modules.CanonicalForm,
    modules.FunctorSpec,
    modules.Kernel,
    modules.Cokernel,
    modules.ImageFactorization,
    modules.DirectSum,
    derived.DerivedFunctorValue,
    derived.DegreeZeroConnecting,
    derived.SignReport,
    derived.ConnectingSquareReport,
    derived.StepSignReport,
    resolutions.ResolutionSplitting,
    resolutions.TwistedSum,
    harness.GeneratorConfig,
    harness.RunReport,
    # The values whose constructors check an invariant.
    linalg.Subspace,
    linalg.QuotientPresentation,
    modules.LambdaModule,
    modules.ModuleMap,
    modules.SesModules,
    modules.HomBasis,
    complexes.VectorComplex,
    complexes.ModuleComplex,
    complexes.ChainMap,
    complexes.SesOfComplexes,
    complexes.CohomologyPresentation,
    resolutions.Resolution,
]
SLOW_TO_LOAD = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_dataclasses():
    src = str(Path(dimshift.__file__).parent.parent)
    code = (
        "import sys, dimshift.cli; "
        f"print(sorted(set({SLOW_TO_LOAD!r}) & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


@functools.cache
def checked_values() -> dict:
    """One value of each class whose constructor checks an invariant,
    built as the package builds it."""
    algebra = TruncatedAlgebra(2)
    k = simple_module(algebra)
    E = harness.gen_random_ses(GeneratorConfig(max_dim=4), random.Random(5))
    registry = ResolutionRegistry()
    hs = resolutions.horseshoe(E, registry.resolution(E.sub, 2), registry.resolution(E.quot, 2))
    F = FunctorSpec(E.sub.algebra, simple_module(E.sub.algebra))
    C = complexes.VectorComplex([1, 1], [RationalMatrix.zeros(1, 1)])
    H = complexes.cohomology(C, 0)
    return {
        linalg.Subspace: H.cocycles,
        linalg.QuotientPresentation: H.presentation,
        modules.LambdaModule: k,
        modules.ModuleMap: identity_map(k),
        modules.SesModules: E,
        modules.HomBasis: modules.hom_basis(k, cyclic_module(algebra, 2)),
        complexes.VectorComplex: complexes.apply_F_complex(F, hs.resolution.complex),
        complexes.ModuleComplex: hs.resolution.complex,
        complexes.ChainMap: hs.ses.sub_to_mid,
        complexes.SesOfComplexes: hs.ses,
        complexes.CohomologyPresentation: H,
        resolutions.Resolution: hs.resolution,
    }


def an_instance(cls):
    checked = checked_values()
    if cls in checked:
        return checked[cls]
    if cls is TruncatedAlgebra:
        return TruncatedAlgebra(2)
    if cls is FunctorSpec:
        return FunctorSpec(TruncatedAlgebra(2), simple_module(TruncatedAlgebra(2)))
    if cls is GeneratorConfig:
        return GeneratorConfig()
    return cls(*[None] * len(cls._fields))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_is_frozen(cls):
    record = an_instance(cls)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_algebra_and_functor_checks_still_raise():
    with pytest.raises(ValueError, match="truncation exponent must be at least 2"):
        TruncatedAlgebra(1)
    with pytest.raises(ValueError, match="source module lives over a different algebra"):
        FunctorSpec(TruncatedAlgebra(3), simple_module(TruncatedAlgebra(2)))


BOUNDS = [("m", 2), ("horizon", 2), ("trials", 1), ("max_dim", 1), ("max_padding", 0)]


@pytest.mark.parametrize("field,least", BOUNDS)
def test_each_config_bound_names_its_field(field, least, capsys):
    with pytest.raises(ConfigError) as caught:
        GeneratorConfig(**{field: least - 1})
    assert caught.value.field == field
    flag = "--" + field.replace("_", "-")
    assert main(["verify-sign", flag, str(least - 1)]) == 2
    assert capsys.readouterr().err == f"verify-sign: {flag} must be at least {least}\n"


def test_suite_config_keys_keep_their_order():
    report = run_sign_suite(GeneratorConfig(seed=3, max_dim=2, horizon=2, trials=1))
    assert list(report.to_json_dict()["config"]) == [
        "suite", "seed", "m", "max_dim", "max_padding", "horizon", "trials"
    ]


def test_equal_functor_specs_hit_one_memo_entry():
    # Built separately, so only equality and hashing can match them.
    specs = [FunctorSpec(TruncatedAlgebra(3), cyclic_module(TruncatedAlgebra(3), 2)) for _ in range(2)]
    f = identity_map(simple_module(TruncatedAlgebra(3)))
    assert specs[0] is not specs[1]
    apply_F_map(specs[0], f)
    before = apply_F_map.cache_info()
    apply_F_map(specs[1], f)
    after = apply_F_map.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_truncating_a_resolution_checks_nothing_again(monkeypatch):
    R = injective_resolution(cyclic_module(TruncatedAlgebra(3), 2), 5)
    checked = []
    init = Resolution.__init__

    def counting(self, *args):
        checked.append(args)
        init(self, *args)

    monkeypatch.setattr(Resolution, "__init__", counting)
    short = R.truncate(2)
    assert checked == []
    assert type(short) is Resolution and short.horizon == 2
    assert short.complex == R.complex.truncate(2)
    # The public constructor of the same parts does check them.
    assert Resolution(*short) == short
    assert len(checked) == 1


def test_a_grown_registry_resolution_equals_the_fresh_build():
    M = cyclic_module(TruncatedAlgebra(3), 2)
    registry = ResolutionRegistry()
    registry.resolution(M, 2)
    grown = registry.resolution(M, 6)
    fresh = injective_resolution(M, 6)
    assert grown is not fresh
    assert grown == fresh and hash(grown) == hash(fresh)
    assert grown != injective_resolution(M, 5)
