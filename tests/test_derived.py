"""Derived functors, comparison and shift isomorphisms, sign checks."""

import random

import pytest

from dimshift.linalg import (
    RationalMatrix,
    Subspace,
    kernel_basis,
    quotient,
    rank,
    rat,
    solve_matrix,
)
from dimshift.modules import (
    FunctorSpec,
    ModuleMap,
    SesModules,
    apply_F_map,
    apply_F_object,
    cokernel_module,
    cyclic_module,
    direct_sum,
    embed_into_injective,
    free_module,
    hom_basis,
    identity_map,
    zero_map,
    zero_module,
)
from dimshift.complexes import (
    apply_F_chain_map,
    apply_F_ses,
    cohomology,
    induced_on_cohomology,
    snake_delta_matrix,
)
from dimshift.resolutions import (
    ResolutionRegistry,
    horseshoe,
    lift_resolution_map,
)
from dimshift.derived import (
    AcyclicityFailure,
    NotEpic,
    comparison_iso,
    derived_connecting,
    derived_connecting_deg0,
    derived_functor,
    dimension_shift_iso,
    sign_factor,
    verify_connecting_square,
    verify_shift_step_sign,
    verify_sign_identity,
)
from dimshift.harness import (
    GeneratorConfig,
    gen_padded_resolution,
    gen_random_functor,
    gen_random_module,
    gen_random_ses,
)

from fraction_oracle import block_sizes, ext_dim


def standard_ses(k):
    iota = embed_into_injective(k)
    return SesModules(iota, cokernel_module(iota).projection)


# -- the sign factor ---------------------------------------------------------

def test_sign_factor_frozen_values():
    assert sign_factor(1) == -1
    assert sign_factor(2) == -1
    assert sign_factor(3) == 1
    assert sign_factor(4) == 1
    assert sign_factor(5) == -1


def test_sign_factor_has_period_four():
    for n in range(1, 13):
        assert sign_factor(n + 4) == sign_factor(n)
        assert sign_factor(n) == (-1) ** ((n * n + n) // 2)


# -- derived functor values --------------------------------------------------

def test_derived_functor_of_the_simple_module(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    value = derived_functor(F, k2, 5, registry)
    assert [value.dim(i) for i in range(5)] == [1, 1, 1, 1, 1]
    assert value.dim(0) == apply_F_object(F, k2).dim


def test_derived_functor_vanishes_on_injectives(alg2, k2, lam2, registry):
    F = FunctorSpec(alg2, k2)
    value = derived_functor(F, lam2, 4, registry)
    assert value.dim(0) == apply_F_object(F, lam2).dim
    assert all(value.dim(i) == 0 for i in range(1, 4))


def test_free_source_functors_have_no_higher_derived_values(registry):
    rng = random.Random(71)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=6)
    F = FunctorSpec(cfg.algebra, free_module(cfg.algebra, 1))
    for _ in range(5):
        Mod = gen_random_module(cfg, rng)
        value = derived_functor(F, Mod, 3, registry)
        assert value.dim(0) == Mod.dim
        assert all(value.dim(i) == 0 for i in range(1, 3))


def test_block_sizes_oracle_on_cyclic_sums():
    cfg = GeneratorConfig(seed=0, m=4)
    for sizes in ([1], [4], [2, 3, 1], [4, 4, 2]):
        M = cyclic_module(cfg.algebra, sizes[0])
        for size in sizes[1:]:
            M = direct_sum(M, cyclic_module(cfg.algebra, size)).module
        assert sorted(block_sizes(M)) == sorted(sizes)


def test_derived_functor_matches_the_closed_form():
    rng = random.Random(76)
    for m in (2, 3, 4):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
        registry = ResolutionRegistry()
        for _ in range(4):
            F = gen_random_functor(cfg, rng)
            Mod = gen_random_module(cfg, rng)
            value = derived_functor(F, Mod, 5, registry)
            for n in range(5):
                assert value.dim(n) == ext_dim(F.source, Mod, m, n)


# -- the comparison isomorphism ----------------------------------------------

def test_comparison_on_the_registry_resolution_is_the_identity(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    for n in range(4):
        J = registry.resolution(k2, max(n + 1, 1))
        c = comparison_iso(F, k2, J, n, registry)
        assert c == RationalMatrix.identity(1)


def test_comparison_is_independent_of_the_lift():
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6, max_padding=2)
    registry = ResolutionRegistry()
    rng = random.Random(72)
    for _ in range(5):
        F = gen_random_functor(cfg, rng)
        Mod = gen_random_module(cfg, rng)
        n = rng.randint(1, 3)
        J = gen_padded_resolution(Mod, n + 1, cfg, rng, registry)
        c1 = comparison_iso(F, Mod, J, n, registry, random.Random(1))
        c2 = comparison_iso(F, Mod, J, n, registry, random.Random(2))
        assert c1 == c2
        assert rank(c1) == c1.nrows == c1.ncols


def test_comparison_on_an_injective_base_is_empty(alg2, k2, lam2, registry):
    F = FunctorSpec(alg2, k2)
    J = registry.resolution(lam2, 3)
    c = comparison_iso(F, lam2, J, 2, registry)
    assert (c.nrows, c.ncols) == (0, 0)


def test_comparison_rejects_non_acyclic_resolutions(alg2, k2):
    from dimshift.complexes import ModuleComplex
    from dimshift.resolutions import Resolution

    registry = ResolutionRegistry()
    F = FunctorSpec(alg2, k2)
    # A perfectly exact resolution whose objects fail the acyclicity test.
    J = Resolution(
        k2,
        identity_map(k2),
        ModuleComplex([k2, zero_module(alg2)], [zero_map(k2, zero_module(alg2))]),
    )
    with pytest.raises(AcyclicityFailure):
        comparison_iso(F, k2, J, 0, registry)


# -- connecting maps ---------------------------------------------------------

def test_connecting_vanishes_on_split_sequences(registry):
    rng = random.Random(73)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=5)
    from dimshift.modules import direct_sum

    A = gen_random_module(cfg, rng)
    B = gen_random_module(cfg, rng)
    ds = direct_sum(A, B)
    E = SesModules(ds.include_left, ds.project_right)
    F = gen_random_functor(cfg, rng)
    for p in (0, 1, 2):
        assert derived_connecting(F, E, p, registry).is_zero()


def test_connecting_of_the_standard_sequence_is_invertible(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    E = standard_ses(k2)
    for p in (1, 2, 3):
        delta = derived_connecting(F, E, p, registry)
        assert (delta.nrows, delta.ncols) == (1, 1)
        assert delta.entry(0, 0) != 0


def test_connecting_is_independent_of_horseshoe_and_chase_choices(registry):
    rng = random.Random(74)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=6)
    for _ in range(5):
        F = gen_random_functor(cfg, rng)
        E = gen_random_ses(cfg, rng)
        p = rng.randint(0, 2)
        base = derived_connecting(F, E, p, registry)
        assert derived_connecting(F, E, p, registry, rng) == base
        assert derived_connecting(F, E, p, registry, rng) == base


def ses_endomorphism(E, rng):
    """A random (a, b, c) with b preserving the sub term, a and c induced."""
    iota, pi = E.a_to_c, E.c_to_b
    basis = hom_basis(E.mid, E.mid)
    W = Subspace.from_columns(iota.matrix)
    Q = quotient(E.mid.dim, W)
    cols = []
    for t in range(basis.dim):
        probe = Q.reduction_map @ (basis.element(t) @ iota.matrix)
        cols.append([x for row in probe.rows for x in row])
    constraint = RationalMatrix.from_columns(cols, Q.dim * E.sub.dim)
    K = kernel_basis(constraint)
    assert K.ncols >= 1  # the identity always preserves the sub term
    coeffs = [rat(rng.randint(-2, 2)) for _ in range(K.ncols)]
    b = ModuleMap(E.mid, E.mid, basis.from_coordinates(K.apply(coeffs)))
    a_matrix = solve_matrix(iota.matrix, b.matrix @ iota.matrix)
    a = ModuleMap(E.sub, E.sub, a_matrix)
    section = solve_matrix(pi.matrix, RationalMatrix.identity(E.quot.dim))
    c = ModuleMap(E.quot, E.quot, pi.matrix @ (b.matrix @ section))
    assert c.matrix @ pi.matrix == pi.matrix @ b.matrix
    assert b.matrix @ iota.matrix == iota.matrix @ a.matrix
    return a, b, c


def derived_map_matrix(F, phi, p, registry):
    """R^p F(phi) in the registry presentations."""
    RS = registry.resolution(phi.src, p + 2)
    RT = registry.resolution(phi.dst, p + 2)
    lift = lift_resolution_map(phi, RS, RT)
    return induced_on_cohomology(apply_F_chain_map(F, lift), p)


def test_connecting_is_natural_in_the_sequence():
    rng = random.Random(75)
    for m, seeds in ((2, 3), (3, 2)):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
        registry = ResolutionRegistry()
        for _ in range(seeds):
            F = gen_random_functor(cfg, rng)
            E = gen_random_ses(cfg, rng)
            a, b, c = ses_endomorphism(E, rng)
            for p in (1, 2):
                delta = derived_connecting(F, E, p, registry)
                left = delta @ derived_map_matrix(F, c, p, registry)
                right = derived_map_matrix(F, a, p + 1, registry) @ delta
                assert left == right


def test_degree_zero_connecting_on_a_split_injective_sequence_is_empty(
    alg2, k2, registry
):
    from dimshift.modules import direct_sum

    # Split with injective ends, so the middle meets the acyclicity
    # precondition; the barred domain collapses to zero.
    A = free_module(alg2, 1)
    B = free_module(alg2, 2)
    ds = direct_sum(A, B)
    E = SesModules(ds.include_left, ds.project_right)
    F = FunctorSpec(alg2, k2)
    bar = derived_connecting_deg0(F, E, registry)
    assert bar.presentation.dim == 0
    assert bar.matrix.ncols == 0


def test_degree_zero_connecting_of_the_standard_sequence(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    bar = derived_connecting_deg0(F, standard_ses(k2), registry)
    assert bar.presentation.dim == 1
    assert (bar.matrix.nrows, bar.matrix.ncols) == (1, 1)
    assert bar.matrix.entry(0, 0) != 0


def test_barred_connecting_factors_the_raw_chase(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    E = standard_ses(k2)
    RA = registry.resolution(E.sub, 2)
    RB = registry.resolution(E.quot, 2)
    hs = horseshoe(E, RA, RB)
    FS = apply_F_ses(F, hs.ses)
    H0 = cohomology(FS.quot, 0)
    iota_coords = H0.cocycles.express_columns(apply_F_map(F, RB.augmentation))
    unbarred = snake_delta_matrix(FS, 0) @ iota_coords
    bar = derived_connecting_deg0(F, E, registry)
    assert bar.matrix @ bar.presentation.reduction_map == unbarred


def test_degree_zero_connecting_detects_non_acyclic_middles(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    # 0 -> k -> k -> 0 -> 0: exact, but the middle is not acyclic for F.
    E = SesModules(identity_map(k2), zero_map(k2, zero_module(alg2)))
    with pytest.raises(NotEpic):
        derived_connecting_deg0(F, E, registry)


# -- the dimension-shifting isomorphism --------------------------------------

def test_worked_example_signs_through_degree_six(alg2, k2):
    registry = ResolutionRegistry()
    F = FunctorSpec(alg2, k2)
    for n in range(1, 7):
        J = registry.resolution(k2, n + 1)
        c = comparison_iso(F, k2, J, n, registry)
        d = dimension_shift_iso(F, k2, J, n, registry)
        assert c == RationalMatrix.identity(1)
        assert d == RationalMatrix([[rat(sign_factor(n))]], 1)


def test_shift_iso_is_independent_of_chase_choices():
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6, max_padding=2)
    registry = ResolutionRegistry()
    rng = random.Random(77)
    for _ in range(5):
        F = gen_random_functor(cfg, rng)
        Mod = gen_random_module(cfg, rng)
        n = rng.randint(1, 3)
        J = gen_padded_resolution(Mod, n + 1, cfg, rng, registry)
        d1 = dimension_shift_iso(F, Mod, J, n, registry, random.Random(5))
        d2 = dimension_shift_iso(F, Mod, J, n, registry, random.Random(6))
        assert d1 == d2


def test_sign_identity_on_padded_resolutions():
    cfg = GeneratorConfig(seed=0, m=3, max_dim=8, max_padding=2)
    registry = ResolutionRegistry()
    rng = random.Random(78)
    for _ in range(5):
        F = gen_random_functor(cfg, rng)
        Mod = gen_random_module(cfg, rng)
        n = rng.randint(1, 3)
        J = gen_padded_resolution(Mod, n + 1, cfg, rng, registry)
        report = verify_sign_identity(F, Mod, J, n, registry, rng)
        assert report.verdict, report.mismatch
        assert report.shifted == RationalMatrix(
            [[rat(report.sign) * x for x in row] for row in report.comparison.rows],
            report.comparison.ncols,
        )


def test_sign_identity_is_vacuous_on_injective_bases(alg2, k2, lam2, registry):
    F = FunctorSpec(alg2, k2)
    J = registry.resolution(lam2, 3)
    report = verify_sign_identity(F, lam2, J, 2, registry)
    assert report.verdict and report.dim == 0
    assert report.mismatch is None


# -- the two verification lemmas ---------------------------------------------

def test_connecting_square_over_registry_resolutions(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    E = standard_ses(k2)
    for p in (0, 1, 2):
        report = verify_connecting_square(F, E, p, registry)
        assert report.verdict


def test_connecting_square_with_padded_resolutions():
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6, max_padding=2)
    registry = ResolutionRegistry()
    rng = random.Random(79)
    for _ in range(5):
        F = gen_random_functor(cfg, rng)
        E = gen_random_ses(cfg, rng)
        p = rng.randint(0, 2)
        RA = gen_padded_resolution(E.sub, p + 2, cfg, rng, registry)
        RB = gen_padded_resolution(E.quot, p + 2, cfg, rng, registry)
        report = verify_connecting_square(F, E, p, registry, RA, RB, rng)
        assert report.verdict
        assert report.via_chase == report.via_canonical


def test_step_signs_for_the_standard_resolution(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    n = 3
    J = registry.resolution(k2, n + 2)
    signs = []
    for p in range(n):
        report = verify_shift_step_sign(F, J, n, p, registry)
        assert report.verdict
        signs.append(report.expected_sign)
    assert signs == [-1, 1, -1]
    product = 1
    for s in signs:
        product *= s
    assert product == sign_factor(n)


def test_step_signs_on_padded_resolutions():
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6, max_padding=2)
    registry = ResolutionRegistry()
    rng = random.Random(80)
    for _ in range(4):
        F = gen_random_functor(cfg, rng)
        Mod = gen_random_module(cfg, rng)
        n = rng.randint(1, 3)
        J = gen_padded_resolution(Mod, n + 2, cfg, rng, registry)
        for p in range(n):
            report = verify_shift_step_sign(F, J, n, p, registry, rng=rng)
            assert report.verdict
            assert report.expected_sign == (-1) ** (p + 1)
