"""Module category: hom spaces vs a dense oracle, injectives, functor laws."""

import random

import pytest

from dimshift.linalg import RationalMatrix, kernel_basis, rank, rat
from dimshift.modules import (
    ConstructionFailure,
    FunctorSpec,
    LambdaModule,
    ModuleMap,
    SesModules,
    TruncatedAlgebra,
    apply_F_map,
    apply_F_object,
    canonical_form,
    check_left_exactness,
    cokernel_module,
    compose,
    cyclic_module,
    direct_sum,
    embed_into_injective,
    extend_along_mono,
    free_module,
    hom_basis,
    hom_space,
    identity_map,
    image_factorization,
    is_injective,
    kernel_module,
    simple_module,
    zero_map,
    zero_module,
    _shift_blocks,
)
from dimshift.harness import GeneratorConfig, gen_random_map, gen_random_module

from fraction_oracle import intertwiner_space_dim, socle_dim


def x_multiplication(M):
    return ModuleMap(M, M, M.X)


# -- frozen examples ---------------------------------------------------------

def test_hom_dimensions_for_m_equals_two(alg2, k2, lam2):
    assert hom_basis(k2, lam2).dim == 1
    assert hom_basis(k2, k2).dim == 1
    assert hom_basis(lam2, lam2).dim == 2


def test_kernel_and_cokernel_of_multiplication_by_x(lam2):
    f = x_multiplication(lam2)
    K = kernel_module(f)
    C = cokernel_module(f)
    assert K.module.dim == 1 and K.module.X.is_zero()
    assert C.module.dim == 1 and C.module.X.is_zero()
    assert (f.matrix @ K.inclusion.matrix).is_zero()
    assert (C.projection.matrix @ f.matrix).is_zero()


def test_direct_sum_is_a_biproduct(alg2, k2, lam2):
    ds = direct_sum(lam2, k2)
    assert ds.module.dim == 3
    assert compose(ds.project_left, ds.include_left) == identity_map(lam2)
    assert compose(ds.project_right, ds.include_right) == identity_map(k2)
    assert compose(ds.project_left, ds.include_right).is_zero()
    assert compose(ds.project_right, ds.include_left).is_zero()
    recomposed = (
        ds.include_left.matrix @ ds.project_left.matrix
        + ds.include_right.matrix @ ds.project_right.matrix
    )
    assert recomposed == RationalMatrix.identity(3)


def test_injectivity_of_the_basic_modules(alg2, k2, lam2):
    assert is_injective(lam2)
    assert not is_injective(k2)
    assert not is_injective(direct_sum(lam2, k2).module)


def test_simple_module_embeds_onto_the_socle(alg2, k2):
    mono = embed_into_injective(k2)
    E = mono.dst
    assert is_injective(E) and E.dim == 2
    assert not mono.matrix.is_zero()
    assert (E.X @ mono.matrix).is_zero()


def test_free_module_embeds_isomorphically(lam2):
    mono = embed_into_injective(lam2)
    assert mono.dst.dim == 2
    assert rank(mono.matrix) == 2


def test_length_two_cyclic_over_m_three_embeds_as_multiplication_by_x(alg3):
    C = cyclic_module(alg3, 2)
    mono = embed_into_injective(C)
    expected = RationalMatrix(
        [[rat(0), rat(0)], [rat(1), rat(0)], [rat(0), rat(1)]], 2
    )
    assert mono.dst.dim == 3
    assert mono.matrix == expected


def test_functor_sends_identity_to_identity(alg2, k2, lam2):
    F = FunctorSpec(alg2, k2)
    assert apply_F_map(F, identity_map(lam2)) == RationalMatrix.identity(
        apply_F_object(F, lam2).dim
    )


def test_functor_kills_multiplication_by_x_on_the_free_module(alg2, k2, lam2):
    F = FunctorSpec(alg2, k2)
    assert apply_F_map(F, x_multiplication(lam2)) == RationalMatrix(
        [[rat(0)]], 1
    )


def standard_ses(alg2, k2, lam2):
    # 0 -> k -> free -> k -> 0: socle in, top coefficient out.
    iota = embed_into_injective(k2)
    coker = cokernel_module(iota)
    return SesModules(iota, coker.projection)


def test_left_exactness_holds_but_right_exactness_fails(alg2, k2, lam2):
    F = FunctorSpec(alg2, k2)
    E = standard_ses(alg2, k2, lam2)
    assert check_left_exactness(F, E)
    Fp = apply_F_map(F, E.c_to_b)
    assert Fp.is_zero()
    assert rank(Fp) < apply_F_object(F, E.quot).dim


def test_left_exactness_on_split_sequences(alg2, k2, lam2):
    F = FunctorSpec(alg2, lam2)
    ds = direct_sum(k2, lam2)
    assert check_left_exactness(F, SesModules(ds.include_left, ds.project_right))


def test_ses_constructor_rejects_inexact_data(k2):
    with pytest.raises(ValueError):
        SesModules(identity_map(k2), identity_map(k2))


# -- oracle cross-checks -----------------------------------------------------

def test_hom_dimension_against_dense_oracle():
    rng = random.Random(21)
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=5)
        for _ in range(25):
            A = gen_random_module(cfg, rng)
            B = gen_random_module(cfg, rng)
            assert hom_basis(A, B).dim == intertwiner_space_dim(A, B)
            assert hom_space(A, B).dim == hom_basis(A, B).dim


def test_socle_oracle_for_maps_from_the_simple_module():
    rng = random.Random(22)
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
        k = simple_module(cfg.algebra)
        for _ in range(25):
            B = gen_random_module(cfg, rng)
            assert hom_basis(k, B).dim == socle_dim(B)


def test_free_source_oracle():
    rng = random.Random(23)
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
        free = free_module(cfg.algebra, 1)
        for _ in range(25):
            B = gen_random_module(cfg, rng)
            assert hom_basis(free, B).dim == B.dim


# -- laws --------------------------------------------------------------------

def test_hom_basis_elements_intertwine_and_coordinates_round_trip():
    rng = random.Random(24)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=5)
    for _ in range(20):
        A = gen_random_module(cfg, rng)
        B = gen_random_module(cfg, rng)
        basis = hom_basis(A, B)
        for i in range(basis.dim):
            el = basis.element(i)
            assert el @ A.X == B.X @ el
            coords = basis.coordinates(el)
            assert coords == tuple(
                rat(1) if j == i else rat(0) for j in range(basis.dim)
            )
        f = gen_random_map(A, B, rng)
        assert basis.from_coordinates(basis.coordinates(f.matrix)) == f.matrix


def test_canonical_form_conjugates_to_the_block_shift():
    rng = random.Random(25)
    for m in (2, 3, 4):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=7)
        for _ in range(15):
            Mod = gen_random_module(cfg, rng)
            cf = canonical_form(Mod)
            assert cf.P @ cf.P_inv == RationalMatrix.identity(Mod.dim)
            assert list(cf.block_sizes) == sorted(cf.block_sizes, reverse=True)
            assert sum(cf.block_sizes) == Mod.dim
            assert cf.P_inv @ (Mod.X @ cf.P) == _shift_blocks(cf.block_sizes, Mod.dim)


def test_injectivity_matches_full_length_blocks():
    rng = random.Random(26)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=7)
    for _ in range(20):
        Mod = gen_random_module(cfg, rng)
        cf = canonical_form(Mod)
        assert is_injective(Mod) == all(b == cfg.m for b in cf.block_sizes)


def test_kernel_cokernel_image_postconditions():
    rng = random.Random(27)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=6)
    for _ in range(20):
        A = gen_random_module(cfg, rng)
        B = gen_random_module(cfg, rng)
        f = gen_random_map(A, B, rng)
        K = kernel_module(f)
        C = cokernel_module(f)
        fact = image_factorization(f)
        assert (f.matrix @ K.inclusion.matrix).is_zero()
        assert K.inclusion.is_mono()
        assert K.module.dim + fact.module.dim == A.dim
        assert (C.projection.matrix @ f.matrix).is_zero()
        assert C.projection.is_epi()
        assert C.module.dim == B.dim - fact.module.dim
        assert compose(fact.inclusion, fact.corestriction) == f
        assert fact.corestriction.is_epi()
        assert fact.inclusion.is_mono()


def test_functor_respects_composition():
    rng = random.Random(28)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=5)
    for _ in range(15):
        F = FunctorSpec(cfg.algebra, gen_random_module(cfg, rng, max_dim=3))
        A = gen_random_module(cfg, rng)
        B = gen_random_module(cfg, rng)
        C = gen_random_module(cfg, rng)
        f = gen_random_map(A, B, rng)
        g = gen_random_map(B, C, rng)
        assert apply_F_map(F, compose(g, f)) == apply_F_map(F, g) @ apply_F_map(F, f)


def test_functor_on_a_map_is_post_composition():
    # Column i of F(f) holds the coordinates of f o e_i, where e_i is the
    # i-th basis map A -> M; several blocks in A exercise every block of
    # the block-diagonal F(f).
    rng = random.Random(29)
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=5)
        for _ in range(12):
            A = gen_random_module(cfg, rng, max_dim=4)
            M = gen_random_module(cfg, rng)
            N = gen_random_module(cfg, rng)
            f = gen_random_map(M, N, rng)
            Ff = apply_F_map(FunctorSpec(cfg.algebra, A), f)
            src, dst = hom_basis(A, M), hom_basis(A, N)
            assert (Ff.nrows, Ff.ncols) == (dst.dim, src.dim)
            for i in range(src.dim):
                assert Ff.column(i) == dst.coordinates(f.matrix @ src.element(i))


def test_left_exactness_on_random_sequences():
    from dimshift.harness import gen_random_ses

    rng = random.Random(29)
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
        for _ in range(15):
            F = FunctorSpec(cfg.algebra, gen_random_module(cfg, rng, max_dim=3))
            E = gen_random_ses(cfg, rng)
            assert check_left_exactness(F, E)


def test_extension_along_monomorphisms():
    rng = random.Random(30)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=5)
    for _ in range(20):
        A = gen_random_module(cfg, rng)
        mono = embed_into_injective(A)
        E = free_module(cfg.algebra, rng.randint(1, 2))
        g = gen_random_map(A, E, rng)
        for variation in (None, rng):
            h = extend_along_mono(mono, g, variation)
            assert h.matrix @ mono.matrix == g.matrix


def test_extension_along_a_non_injective_differential(registry):
    rng = random.Random(31)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=5)
    stray_seen = 0
    for _ in range(10):
        R = registry.resolution(gen_random_module(cfg, rng), 1)
        d = R.differential(0)  # ker d is the image of the base, never zero
        E = free_module(cfg.algebra, rng.randint(1, 2))
        r = compose(gen_random_map(d.dst, E, rng), d)  # kills ker d
        for variation in (None, rng):
            h = extend_along_mono(d, r, variation)
            assert h.matrix @ d.matrix == r.matrix
        stray = gen_random_map(d.src, E, rng)
        if (stray.matrix @ kernel_basis(d.matrix)).is_zero():
            continue
        stray_seen += 1
        with pytest.raises(ConstructionFailure):
            extend_along_mono(d, stray)
    assert stray_seen


def test_extension_into_the_zero_module(alg2, k2):
    mono = embed_into_injective(k2)
    g = zero_map(k2, zero_module(alg2))
    h = extend_along_mono(mono, g)
    assert h.dst.dim == 0 and h.matrix.ncols == 2


def test_module_map_constructor_rejects_non_intertwiners(alg2, k2, lam2):
    with pytest.raises(ValueError):
        ModuleMap(lam2, k2, RationalMatrix([[rat(0), rat(1)]], 2))


def test_nilpotency_is_enforced(alg2):
    with pytest.raises(ValueError):
        LambdaModule(alg2, RationalMatrix([[rat(0), rat(1)], [rat(1), rat(0)]], 2))
    # The same operator is welcome at a deeper truncation when nilpotent.
    LambdaModule(TruncatedAlgebra(3), RationalMatrix(
        [[rat(0), rat(0)], [rat(1), rat(0)]], 2
    ))
