"""Module category: hom spaces vs a dense oracle, injectives, functor laws."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dimshift import linalg, modules
from dimshift.linalg import (
    Rat,
    RationalMatrix,
    Subspace,
    VerificationFailure,
    inverse,
    kernel_basis,
    rank,
    rref,
)
from dimshift.modules import (
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
    identity_map,
    image_factorization,
    is_injective,
    kernel_module,
    simple_module,
    _extract_chains,
    _shift_blocks,
)
from dimshift.harness import GeneratorConfig, gen_random_map, gen_random_module

from fraction_oracle import block_sizes, frac_rows, gauss_rank, intertwiner_space_dim, socle_dim


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
        [[Rat(0), Rat(0)], [Rat(1), Rat(0)], [Rat(0), Rat(1)]], 2
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
        [[Rat(0)]], 1
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
    with pytest.raises(VerificationFailure, match="not exact at the middle object"):
        SesModules(identity_map(k2), identity_map(k2))


def test_ses_constructor_rejects_a_zero_composite_of_the_wrong_size(alg2, k2):
    # k -> k^3 -> k is injective, then surjective, and the composite is
    # zero; but 1 + 1 != 3, so the middle is not exact.
    k3 = LambdaModule(alg2, RationalMatrix.zeros(3, 3))
    first = ModuleMap(k2, k3, RationalMatrix([[1], [0], [0]], 1))
    last = ModuleMap(k3, k2, RationalMatrix([[0, 0, 1]], 3))
    assert first.is_mono() and last.is_epi() and compose(last, first).is_zero()
    with pytest.raises(VerificationFailure, match="not exact at the middle object"):
        SesModules(first, last)


# -- oracle cross-checks -----------------------------------------------------

def test_hom_dimension_against_dense_oracle():
    rng = random.Random(21)
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=5)
        for _ in range(25):
            A = gen_random_module(cfg, rng)
            B = gen_random_module(cfg, rng)
            basis = hom_basis(A, B)
            expected = intertwiner_space_dim(A, B)
            assert basis.dim == expected
            flats = [
                [x for row in frac_rows(basis.element(i)) for x in row]
                for i in range(basis.dim)
            ]
            assert gauss_rank(flats) == expected


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
                Rat(1) if j == i else Rat(0) for j in range(basis.dim)
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


@st.composite
def block_shifts(draw):
    """m in 2..5 and weakly decreasing block sizes of total 1..12."""
    m = draw(st.integers(2, 5))
    sizes = []
    for j in sorted(draw(st.lists(st.integers(1, m), min_size=1, max_size=12)), reverse=True):
        if sum(sizes) + j <= 12:
            sizes.append(j)
    return m, tuple(sizes)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(block_shifts())
def test_a_block_shift_is_read_off_as_the_extraction_finds_it(shape):
    m, sizes = shape
    Mod = LambdaModule(TruncatedAlgebra(m), _shift_blocks(sizes, sum(sizes)))
    cf, extracted = canonical_form(Mod), _extract_chains(Mod)
    assert cf.shifted and not extracted.shifted
    assert cf.block_sizes == extracted.block_sizes == sizes
    assert cf.offsets == extracted.offsets
    assert cf.P == extracted.P == RationalMatrix.identity(Mod.dim)
    assert cf.P_inv == extracted.P_inv


def conjugated(M):
    """M's operator seen in another basis, so it is not the block shift."""
    Q = RationalMatrix.identity(M.dim) + RationalMatrix.identity(M.dim + 1).take(
        range(1, M.dim + 1), range(M.dim)
    )  # ones on and just above the diagonal
    return LambdaModule(M.algebra, inverse(Q) @ M.X @ Q)


def test_other_operators_take_the_general_path(monkeypatch, alg2):
    others = [
        LambdaModule(alg2, _shift_blocks((1, 2), 3)),  # k + free: sizes increase
        LambdaModule(alg2, _shift_blocks((2, 1), 3) * Rat(1, 2)),
        conjugated(free_module(alg2, 2)),
    ]
    extracted = []

    def spy(M):
        extracted.append(M)
        return _extract_chains(M)

    canonical_form.cache_clear()
    monkeypatch.setattr(modules, "_extract_chains", spy)
    for Mod in others:
        cf = canonical_form(Mod)
        assert not cf.shifted and cf.P != RationalMatrix.identity(Mod.dim)
        assert cf.P_inv @ (Mod.X @ cf.P) == _shift_blocks(cf.block_sizes, Mod.dim)
    assert extracted == others


def test_a_free_module_gets_its_canonical_form_with_no_elimination(monkeypatch, alg3):
    free = [free_module(alg3, 3), direct_sum(free_module(alg3, 1), free_module(alg3, 2)).module]

    def forbidden(*args):
        raise AssertionError("a free module was eliminated")

    canonical_form.cache_clear()
    monkeypatch.setattr(linalg, "_rref", forbidden)
    monkeypatch.setattr(modules, "inverse", forbidden)
    for Mod in free:
        cf = canonical_form(Mod)
        assert cf.shifted and cf.block_sizes == (3, 3, 3)
        assert cf.P == cf.P_inv == RationalMatrix.identity(9)


def drop_the_first_pivot(A):
    R, pivots = rref(A)
    return R, pivots[1:]


def find_no_pivots(A):
    return rref(A)[0], ()


def singular(P):
    raise ValueError("matrix is singular")


def doubled_inverse(P):
    return inverse(P) * 2


@pytest.mark.parametrize("name, planted, message", [
    # At height 1 the first pivot is the first carried chain vector.
    ("rref", drop_the_first_pivot, "carried chain vector is dependent"),
    ("rref", find_no_pivots, "chain lengths do not add up to the dimension"),
    ("inverse", singular, "chain vectors are not a basis"),
    ("inverse", doubled_inverse, "conjugation does not reach the block shift form"),
])
def test_each_check_of_the_chain_extraction_fires(monkeypatch, alg2, name, planted, message):
    Mod = conjugated(free_module(alg2, 1))
    canonical_form.cache_clear()
    monkeypatch.setattr(modules, name, planted)
    with pytest.raises(VerificationFailure, match=message):
        canonical_form(Mod)


@pytest.mark.parametrize("sizes", [(), (1,), (1, 1, 1), (2, 2), (3, 1, 2)])
def test_shift_blocks_shifts_within_each_block(sizes):
    total = sum(sizes)
    expected = [[0] * total for _ in range(total)]
    off = 0
    for j in sizes:
        for t in range(j - 1):
            expected[off + t + 1][off + t] = 1
        off += j
    X = _shift_blocks(sizes, total)
    assert (X.nrows, X.ncols) == (total, total)
    assert [list(row) for row in X.rows] == expected
    algebra = TruncatedAlgebra(max((2, *sizes)))
    assert block_sizes(LambdaModule(algebra, X)) == sorted(sizes)


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


# compose builds the product with no second check: each factor was
# checked when it was made.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3))
def test_compose_equals_the_checked_product(seed, m):
    rng = random.Random(seed)
    cfg = GeneratorConfig(seed=0, m=m, max_dim=5)
    A, B, C = (gen_random_module(cfg, rng) for _ in range(3))
    f = gen_random_map(A, B, rng)
    g = gen_random_map(B, C, rng)
    assert compose(g, f) == ModuleMap(f.src, g.dst, g.matrix @ f.matrix)


def test_compose_checks_its_endpoints(k2, lam2):
    with pytest.raises(ValueError, match="maps do not compose"):
        compose(identity_map(k2), identity_map(lam2))


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
        with pytest.raises(VerificationFailure, match="extension system is inconsistent"):
            extend_along_mono(d, stray)
    assert stray_seen


def test_extension_into_the_zero_module(alg2, k2, zero2, zero_map):
    mono = embed_into_injective(k2)
    g = zero_map(k2, zero2)
    h = extend_along_mono(mono, g)
    assert h.dst.dim == 0 and h.matrix.ncols == 2


@pytest.mark.parametrize("variation", [None, random.Random(0)], ids=["canonical", "rng"])
def test_extension_into_a_module_that_is_not_free_is_refused(alg2, k2, lam2, zero_map, variation):
    # Free = every block of the target's canonical form has size m, read
    # off a block shift or extracted from any other operator.
    not_free = [
        k2,
        direct_sum(lam2, k2).module,
        LambdaModule(alg2, _shift_blocks((1, 2), 3)),
        conjugated(direct_sum(lam2, k2).module),
    ]
    for target in not_free:
        with pytest.raises(VerificationFailure, match="extension target is not injective"):
            extend_along_mono(identity_map(k2), zero_map(k2, target), variation)
    free = conjugated(free_module(alg2, 2))
    g = gen_random_map(k2, free, random.Random(1))
    assert extend_along_mono(embed_into_injective(k2), g, variation).dst == free


def test_extension_along_the_zero_map_is_inconsistent(alg2, k2, zero_map):
    # g is nonzero on all of k, and the zero map kills all of k.
    g = embed_into_injective(k2)
    with pytest.raises(VerificationFailure, match="functional extension system is inconsistent"):
        extend_along_mono(zero_map(k2, k2), g)


@pytest.mark.parametrize("call, message", [
    (1, "image is not stable under the operator"),
    (2, "map escapes its own image basis"),
])
def test_image_factorization_checks_both_coordinate_reads(fail_on_call, alg3, call, message):
    f = x_multiplication(free_module(alg3, 1))
    image_factorization.cache_clear()
    fail_on_call(Subspace, "express_columns", call)
    with pytest.raises(VerificationFailure, match=message):
        image_factorization(f)
    image_factorization.cache_clear()


def test_module_map_constructor_rejects_non_intertwiners(alg2, k2, lam2):
    with pytest.raises(VerificationFailure, match="does not intertwine"):
        ModuleMap(lam2, k2, RationalMatrix([[Rat(0), Rat(1)]], 2))


def test_nilpotency_is_enforced(alg2):
    with pytest.raises(VerificationFailure, match="not nilpotent"):
        LambdaModule(alg2, RationalMatrix([[Rat(0), Rat(1)], [Rat(1), Rat(0)]], 2))
    # The same operator is welcome at a deeper truncation when nilpotent.
    LambdaModule(TruncatedAlgebra(3), RationalMatrix(
        [[Rat(0), Rat(0)], [Rat(1), Rat(0)]], 2
    ))
