"""Resolutions: the deterministic build, splitting, horseshoe, cylinder."""

import random

import pytest

from dimshift.linalg import RationalMatrix, rat
from dimshift.modules import (
    ConstructionFailure,
    FunctorSpec,
    compose,
    direct_sum,
    free_module,
    identity_map,
    simple_module,
    zero_map,
)
from dimshift.complexes import (
    ModuleComplex,
    NotHomotopic,
    apply_F_ses,
    find_homotopy,
    homotopy_defect,
    identity_chain_map,
)
from dimshift.resolutions import (
    Resolution,
    ResolutionRegistry,
    cylinder_resolution,
    horseshoe,
    injective_resolution,
    is_F_acyclic,
    lift_resolution_map,
    split_resolution,
    truncated_shift,
)
from dimshift.harness import (
    GeneratorConfig,
    gen_padded_resolution,
    gen_random_functor,
    gen_random_module,
    gen_random_ses,
)

from fraction_oracle import matrix_rank


# -- the deterministic resolution --------------------------------------------

def test_standard_resolution_of_the_simple_module(alg2, k2):
    R = injective_resolution(k2, 4)
    assert [J.dim for J in R.objects] == [2, 2, 2, 2, 2]
    assert R.is_degreewise_injective()
    # The augmentation lands in the socle of the degree-zero object.
    assert (R.objects[0].X @ R.augmentation.matrix).is_zero()
    assert not R.augmentation.matrix.is_zero()


def test_resolution_of_an_injective_module_stops_immediately(lam2):
    R = injective_resolution(lam2, 3)
    assert [J.dim for J in R.objects] == [2, 0, 0, 0]


def test_resolution_dimensions_are_additive_over_direct_sums(alg2, k2, lam2):
    ds = direct_sum(lam2, k2)
    R = injective_resolution(ds.module, 3)
    R1 = injective_resolution(lam2, 3)
    R2 = injective_resolution(k2, 3)
    for p in range(4):
        assert R.objects[p].dim == R1.objects[p].dim + R2.objects[p].dim


def test_resolution_exactness_confirmed_by_the_oracle():
    rng = random.Random(61)
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
        for _ in range(5):
            Mod = gen_random_module(cfg, rng)
            R = injective_resolution(Mod, 3)
            incoming = matrix_rank(R.augmentation.matrix)
            assert incoming == Mod.dim
            for p in range(R.horizon):
                d = R.complex.differentials[p].matrix
                assert R.objects[p].dim - matrix_rank(d) == incoming
                incoming = matrix_rank(d)


def test_resolution_constructor_rejects_inexact_complexes(alg2, k2, lam2):
    from dimshift.modules import embed_into_injective

    # 0 -> k -> free -> free with a zero differential: the augmentation
    # image is a proper subspace of the kernel, so degree 0 is inexact.
    stalled = ModuleComplex([lam2, lam2], [zero_map(lam2, lam2)])
    with pytest.raises(ConstructionFailure):
        Resolution(k2, embed_into_injective(k2), stalled)


def test_registry_returns_aligned_slices(k2):
    registry = ResolutionRegistry()
    short = registry.resolution(k2, 2)
    long = registry.resolution(k2, 5)
    again = registry.resolution(k2, 2)
    assert short.complex.differentials == long.complex.differentials[:2]
    assert again.complex == short.complex
    assert registry.resolution(k2, 5) is long


# -- splitting into cycle sequences ------------------------------------------

def test_splitting_of_the_standard_resolution(alg2, k2, registry):
    R = registry.resolution(k2, 4)
    S = split_resolution(R, 3)
    assert [Z.dim for Z in S.cycles] == [1, 1, 1, 1]
    for q in range(3):
        E = S.sequences[q]
        assert E.sub == S.cycles[q]
        assert E.quot == S.cycles[q + 1]
        assert compose(S.inclusions[q + 1], S.corestrictions[q]) == R.differential(q)


def test_splitting_of_an_immediately_stopping_resolution(lam2, registry):
    R = registry.resolution(lam2, 2)
    S = split_resolution(R, 2)
    assert S.cycles[1].dim == 0


def test_splitting_reconstructs_padded_resolutions():
    rng = random.Random(62)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6, max_padding=2)
    registry = ResolutionRegistry()
    for _ in range(5):
        Mod = gen_random_module(cfg, rng)
        J = gen_padded_resolution(Mod, 4, cfg, rng, registry)
        S = split_resolution(J, 3)
        for q in range(3):
            assert compose(S.inclusions[q + 1], S.corestrictions[q]) == J.differential(q)


def test_truncated_shift_at_zero_is_the_resolution_itself(k2, registry):
    R = registry.resolution(k2, 3)
    S = split_resolution(R, 2)
    assert truncated_shift(R, S, 0) is R


def test_truncated_shift_of_the_standard_resolution_is_periodic(k2, registry):
    R = registry.resolution(k2, 4)
    S = split_resolution(R, 2)
    K2 = truncated_shift(R, S, 2)
    assert K2.base.dim == 1
    assert [J.dim for J in K2.objects] == [2, 2, 2]
    assert K2.complex.differentials[0] == R.complex.differentials[2]


def test_truncated_shift_is_exact_on_padded_input():
    rng = random.Random(63)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=5, max_padding=2)
    registry = ResolutionRegistry()
    Mod = gen_random_module(cfg, rng)
    J = gen_padded_resolution(Mod, 4, cfg, rng, registry)
    S = split_resolution(J, 3)
    for i in range(1, 4):
        K = truncated_shift(J, S, i)  # the constructor re-checks exactness
        assert K.base == S.cycles[i]
        assert K.horizon == J.horizon - i


# -- horseshoe ---------------------------------------------------------------

def test_horseshoe_on_a_split_sequence_sums_the_resolutions(registry):
    rng = random.Random(64)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=5)
    A = gen_random_module(cfg, rng)
    B = gen_random_module(cfg, rng)
    ds = direct_sum(A, B)
    from dimshift.modules import SesModules

    E = SesModules(ds.include_left, ds.project_right)
    RA = registry.resolution(A, 3)
    RB = registry.resolution(B, 3)
    hs = horseshoe(E, RA, RB)
    for p in range(4):
        assert hs.resolution.objects[p].dim == RA.objects[p].dim + RB.objects[p].dim


def test_horseshoe_fills_the_standard_sequence(alg2, k2, registry):
    from dimshift.modules import SesModules, cokernel_module, embed_into_injective

    iota = embed_into_injective(k2)
    E = SesModules(iota, cokernel_module(iota).projection)
    RA = registry.resolution(E.sub, 3)
    RB = registry.resolution(E.quot, 3)
    hs = horseshoe(E, RA, RB)
    assert hs.resolution.base == E.mid
    assert [J.dim for J in hs.resolution.objects] == [4, 4, 4, 4]
    assert hs.resolution.is_degreewise_injective()


def test_horseshoe_augmentation_squares_commute():
    rng = random.Random(65)
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
        registry = ResolutionRegistry()
        for _ in range(5):
            E = gen_random_ses(cfg, rng)
            RA = registry.resolution(E.sub, 2)
            RB = registry.resolution(E.quot, 2)
            hs = horseshoe(E, RA, RB, rng)
            aug = hs.resolution.augmentation.matrix
            include = hs.ses.sub_to_mid.components[0]
            project = hs.ses.mid_to_quot.components[0]
            assert aug @ E.a_to_c.matrix == include @ RA.augmentation.matrix
            assert project @ aug == RB.augmentation.matrix @ E.c_to_b.matrix


def test_functor_keeps_horseshoe_sequences_exact():
    rng = random.Random(66)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6)
    registry = ResolutionRegistry()
    for _ in range(5):
        F = gen_random_functor(cfg, rng)
        E = gen_random_ses(cfg, rng)
        hs = horseshoe(
            E, registry.resolution(E.sub, 2), registry.resolution(E.quot, 2), rng
        )
        apply_F_ses(F, hs.ses)  # exactness is re-validated on construction


# -- comparison lifts --------------------------------------------------------

def test_self_lift_of_the_identity_is_homotopic_to_the_identity(k2, registry):
    R = registry.resolution(k2, 3)
    f = lift_resolution_map(identity_map(k2), R, R)
    assert f.components[0] @ R.augmentation.matrix == R.augmentation.matrix
    g = identity_chain_map(R.complex)
    h = find_homotopy(f, g)
    assert h is not NotHomotopic
    for p in range(R.horizon):
        assert homotopy_defect(f, g, h, p).is_zero()


def test_two_random_lifts_are_homotopic():
    rng = random.Random(67)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=5, max_padding=2)
    registry = ResolutionRegistry()
    for _ in range(5):
        Mod = gen_random_module(cfg, rng)
        J = gen_padded_resolution(Mod, 3, cfg, rng, registry)
        I = registry.resolution(Mod, 3)
        f = lift_resolution_map(identity_map(Mod), J, I, rng)
        g = lift_resolution_map(identity_map(Mod), J, I, rng)
        assert f.components[0] @ J.augmentation.matrix == I.augmentation.matrix
        h = find_homotopy(f, g)
        assert h is not NotHomotopic
        for p in range(f.horizon):
            assert homotopy_defect(f, g, h, p).is_zero()


# -- the two-term cylinder ---------------------------------------------------

def test_cylinder_structure_over_the_standard_resolution(k2, registry):
    R = registry.resolution(k2, 4)
    S = split_resolution(R, 3)
    cyl = cylinder_resolution(R, S, 0)
    L = cyl.resolution
    assert L.base == R.objects[0]
    assert [J.dim for J in L.objects] == [4, 4, 4, 4]
    # Augmentation v |-> (v, d v), read off blockwise.
    top = RationalMatrix([list(L.augmentation.matrix.row(i)) for i in range(2)], 2)
    bottom = RationalMatrix([list(L.augmentation.matrix.row(i)) for i in range(2, 4)], 2)
    assert top == RationalMatrix.identity(2)
    assert bottom == R.differential(0).matrix
    # First differential: top-right block is minus the identity.
    d0 = L.complex.differentials[0].matrix
    for i in range(2):
        for j in range(2):
            assert d0.entry(i, 2 + j) == (rat(-1) if i == j else rat(0))


def test_cylinder_sides_are_the_shifted_tails(k2, registry):
    R = registry.resolution(k2, 4)
    S = split_resolution(R, 3)
    for i in (0, 1, 2):
        cyl = cylinder_resolution(R, S, i)
        head = cyl.ses.sub.objects
        tail = cyl.ses.quot.objects
        assert head == R.objects[i : i + len(head)]
        assert tail == R.objects[i + 1 : i + 1 + len(tail)]


def test_cylinder_is_exact_on_padded_resolutions():
    rng = random.Random(68)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=5, max_padding=2)
    registry = ResolutionRegistry()
    Mod = gen_random_module(cfg, rng)
    J = gen_padded_resolution(Mod, 5, cfg, rng, registry)
    S = split_resolution(J, 4)
    for i in (0, 1, 2):
        cylinder_resolution(J, S, i)  # Resolution re-validates everything


# -- acyclicity --------------------------------------------------------------

def test_injective_modules_are_acyclic(lam2, registry):
    F = FunctorSpec(lam2.algebra, simple_module(lam2.algebra))
    assert is_F_acyclic(F, lam2, 3, registry)


def test_the_simple_module_is_not_acyclic(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    assert not is_F_acyclic(F, k2, 3, registry)


def test_free_source_functors_see_everything_as_acyclic(registry):
    rng = random.Random(69)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=6)
    free = free_module(cfg.algebra, 1)
    F = FunctorSpec(cfg.algebra, free)
    for _ in range(5):
        Mod = gen_random_module(cfg, rng)
        assert is_F_acyclic(F, Mod, 3, registry)
