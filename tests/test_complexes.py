"""Complexes: cohomology presentations, homotopies, the snake chase."""

import random

import pytest

from dimshift import complexes
from dimshift.linalg import Rat, RationalMatrix, VerificationFailure, rank, solve_matrix
from dimshift.modules import FunctorSpec, ModuleMap, apply_F_map, identity_map
from dimshift.complexes import (
    ChainMap,
    ModuleComplex,
    NotHomotopic,
    SesOfComplexes,
    VectorComplex,
    apply_F_chain_map,
    apply_F_complex,
    apply_F_ses,
    cohomology,
    find_homotopy,
    homotopy_defect,
    induced_on_cohomology,
    snake_delta_matrix,
)
from dimshift.resolutions import horseshoe, lift_resolution_map
from dimshift.harness import (
    GeneratorConfig,
    gen_random_functor,
    gen_random_module,
    gen_random_ses,
)
from dimshift.resolutions import ResolutionRegistry

from conftest import identity_chain_map


def M(rows, ncols=None):
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return RationalMatrix([[Rat(x) for x in r] for r in rows], ncols)


def zeros(r, c):
    return RationalMatrix.zeros(r, c)


# -- construction and validation ---------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda lam2: VectorComplex((1, 1, 1), (M([[1]]), M([[1]]))),
        lambda lam2: ModuleComplex([lam2] * 3, [identity_map(lam2)] * 2),
    ],
    ids=["vector", "module"],
)
def test_complex_rejects_nonvanishing_d_squared(build, lam2):
    with pytest.raises(VerificationFailure, match="d o d is nonzero in degree 0"):
        build(lam2)


def test_module_complex_rejects_wrong_endpoints(k2, lam2):
    with pytest.raises(ValueError, match="differential 0 has the wrong endpoints"):
        ModuleComplex([k2, lam2], [identity_map(lam2)])


def test_module_complex_never_equals_a_vector_complex(k2, registry):
    C = registry.resolution(k2, 3).complex
    V = VectorComplex(C.dims, C.differentials)
    assert C != V and V != C
    assert C == ModuleComplex(C.objects, C.maps)


def test_slice_is_the_hand_built_complex(k2, registry, monkeypatch):
    C = registry.resolution(k2, 4).complex
    V = VectorComplex(C.dims, C.differentials)

    def product(*args):
        raise AssertionError("a slice of a checked complex multiplied matrices")

    monkeypatch.setattr(RationalMatrix, "__matmul__", product)
    middle, vector_middle, point, head = C.slice(1, 3), V.slice(1, 3), C.slice(2, 2), C.truncate(2)
    monkeypatch.undo()
    assert middle == ModuleComplex(C.objects[1:4], C.maps[1:3])
    assert vector_middle == VectorComplex(C.dims[1:4], C.differentials[1:3])
    assert point.horizon == 0
    assert head == C.slice(0, 2)
    for lo, hi in ((-1, 2), (3, 2), (2, 5)):
        with pytest.raises(ValueError, match="slice out of range"):
            C.slice(lo, hi)


def test_complex_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        VectorComplex((1, 2), (M([[1]]),))


def test_chain_map_rejects_noncommuting_squares():
    C = VectorComplex((1, 1), (M([[1]]),))
    D = VectorComplex((1, 1), (M([[0]]),))
    with pytest.raises(VerificationFailure, match="square at degree 0 does not commute"):
        ChainMap(C, D, (M([[1]]), M([[1]])))


def test_module_chain_map_keeps_its_maps_and_builds_none(k2, registry, monkeypatch):
    R = registry.resolution(k2, 3)
    lift = lift_resolution_map(identity_map(k2), R, R)
    F = FunctorSpec(k2.algebra, k2)
    apply_F_complex(F, R.complex)
    built = []
    init = ModuleMap.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ModuleMap, "__init__", counted)
    f = ChainMap(R.complex, R.complex, lift.maps)
    Ff = apply_F_chain_map(F, f)
    monkeypatch.undo()
    assert built == []
    assert f.is_module_level() and not Ff.is_module_level()
    assert all(g is h for g, h in zip(f.maps, lift.maps))
    assert f.components == tuple(g.matrix for g in lift.maps)
    assert Ff.components == tuple(apply_F_map(F, g) for g in lift.maps)


def test_module_chain_map_rejects_wrong_endpoints(k2, registry):
    R = registry.resolution(k2, 2)
    maps = list(identity_chain_map(R.complex).maps)
    maps[1] = identity_map(k2)
    with pytest.raises(ValueError, match="component 1 has the wrong endpoints"):
        ChainMap(R.complex, R.complex, maps)


# -- cohomology --------------------------------------------------------------

def test_cohomology_of_zero_differentials_is_everything():
    C = VectorComplex((2, 3, 1), (zeros(3, 2), zeros(1, 3)))
    assert [cohomology(C, n).dim for n in range(3)] == [2, 3, 1]


def test_cohomology_of_an_exact_complex_vanishes():
    C = VectorComplex((1, 2, 1), (M([[1], [0]]), M([[0, 1]])))
    assert [cohomology(C, n).dim for n in range(3)] == [0, 0, 0]


def test_functor_image_of_the_standard_resolution(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    R = registry.resolution(k2, 4)
    FC = apply_F_complex(F, R.complex)
    assert FC.dims == (1, 1, 1, 1, 1)
    assert all(d.is_zero() for d in FC.differentials)
    assert all(cohomology(FC, n).dim == 1 for n in range(4))


def test_cohomology_is_cached_by_complex_data():
    C1 = VectorComplex((2, 3, 1), (zeros(3, 2), zeros(1, 3)))
    C2 = VectorComplex((2, 3, 1), (zeros(3, 2), zeros(1, 3)))
    assert cohomology(C1, 1) is cohomology(C2, 1)


def test_presentations_align_under_truncation():
    rng = random.Random(41)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6)
    registry = ResolutionRegistry()
    F = gen_random_functor(cfg, rng)
    Mod = gen_random_module(cfg, rng)
    FC = apply_F_complex(F, registry.resolution(Mod, 4).complex)
    for n in range(3):
        full = cohomology(FC, n)
        cut = cohomology(FC.truncate(n + 1), n)
        assert full.same_presentation(cut)
        assert full.degree == cut.degree == n


# The memo is keyed on the degree, its dimension and the two
# differentials that meet there, so a truncation presents each degree
# below its horizon as the whole complex does: equal when computed
# apart (cold), and one memo entry when computed together (warm).
def test_truncations_present_their_shared_degrees_as_the_complex_does():
    rng = random.Random(43)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=6)
    F = gen_random_functor(cfg, rng)
    Mod = gen_random_module(cfg, rng)
    FC = apply_F_complex(F, ResolutionRegistry().resolution(Mod, 5).complex)
    for t in range(FC.horizon + 1):
        cut = FC.truncate(t)
        for n in range(t):
            complexes._cohomology.cache_clear()
            cold = cohomology(cut, n)
            complexes._cohomology.cache_clear()
            assert cohomology(FC, n) == cold
            assert cohomology(cut, n) is cohomology(FC, n)


def test_boundaries_that_are_not_cocycles_are_rejected():
    # An unchecked complex with d o d != 0: the same key raises again,
    # since a raise is never memoized.
    one = RationalMatrix.identity(1)
    C = VectorComplex._make(((1, 1, 1), (one, one)))
    for _ in range(2):
        with pytest.raises(VerificationFailure, match="boundaries are not cocycles"):
            cohomology(C, 1)
    assert cohomology(C, 2).dim == 0


def test_representatives_are_cocycles_and_project_to_the_identity():
    rng = random.Random(42)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=6)
    registry = ResolutionRegistry()
    for _ in range(10):
        F = gen_random_functor(cfg, rng)
        Mod = gen_random_module(cfg, rng)
        FC = apply_F_complex(F, registry.resolution(Mod, 3).complex)
        for n in range(3):
            H = cohomology(FC, n)
            reps = H.representatives()
            assert (FC.differentials[n] @ reps).is_zero()
            assert H.project_columns(reps) == RationalMatrix.identity(H.dim)


def test_induced_map_on_cohomology_is_functorial():
    C = VectorComplex((2, 2), (zeros(2, 2),))
    f = ChainMap(C, C, (M([[1, 1], [0, 1]]), M([[2, 0], [1, 1]])))
    g = ChainMap(C, C, (M([[0, 1], [1, 0]]), M([[1, 2], [0, 1]])))
    n = 1
    assert induced_on_cohomology(identity_chain_map(C), n) == RationalMatrix.identity(2)
    gf = ChainMap(C, C, [a @ b for a, b in zip(g.components, f.components)])
    assert induced_on_cohomology(gf, n) == (
        induced_on_cohomology(g, n) @ induced_on_cohomology(f, n)
    )


# -- homotopy ----------------------------------------------------------------

def test_equal_maps_are_homotopic_via_zero():
    C = VectorComplex((1, 2, 1), (M([[1], [0]]), M([[0, 1]])))
    f = identity_chain_map(C)
    h = find_homotopy(f, f)
    assert h is not NotHomotopic
    assert all(comp.is_zero() for comp in h)


def test_homotopic_maps_induce_equal_maps_on_cohomology():
    # Null-homotopic endomorphism of an exact complex: id itself.
    C = VectorComplex((1, 2, 1), (M([[1], [0]]), M([[0, 1]])))
    f = identity_chain_map(C)
    g = ChainMap(C, C, (zeros(1, 1), zeros(2, 2), zeros(1, 1)))
    h = find_homotopy(f, g)
    assert h is not NotHomotopic
    for p in range(C.horizon):
        assert homotopy_defect(f, g, h, p).is_zero()
    for n in range(C.horizon):
        assert induced_on_cohomology(f, n) == induced_on_cohomology(g, n)


def test_maps_with_different_cohomology_are_not_homotopic():
    C = VectorComplex((1, 1), (zeros(1, 1),))
    f = identity_chain_map(C)
    g = ChainMap(C, C, (zeros(1, 1), zeros(1, 1)))
    assert find_homotopy(f, g) is NotHomotopic
    assert not find_homotopy(f, g)


# -- the snake chase ---------------------------------------------------------

def one_step_ses():
    sub = VectorComplex((0, 1), (zeros(1, 0),))
    mid = VectorComplex((1, 1), (M([[1]]),))
    quot = VectorComplex((1, 0), (zeros(0, 1),))
    i = ChainMap(sub, mid, (zeros(1, 0), M([[1]])))
    q = ChainMap(mid, quot, (M([[1]]), zeros(0, 1)))
    return SesOfComplexes(i, q)


def test_snake_on_the_one_step_sequence_is_the_identity():
    E = one_step_ses()
    assert snake_delta_matrix(E, 0) == M([[1]])


def test_snake_class_chase_matches_the_matrix():
    E = one_step_ses()
    rep = cohomology(E.quot, 0).representatives()
    # Lift through the epimorphism, apply d, pull back through the mono.
    lift = solve_matrix(E.mid_to_quot.components[0], rep)
    chased = solve_matrix(E.sub_to_mid.components[1], E.mid.differentials[0] @ lift)
    assert cohomology(E.sub, 1).project_columns(chased) == snake_delta_matrix(E, 0) == M([[1]])


@pytest.mark.parametrize("call, message", [
    (1, "cannot lift through the epimorphism"),
    (2, "cannot pull back through the monomorphism"),
])
def test_snake_checks_both_solves(fail_on_call, call, message):
    E = one_step_ses()
    fail_on_call(complexes, "solve_matrix", call)
    with pytest.raises(VerificationFailure, match=message):
        snake_delta_matrix(E, 0)


def split_complex_ses(C, D):
    dims = tuple(a + b for a, b in zip(C.dims, D.dims))
    diffs = []
    for p in range(len(dims) - 1):
        diffs.append(RationalMatrix.block([
            [C.differentials[p], zeros(C.dims[p + 1], D.dims[p])],
            [zeros(D.dims[p + 1], C.dims[p]), D.differentials[p]],
        ]))
    mid = VectorComplex(dims, diffs)
    includes = [
        RationalMatrix.vstack([RationalMatrix.identity(a), zeros(b, a)])
        for a, b in zip(C.dims, D.dims)
    ]
    projects = [
        RationalMatrix.hstack([zeros(b, a), RationalMatrix.identity(b)])
        for a, b in zip(C.dims, D.dims)
    ]
    return SesOfComplexes(ChainMap(C, mid, includes), ChainMap(mid, D, projects))


def test_snake_vanishes_on_split_sequences():
    C = VectorComplex((1, 1, 1), (zeros(1, 1), zeros(1, 1)))
    D = VectorComplex((2, 1, 2), (M([[1, 0]]), M([[0], [0]])))
    E = split_complex_ses(C, D)
    for i in range(2):
        assert snake_delta_matrix(E, i).is_zero()


def functor_image_ses(seed, m=2):
    rng = random.Random(seed)
    cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
    registry = ResolutionRegistry()
    F = gen_random_functor(cfg, rng)
    E = gen_random_ses(cfg, rng)
    RA = registry.resolution(E.sub, 3)
    RB = registry.resolution(E.quot, 3)
    return apply_F_ses(F, horseshoe(E, RA, RB, rng).ses), rng


def test_long_exact_sequence_exactness_at_the_chase_degrees():
    for seed in (43, 44, 45, 46):
        FS, rng = functor_image_ses(seed)
        for i in range(FS.sub.horizon - 1):
            delta = snake_delta_matrix(FS, i)
            h_mid_to_quot = induced_on_cohomology(FS.mid_to_quot, i)
            h_sub_next = induced_on_cohomology(FS.sub_to_mid, i + 1)
            # Exact at H^i(quot): the image of the middle is the kernel of delta.
            assert (delta @ h_mid_to_quot).is_zero()
            assert rank(h_mid_to_quot) == cohomology(FS.quot, i).dim - rank(delta)
            # Exact at H^(i+1)(sub): the image of delta is the next kernel.
            assert (h_sub_next @ delta).is_zero()
            assert rank(delta) == cohomology(FS.sub, i + 1).dim - rank(h_sub_next)


def test_snake_chase_is_independent_of_lift_choices():
    for seed in (47, 48, 49):
        FS, rng = functor_image_ses(seed, m=3)
        for i in range(FS.sub.horizon - 1):
            base = snake_delta_matrix(FS, i)
            assert snake_delta_matrix(FS, i, rng) == base
            assert snake_delta_matrix(FS, i, rng) == base


def test_snake_rejects_module_level_input(alg2, k2, registry):
    E = gen_random_ses(GeneratorConfig(seed=3, m=2), random.Random(50))
    hs = horseshoe(E, registry.resolution(E.sub, 2), registry.resolution(E.quot, 2))
    with pytest.raises(ValueError):
        snake_delta_matrix(hs.ses, 0)


def test_project_rejects_non_cocycles():
    C = VectorComplex((1, 1), (M([[1]]),))
    H = cohomology(C, 0)
    with pytest.raises(VerificationFailure, match="vector is not a cocycle"):
        H.project_columns(M([[1]]))
