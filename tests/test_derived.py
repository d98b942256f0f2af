"""Derived functors, comparison and shift isomorphisms, sign checks."""

import random
from collections import namedtuple

import pytest

from dimshift import derived, modules, resolutions
from dimshift.linalg import (
    Rat,
    RationalMatrix,
    Subspace,
    VerificationFailure,
    kernel_basis,
    quotient,
    rank,
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
    run_connecting_suite,
    run_demo,
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


def test_connecting_ranks_match_the_closed_form():
    # Exactness of 0 -> F(A) -> F(B) -> F(C) -> R^1 F(A) -> ... gives
    # rank delta^N = sum over p <= N of (-1)^(N-p) (dim R^p F(C) -
    # dim R^p F(B) + dim R^p F(A)), every dimension from the oracle.
    rng = random.Random(78)
    nonzero = 0
    for m in (2, 3):
        cfg = GeneratorConfig(seed=0, m=m, max_dim=6)
        registry = ResolutionRegistry()
        for _ in range(6):
            F = gen_random_functor(cfg, rng)
            E = gen_random_ses(cfg, rng)
            expected = 0
            for N in range(3):
                c, b, a = (ext_dim(F.source, X, m, N) for X in (E.quot, E.mid, E.sub))
                expected = c - b + a - expected
                shape = (ext_dim(F.source, E.sub, m, N + 1), c)
                for variation in (None, rng):
                    delta = derived_connecting(F, E, N, registry, variation)
                    assert (delta.nrows, delta.ncols) == shape
                    assert rank(delta) == expected
                nonzero += expected > 0
    assert nonzero == 13  # of 36 (case, N) pairs


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


def test_comparison_rejects_non_acyclic_resolutions(alg2, k2, zero2, zero_map):
    from dimshift.complexes import ModuleComplex
    from dimshift.resolutions import Resolution

    registry = ResolutionRegistry()
    F = FunctorSpec(alg2, k2)
    # A perfectly exact resolution whose objects fail the acyclicity test.
    J = Resolution(
        k2,
        identity_map(k2),
        ModuleComplex([k2, zero2], [zero_map(k2, zero2)]),
    )
    with pytest.raises(VerificationFailure, match="degree 0 is not acyclic"):
        comparison_iso(F, k2, J, 0, registry)
    # 0 -> k -> k -> 0 resolves 0; k is checked once, and the failure
    # names the lowest degree that holds it.
    Z = zero2
    J = Resolution(
        Z,
        identity_map(Z),
        ModuleComplex([Z, k2, k2, Z], [zero_map(Z, k2), identity_map(k2), zero_map(k2, Z)]),
    )
    with pytest.raises(VerificationFailure, match="degree 1 is not acyclic"):
        comparison_iso(F, Z, J, 1, registry)


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


def count_horseshoes(monkeypatch) -> list:
    """One entry per horseshoe a connecting chase fills from now on: the
    horizon of the prefix it continues, 0 for a fill from degree zero.
    Fresh fillings are made in derived.chase_connecting, canonical ones
    in the registry."""
    calls = []

    def counted(*args, prefix=None, **kwargs):
        calls.append(prefix.resolution.horizon if prefix is not None else 0)
        return horseshoe(*args, prefix=prefix, **kwargs)

    monkeypatch.setattr(derived, "horseshoe", counted)
    monkeypatch.setattr(resolutions, "horseshoe", counted)
    return calls


def count_chases(monkeypatch) -> list:
    chases = []
    chase = derived.snake_delta_matrix

    def counted(*args):
        chases.append(None)
        return chase(*args)

    monkeypatch.setattr(derived, "snake_delta_matrix", counted)
    return chases


def test_the_registry_keeps_resolutions_horseshoes_F_images_and_connecting_maps():
    assert set(vars(ResolutionRegistry())) == {"_store", "_horseshoes", "_images", "_connecting"}


def test_only_canonical_connecting_maps_are_kept(monkeypatch, alg2, k2, registry):
    calls = count_horseshoes(monkeypatch)
    F = FunctorSpec(alg2, k2)
    E = standard_ses(k2)
    chased = derived_connecting(F, E, 1, registry, random.Random(0))
    assert registry._connecting == {} and registry._horseshoes == {}
    assert calls == [0]
    canonical = derived_connecting(F, E, 1, registry)
    assert derived_connecting(F, E, 1, registry) == canonical == chased
    assert len(registry._connecting) == 1 and calls == [0, 0]
    # A first request keeps only the sequence's key.
    assert registry._horseshoes == {E: None} and registry._images == {}
    assert derived_connecting(F, E, 1, registry, random.Random(1)) == canonical
    derived_connecting(F, E, 2, registry, random.Random(2))
    assert calls == [0, 0, 0, 0] and len(registry._connecting) == 1
    # The second fills afresh and keeps the horseshoe and its F-image,
    # and the canonical map one degree up grows both by one.
    derived_connecting(F, E, 2, registry)
    assert calls == [0, 0, 0, 0, 0] and len(registry._connecting) == 2
    assert registry._horseshoes[E].resolution.horizon == registry._images[F, E].horizon == 4
    derived_connecting(F, E, 3, registry)
    assert calls == [0, 0, 0, 0, 0, 4] and len(registry._connecting) == 3
    assert list(registry._horseshoes) == [E] and list(registry._images) == [(F, E)]
    assert registry._horseshoes[E].resolution.horizon == registry._images[F, E].horizon == 5


def test_fresh_fillings_leave_the_extension_memo_and_the_registry_alone(registry):
    # The connecting suite's independence check: two fresh fillings of
    # each random sequence, and comparison lifts with the same rng.
    rng = random.Random(41)
    cfg = GeneratorConfig(seed=41, m=2, max_dim=8)
    for _ in range(3):
        F = gen_random_functor(cfg, rng)
        E = gen_random_ses(cfg, rng)
        before = modules._canonical_extension.cache_info()
        derived_connecting(F, E, 1, registry, rng)
        derived_connecting(F, E, 1, registry, rng)
        comparison_iso(F, E.quot, registry.resolution(E.quot, 3), 1, registry, rng)
        assert modules._canonical_extension.cache_info() == before
        assert registry._connecting == {} and registry._horseshoes == {}


def test_the_lemma_suite_still_chases_every_random_filling(monkeypatch):
    # Per trial: the square's chase, its canonical side, and the two
    # fillings of the independence check.  Every sequence is new, so
    # each is filled from degree zero.  The flags are the lemmas
    # workload's.
    calls = count_horseshoes(monkeypatch)
    run_connecting_suite(GeneratorConfig(seed=41, m=2, max_dim=8, horizon=4, trials=4))
    assert calls == [0] * 16


def test_the_deep_demo_chases_each_canonical_connecting_map_once(monkeypatch):
    # The shift to degree n takes n connecting maps, 45 through n = 9;
    # the cycles of the resolution of k alternate, so 17 of them differ,
    # over two sequences.  Each is chased once: the first four on
    # horseshoes filled to horizons 2 and 3 (a first request keeps only
    # the key), the other 13 on the kept horseshoe of their sequence,
    # grown by one degree.
    horseshoes = count_horseshoes(monkeypatch)
    chases = count_chases(monkeypatch)
    run_demo(3, 9)
    assert len(chases) == 17
    assert horseshoes == [0] * 4 + [h for h in range(3, 9) for _ in range(2)] + [9]


def test_the_deep_demo_solves_six_extension_problems(monkeypatch):
    # The resolution of k has period two, so every horseshoe theta and
    # every comparison lift component is one of six rng-free extension
    # problems.  A grown horseshoe solves only its new theta, so the 23
    # thetas and 4 augmentations make 27 of the 90 calls (a second
    # request fills its horseshoe again); the other 63 are the comparison
    # lifts', and 84 calls are memo hits.
    modules._canonical_extension.cache_clear()
    chases = count_chases(monkeypatch)
    run_demo(3, 9)
    info = modules._canonical_extension.cache_info()
    assert (info.misses, info.hits) == (6, 84)
    assert len(chases) == 17


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
    coeffs = RationalMatrix.column_vector([Rat(rng.randint(-2, 2)) for _ in range(K.ncols)])
    b = ModuleMap(E.mid, E.mid, basis.from_coordinates((K @ coeffs).column(0)))
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


def test_degree_zero_connecting_detects_non_acyclic_middles(alg2, k2, zero2, zero_map, registry):
    F = FunctorSpec(alg2, k2)
    # 0 -> k -> k -> 0 -> 0: exact, but the middle is not acyclic for F.
    E = SesModules(identity_map(k2), zero_map(k2, zero2))
    with pytest.raises(VerificationFailure, match="barred connecting map is not surjective"):
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
        assert d == RationalMatrix([[Rat(sign_factor(n))]], 1)


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
        assert report.verdict, (report.shifted, report.comparison)
        assert report.shifted == RationalMatrix(
            [[Rat(report.sign) * x for x in row] for row in report.comparison.rows],
            report.comparison.ncols,
        )


def test_sign_identity_is_vacuous_on_injective_bases(alg2, k2, lam2, registry):
    F = FunctorSpec(alg2, k2)
    J = registry.resolution(lam2, 3)
    report = verify_sign_identity(F, lam2, J, 2, registry)
    assert report.verdict and report.dim == 0


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
        report = verify_shift_step_sign(F, J, n, p)
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
            report = verify_shift_step_sign(F, J, n, p, rng=rng)
            assert report.verdict
            assert report.expected_sign == (-1) ** (p + 1)


def test_step_arguments_are_checked(alg2, k2, registry):
    F = FunctorSpec(alg2, k2)
    J = registry.resolution(k2, 4)
    for p in (-1, 2):
        with pytest.raises(ValueError, match="step index out of range"):
            verify_shift_step_sign(F, J, 2, p)
    with pytest.raises(ValueError, match="resolution horizon too short for honest step checks"):
        verify_shift_step_sign(F, J.truncate(3), 2, 0)


# The two sides the step reads off the F-image of its cylinder.
Sides = namedtuple("Sides", "sub quot")


def padded_step():
    """F, a padded resolution J of horizon 4, and the registry
    resolution R of the same module, which J's padding changes."""
    cfg = GeneratorConfig(seed=0, m=2, max_dim=6, max_padding=2)
    registry = ResolutionRegistry()
    rng = random.Random(80)
    F = gen_random_functor(cfg, rng)
    Mod = gen_random_module(cfg, rng)
    J = gen_padded_resolution(Mod, 4, cfg, rng, registry)
    R = registry.resolution(Mod, 4)
    assert [o.dim for o in J.objects] != [o.dim for o in R.objects]
    return F, J, R


def test_a_cylinder_over_another_resolution_drifts_the_target(monkeypatch):
    F, J, R = padded_step()
    for p in (0, 1):
        assert verify_shift_step_sign(F, J, 2, p).verdict
    cylinder = resolutions.cylinder_resolution
    monkeypatch.setattr(derived, "cylinder_resolution", lambda _, i: cylinder(R, i))
    for p in (0, 1):
        with pytest.raises(VerificationFailure, match="cylinder target presentation drifted"):
            verify_shift_step_sign(F, J, 2, p)


def test_a_cylinder_read_on_its_sub_side_twice_drifts_the_source(monkeypatch):
    # The quotient side then presents degree n - 1 of F J, not degree n.
    F, J, _ = padded_step()
    monkeypatch.setattr(derived, "apply_F_ses", lambda F, S: Sides(*[apply_F_ses(F, S).sub] * 2))
    with pytest.raises(VerificationFailure, match="cylinder source cocycles drifted"):
        verify_shift_step_sign(F, J, 2, 0)
    with pytest.raises(VerificationFailure, match="cylinder source presentation drifted"):
        verify_shift_step_sign(F, J, 2, 1)
