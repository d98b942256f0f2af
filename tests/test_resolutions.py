"""Resolutions: the deterministic build, splitting, horseshoe, cylinder."""

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dimshift import complexes, modules, resolutions
from dimshift.linalg import Rat, RationalMatrix, VerificationFailure
from dimshift.modules import (
    FunctorSpec,
    ModuleMap,
    SesModules,
    TruncatedAlgebra,
    cokernel_module,
    compose,
    cyclic_module,
    direct_sum,
    embed_into_injective,
    free_module,
    identity_map,
    is_injective,
    simple_module,
)
from dimshift.complexes import (
    ChainMap,
    ModuleComplex,
    SesOfComplexes,
    apply_F_ses,
    find_homotopy,
    homotopy_defect,
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
)
from dimshift.derived import chase_connecting, derived_connecting
from dimshift.harness import (
    GeneratorConfig,
    gen_padded_resolution,
    gen_random_functor,
    gen_random_module,
    gen_random_ses,
)

from conftest import identity_chain_map
from fraction_oracle import is_exact_at, matrix_rank


# -- the deterministic resolution --------------------------------------------

def test_standard_resolution_of_the_simple_module(alg2, k2):
    R = injective_resolution(k2, 4)
    assert [J.dim for J in R.objects] == [2, 2, 2, 2, 2]
    assert all(is_injective(J) for J in R.objects)
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
                d = R.differential(p).matrix
                assert R.objects[p].dim - matrix_rank(d) == incoming
                incoming = matrix_rank(d)


def test_resolution_constructor_rejects_inexact_complexes(alg2, k2, lam2, zero_map):
    from dimshift.modules import embed_into_injective

    # 0 -> k -> free -> free with a zero differential: the augmentation
    # image is a proper subspace of the kernel, so degree 0 is inexact.
    stalled = ModuleComplex([lam2, lam2], [zero_map(lam2, lam2)])
    with pytest.raises(VerificationFailure, match="resolution is not exact in degree 0"):
        Resolution(k2, embed_into_injective(k2), stalled)


def test_registry_resolutions_of_cyclic_modules_are_periodic():
    # 0 -> k[x]/x^a -> L -> L -> ... over L = k[x]/(x^m): each d^p is
    # multiplication by x^(m-a) for even p and by x^a for odd p.
    registry = ResolutionRegistry()
    for m in range(2, 6):
        algebra = TruncatedAlgebra(m)
        for a in range(1, m):
            R = registry.resolution(cyclic_module(algebra, a), 5)
            assert [J.dim for J in R.objects] == [m] * 6
            for p in range(R.horizon):
                assert matrix_rank(R.differential(p).matrix) == (m - a if p % 2 == 0 else a)


def test_registry_returns_aligned_slices(k2):
    registry = ResolutionRegistry()
    short = registry.resolution(k2, 2)
    long = registry.resolution(k2, 5)
    again = registry.resolution(k2, 2)
    assert short.complex.differentials == long.complex.differentials[:2]
    assert again.complex == short.complex
    assert registry.resolution(k2, 5) is long


# h < H extends the cached build, h > H slices it, h == H hits.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(0, 4), st.integers(0, 4))
def test_a_registry_asked_twice_gives_the_fresh_build(seed, m, h, H):
    M = gen_random_module(GeneratorConfig(m=m, max_dim=6), random.Random(seed))
    registry = ResolutionRegistry()
    registry.resolution(M, h)
    R = registry.resolution(M, H)
    fresh = injective_resolution(M, H)
    assert R.horizon == H
    assert R.augmentation == fresh.augmentation
    assert R.objects == fresh.objects
    assert [R.differential(p) for p in range(H)] == [fresh.differential(p) for p in range(H)]


def test_registry_stores_keep_the_most_recently_used(monkeypatch):
    # Both stores read MEMO_SIZE at each insert, so a bound of 2 stands
    # in for 256 without building hundreds of resolutions.
    monkeypatch.setattr(resolutions, "MEMO_SIZE", 2)
    algebra = TruncatedAlgebra(5)
    registry = ResolutionRegistry()
    first = registry.resolution(cyclic_module(algebra, 1), 3)
    registry.resolution(cyclic_module(algebra, 2), 3)
    registry.resolution(cyclic_module(algebra, 1), 2)  # used again: kept
    registry.resolution(cyclic_module(algebra, 3), 3)
    assert len(registry._store) == 2
    assert cyclic_module(algebra, 1) in registry._store
    assert cyclic_module(algebra, 2) not in registry._store
    registry.resolution(cyclic_module(algebra, 4), 3)
    rebuilt = registry.resolution(cyclic_module(algebra, 1), 3)
    assert rebuilt is not first
    assert rebuilt.augmentation == first.augmentation and rebuilt.complex == first.complex
    F = FunctorSpec(algebra, cyclic_module(algebra, 2))
    iota = embed_into_injective(cyclic_module(algebra, 2))
    E = SesModules(iota, cokernel_module(iota).projection)
    deltas = [derived_connecting(F, E, p, registry) for p in range(3)]
    assert len(registry._connecting) == 2 and len(registry._store) == 2
    assert derived_connecting(F, E, 0, registry) == deltas[0]


def count_checks(monkeypatch) -> Counter:
    """From now on, (record, degree) -> the products and ranks that the
    records' _check methods compute: the record's class name, and the
    degree its loop is at, None outside the loops."""
    counts = Counter()

    def record():
        frame = sys._getframe(2)
        if frame.f_code.co_name == "_check":
            checked = type(frame.f_locals["self"]).__name__
            counts[checked, frame.f_locals.get("p")] += 1

    matmul = RationalMatrix.__matmul__

    def counted_matmul(self, other):
        record()
        return matmul(self, other)

    monkeypatch.setattr(RationalMatrix, "__matmul__", counted_matmul)
    for module in (complexes, resolutions):
        def counted_rank(M, rank=module.rank):
            record()
            return rank(M)

        monkeypatch.setattr(module, "rank", counted_rank)
    return counts


def resolution_checks(H: int) -> Counter:
    """What a fresh resolution to H computes in its checks: d o d landing
    in each degree 2..H, the rank of the augmentation, the base killed,
    and the rank of each differential for exactness."""
    return Counter(
        {("ModuleComplex", p): 1 for p in range(H - 1)}
        | {("Resolution", p): 1 for p in range(H)}
        | {("Resolution", None): 2}
    )


# The rank of the old top differential, which exactness at the seam reads.
SEAM = ("Resolution", None)


# Grown 2 -> 4 -> 7, a record runs each check of a fresh build to 7 once
# per degree, and each of the two growths adds one seam rank.
def test_a_grown_registry_resolution_checks_each_degree_once(monkeypatch):
    M = cyclic_module(TruncatedAlgebra(3), 2)
    checks = count_checks(monkeypatch)
    registry = ResolutionRegistry()
    for h in (2, 4, 7):
        registry.resolution(M, h)
    grown = Counter(checks)
    checks.clear()
    injective_resolution(M, 7)
    assert checks == resolution_checks(7)
    assert grown == checks + Counter({SEAM: 2})


def test_a_grown_canonical_horseshoe_checks_each_degree_once(monkeypatch, alg2, k2):
    iota = embed_into_injective(k2)
    E = SesModules(iota, cokernel_module(iota).projection)
    registry = ResolutionRegistry()
    RA, RB = registry.resolution(E.sub, 7), registry.resolution(E.quot, 7)
    registry.horseshoe(E, 2)  # a first request keeps only the key
    checks = count_checks(monkeypatch)
    for h in (2, 4, 7):
        registry.horseshoe(E, h)
    grown = Counter(checks)
    checks.clear()
    horseshoe(E, RA, RB)
    # Besides the middle resolution's checks: two squares, of two
    # products each, landing in each degree 1..7 (the two chain maps),
    # and a composite and two ranks in each degree 0..7 (the sequence).
    assert checks == resolution_checks(7) + Counter(
        {("ChainMap", p): 4 for p in range(7)}
        | {("SesOfComplexes", p): 3 for p in range(8)}
    )
    assert grown == checks + Counter({SEAM: 2})


def zero_differential_at(monkeypatch, degree):
    """The registry builds d(degree) as the zero map."""
    real = resolutions.compose
    built = []

    def planted(g, f):
        built.append(None)
        d = real(g, f)
        if len(built) == degree + 1:
            return ModuleMap(d.src, d.dst, RationalMatrix.zeros(d.dst.dim, d.src.dim))
        return d

    monkeypatch.setattr(resolutions, "compose", planted)


@pytest.mark.parametrize("degree", [3, 5])
def test_a_defect_in_a_new_degree_of_a_resolution_is_caught_as_on_a_fresh_build(
    monkeypatch, degree
):
    # Degree 3 is the first new one: its exactness reads the seam.
    M = cyclic_module(TruncatedAlgebra(3), 2)
    message = f"resolution is not exact in degree {degree}"
    with monkeypatch.context() as patch:
        zero_differential_at(patch, degree)
        with pytest.raises(VerificationFailure, match=message):
            injective_resolution(M, 6)
    registry = ResolutionRegistry()
    registry.resolution(M, 3)
    zero_differential_at(monkeypatch, degree - 3)
    with pytest.raises(VerificationFailure, match=message):
        registry.resolution(M, 6)


# -- splitting into cycle sequences ------------------------------------------

def test_splitting_of_the_standard_resolution(alg2, k2, registry):
    R = registry.resolution(k2, 4)
    S = split_resolution(R, 3)
    assert S._fields == ("inclusions", "corestrictions", "sequences")
    assert [u.src.dim for u in S.inclusions] == [1, 1, 1, 1]
    for q in range(3):
        E = S.sequences[q]
        assert E.sub == S.inclusions[q].src
        assert E.quot == S.inclusions[q + 1].src
        assert compose(S.inclusions[q + 1], S.corestrictions[q]) == R.differential(q)


def test_splitting_of_an_immediately_stopping_resolution(lam2, registry):
    R = registry.resolution(lam2, 2)
    S = split_resolution(R, 2)
    assert S.inclusions[1].src.dim == 0


def test_splitting_depth_must_lie_within_the_horizon(k2, registry):
    R = registry.resolution(k2, 3)
    assert len(split_resolution(R, 3).sequences) == 3
    for depth in (-1, 4):
        with pytest.raises(ValueError, match="splitting depth out of range"):
            split_resolution(R, depth)


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


def test_cycles_begin_exact_tails_on_padded_input():
    # 0 -> cycles[i] -> J^i -> J^(i+1) is exact: the i-th cycles are
    # resolved by the tail of J from degree i on.
    rng = random.Random(63)
    cfg = GeneratorConfig(seed=0, m=3, max_dim=5, max_padding=2)
    registry = ResolutionRegistry()
    Mod = gen_random_module(cfg, rng)
    J = gen_padded_resolution(Mod, 4, cfg, rng, registry)
    S = split_resolution(J, 3)
    for i in range(1, len(S.sequences) + 1):
        assert is_exact_at(S.inclusions[i].matrix, J.differential(i).matrix)
        assert matrix_rank(S.inclusions[i].matrix) == S.inclusions[i].src.dim


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
    assert all(is_injective(J) for J in hs.resolution.objects)


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


# Built at h and then at H over one registry, the second build reads
# the first one's thetas from the extension memo: h < H solves only the
# new ones, h >= H none.  It must equal a build with the memo empty.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(0, 4), st.integers(0, 4))
def test_a_canonical_horseshoe_rebuilt_from_the_memo_gives_the_fresh_build(seed, m, h, H):
    rng = random.Random(seed)
    cfg = GeneratorConfig(m=m, max_dim=6)
    F = gen_random_functor(cfg, rng)
    E = gen_random_ses(cfg, rng)
    registry = ResolutionRegistry()
    horseshoe(E, registry.resolution(E.sub, h), registry.resolution(E.quot, h))
    solved = modules._canonical_extension.cache_info().misses
    hs = horseshoe(E, registry.resolution(E.sub, H), registry.resolution(E.quot, H))
    assert modules._canonical_extension.cache_info().misses - solved <= max(H - h, 0)
    top = max(h, H)
    canonical = [derived_connecting(F, E, p, registry) for p in range(top - 1)]
    modules._canonical_extension.cache_clear()
    fresh = ResolutionRegistry()
    built = horseshoe(E, fresh.resolution(E.sub, H), fresh.resolution(E.quot, H))
    assert hs.resolution.horizon == H
    assert hs == built
    for p in range(top - 1):
        modules._canonical_extension.cache_clear()
        RA = fresh.resolution(E.sub, p + 2)
        RB = fresh.resolution(E.quot, p + 2)
        assert canonical[p] == chase_connecting(F, E, RA, RB, p)


def negate_theta_at(monkeypatch, degree):
    """_glue negates theta^degree when it is one of the thetas it adds."""
    glue = resolutions._glue

    def planted(base, aug, sub, quot, thetas, prefix=None):
        thetas = list(thetas)
        q = degree - (prefix.resolution.horizon if prefix is not None else 0)
        if 0 <= q < len(thetas):
            thetas[q] = -thetas[q]
        return glue(base, aug, sub, quot, thetas, prefix)

    monkeypatch.setattr(resolutions, "_glue", planted)


@pytest.mark.parametrize("degree", [3, 4])
def test_a_defect_in_a_new_degree_of_a_horseshoe_is_caught_as_on_a_fresh_build(
    monkeypatch, alg2, k2, degree
):
    # theta^3 is the first new theta: d o d in degree 2 reads the seam.
    iota = embed_into_injective(k2)
    E = SesModules(iota, cokernel_module(iota).projection)
    registry = ResolutionRegistry()
    RA, RB = registry.resolution(E.sub, 5), registry.resolution(E.quot, 5)
    for _ in range(2):  # kept from the second request on
        registry.horseshoe(E, 3)
    negate_theta_at(monkeypatch, degree)
    message = f"d o d is nonzero in degree {degree - 1}"
    with pytest.raises(VerificationFailure, match=message):
        horseshoe(E, RA, RB)
    with pytest.raises(VerificationFailure, match=message):
        registry.horseshoe(E, 5)


def test_a_prefix_must_be_a_horseshoe_over_the_same_resolutions(alg2, k2):
    iota = embed_into_injective(k2)
    E = SesModules(iota, cokernel_module(iota).projection)
    registry = ResolutionRegistry()
    kept = registry.horseshoe(E, 2)
    split = SesModules(direct_sum(k2, k2).include_left, direct_sum(k2, k2).project_right)
    for F, RA, RB in (
        (split, registry.resolution(k2, 4), registry.resolution(k2, 4)),
        (E, registry.resolution(k2, 4), registry.resolution(E.quot, 1)),
    ):
        with pytest.raises(ValueError, match="prefix is not a horseshoe over these resolutions"):
            horseshoe(F, RA, RB, prefix=kept)


def through(hs, h):
    """The parts of a twisted sum in degrees 0..h."""
    R, (include, project) = hs
    return (
        R.truncate(h),
        include.src.truncate(h),
        project.dst.truncate(h),
        include.maps[: h + 1],
        project.maps[: h + 1],
    )


# Kept at h0 (asked twice, since a first request keeps only the key)
# and asked for H, the registry grows its horseshoe when H > h0 and
# otherwise serves the kept one: through any h it reaches, that equals
# a fresh horseshoe filled to h.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 3),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 4),
)
def test_a_grown_registry_horseshoe_truncates_to_the_fresh_one(seed, m, h0, H, h):
    E = gen_random_ses(GeneratorConfig(m=m, max_dim=6), random.Random(seed))
    registry = ResolutionRegistry()
    for h1 in (h0, h0, H):
        grown = registry.horseshoe(E, h1)
    assert grown.resolution.horizon == max(h0, H)
    h = min(h, grown.resolution.horizon)
    fresh = ResolutionRegistry()
    built = horseshoe(E, fresh.resolution(E.sub, h), fresh.resolution(E.quot, h))
    assert through(grown, h) == through(built, h)


# -- F-images of kept horseshoes ---------------------------------------------

# Asked at h0 twice and then at H, the registry continues the F-image
# of its kept horseshoe; it equals F of a fresh horseshoe of the same
# horizon.
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(0, 4), st.integers(0, 4))
def test_a_grown_F_image_equals_the_image_of_the_fresh_horseshoe(seed, m, h0, H):
    rng = random.Random(seed)
    cfg = GeneratorConfig(m=m, max_dim=6)
    F = gen_random_functor(cfg, rng)
    E = gen_random_ses(cfg, rng)
    registry = ResolutionRegistry()
    for h in (h0, h0, H):
        grown = registry.F_image(F, E, h)
    assert grown.horizon == max(h0, H)
    fresh = ResolutionRegistry()
    RA, RB = fresh.resolution(E.sub, grown.horizon), fresh.resolution(E.quot, grown.horizon)
    assert grown == apply_F_ses(F, horseshoe(E, RA, RB).ses)


def standard_sequence(k):
    iota = embed_into_injective(k)
    return SesModules(iota, cokernel_module(iota).projection)


# Grown 2 -> 4 -> 7 with its horseshoe, an F-image runs each of its
# checks once per degree: d o d of its three complexes landing in
# 2..7, two squares of two products each landing in 1..7, a composite
# and two ranks in 0..7.  The checks that land in a first new degree
# read the seam; beyond them only the horseshoe's seam ranks are added.
# At m = 3 the outer terms differ, so no F-complex is a memo hit.
def test_a_grown_F_image_checks_each_degree_once(monkeypatch):
    algebra = TruncatedAlgebra(3)
    F = FunctorSpec(algebra, simple_module(algebra))
    E = standard_sequence(simple_module(algebra))
    registry = ResolutionRegistry()
    RA, RB = registry.resolution(E.sub, 7), registry.resolution(E.quot, 7)
    registry.F_image(F, E, 2)  # a first request keeps only the key
    complexes.apply_F_complex.cache_clear()
    checks = count_checks(monkeypatch)
    for h in (2, 4, 7):
        registry.F_image(F, E, h)
    grown = Counter(checks)
    checks.clear()
    hs = horseshoe(E, RA, RB)
    fresh = Counter(checks)
    checks.clear()
    complexes.apply_F_complex.cache_clear()
    apply_F_ses(F, hs.ses)
    assert checks == Counter(
        {("VectorComplex", p): 3 for p in range(6)}
        | {("ChainMap", p): 4 for p in range(7)}
        | {("SesOfComplexes", p): 3 for p in range(8)}
    )
    assert grown == fresh + checks + Counter({SEAM: 2})


def with_component(f: ChainMap, p: int, component) -> ChainMap:
    components = f.components[:p] + (component,) + f.components[p + 1 :]
    return ChainMap._make((f.src, f.dst, components, f.maps))


def plant_in_grown_sequences(monkeypatch, degree, defect):
    """complexes.grow hands a sequence of complexes its components in
    degree `degree` changed by defect(i, q) -> (i, q), unchecked."""
    grow = complexes.grow

    def planted(record, *fields):
        if isinstance(record, SesOfComplexes):
            include, project = fields
            i, q = defect(include.components[degree], project.components[degree])
            fields = (with_component(include, degree, i), with_component(project, degree, q))
        return grow(record, *fields)

    monkeypatch.setattr(complexes, "grow", planted)


def leaking(i, q):
    """q plus e i^T, with e one in its corner: the composite gains
    e i^T i, which is nonzero because i^T i is invertible."""
    e = RationalMatrix([[int(r == c == 0) for c in range(i.ncols)] for r in range(q.nrows)])
    return i, q + e @ i.transpose()


SEQUENCE_DEFECTS = {
    "composite is nonzero": leaking,
    "sub map is not injective": lambda i, q: (RationalMatrix.zeros(i.nrows, i.ncols), q),
    "quot map is not surjective": lambda i, q: (i, RationalMatrix.zeros(q.nrows, q.ncols)),
    "dimensions do not add up": lambda i, q: (i.take(range(i.nrows), range(i.ncols - 1)), q),
}


# The F-image is kept at horizon 3, so degree 4 is the first new one.
@pytest.mark.parametrize("degree", [4, 5])
@pytest.mark.parametrize("message", sorted(SEQUENCE_DEFECTS))
def test_a_defect_in_a_new_degree_of_a_grown_F_image_is_caught(
    monkeypatch, alg2, k2, message, degree
):
    F = FunctorSpec(alg2, k2)
    E = standard_sequence(k2)
    registry = ResolutionRegistry()
    for _ in range(2):
        registry.F_image(F, E, 3)
    plant_in_grown_sequences(monkeypatch, degree, SEQUENCE_DEFECTS[message])
    with pytest.raises(VerificationFailure, match=f"{message} in degree {degree}"):
        registry.F_image(F, E, 5)


# -- comparison lifts --------------------------------------------------------

def test_self_lift_of_the_identity_is_homotopic_to_the_identity(k2, registry):
    R = registry.resolution(k2, 3)
    f = lift_resolution_map(identity_map(k2), R, R)
    assert f.components[0] @ R.augmentation.matrix == R.augmentation.matrix
    g = identity_chain_map(R.complex)
    h = find_homotopy(f, g)
    assert h is not None
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
        assert h is not None
        for p in range(f.horizon):
            assert homotopy_defect(f, g, h, p).is_zero()


# -- the two-term cylinder ---------------------------------------------------

def test_cylinder_structure_over_the_standard_resolution(k2, registry):
    R = registry.resolution(k2, 4)
    cyl = cylinder_resolution(R, 0)
    L = cyl.resolution
    assert L.base == R.objects[0]
    assert [J.dim for J in L.objects] == [4, 4, 4, 4]
    # Augmentation v |-> (v, d v), read off blockwise.
    top = L.augmentation.matrix.take(range(2), range(2))
    bottom = L.augmentation.matrix.take(range(2, 4), range(2))
    assert top == RationalMatrix.identity(2)
    assert bottom == R.differential(0).matrix
    # First differential: top-right block is minus the identity.
    d0 = L.differential(0).matrix
    for i in range(2):
        for j in range(2):
            assert d0.entry(i, 2 + j) == (Rat(-1) if i == j else Rat(0))


def test_cylinder_sides_are_the_shifted_tails(k2):
    registry = ResolutionRegistry()
    registry.resolution(k2, 6)
    # Two truncations of the kept build: equal by content, distinct objects.
    R, again = registry.resolution(k2, 4), registry.resolution(k2, 4)
    assert R is not again and R == again
    for J in (R, again):
        for i in (0, 1, 2, 3):
            cyl = cylinder_resolution(J, i)
            head = cyl.ses.sub.objects
            tail = cyl.ses.quot.objects
            assert len(head) == len(tail) == R.horizon - i
            assert head == R.objects[i : i + len(head)]
            assert tail == R.objects[i + 1 : i + 1 + len(tail)]


def test_cylinder_index_must_leave_a_tail(k2, registry):
    R = registry.resolution(k2, 4)
    for i in (-1, R.horizon):
        with pytest.raises(ValueError, match="cylinder index out of range"):
            cylinder_resolution(R, i)


def test_cylinder_is_exact_on_padded_resolutions():
    rng = random.Random(68)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=5, max_padding=2)
    registry = ResolutionRegistry()
    Mod = gen_random_module(cfg, rng)
    J = gen_padded_resolution(Mod, 5, cfg, rng, registry)
    for i in (0, 1, 2):
        cylinder_resolution(J, i)  # Resolution re-validates everything


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
