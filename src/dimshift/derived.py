"""Right derived functors of Hom(A, -) and the two isomorphisms
H^n(F J) ~ R^n F(M) that this package exists to compare.

The comparison route lifts the identity to a chain map from J into the
registry resolution and takes cohomology.  The shift route splits J
into short exact sequences of cycles, identifies H^n(F J) with the
degree-zero barred connecting domain, and then climbs back up through
n - 1 ordinary connecting maps.  Both routes land in the same
registry-defined presentation of R^n F(M), so the two matrices can be
compared entry by entry; the claim under test is that they differ by
exactly the sign (-1)^((n^2 + n) / 2).

Every intermediate presentation is pinned to the registry resolutions,
which is what makes matrices from different calls composable and
comparable at all.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import Optional

from .linalg import (
    NoSolution,
    RationalMatrix,
    Subspace,
    VerificationFailure,
    quotient,
    rank,
    solve_matrix,
)
from .modules import (
    FunctorSpec,
    LambdaModule,
    SesModules,
    apply_F_map,
    apply_F_object,
    identity_map,
)
from .complexes import (
    apply_F_chain_map,
    apply_F_complex,
    apply_F_ses,
    cohomology,
    induced_on_cohomology,
    snake_delta_matrix,
)
from .resolutions import (
    Resolution,
    ResolutionRegistry,
    cylinder_resolution,
    horseshoe,
    is_F_acyclic,
    lift_resolution_map,
    split_resolution,
)


def sign_factor(n: int) -> int:
    """(-1)^((n^2 + n) / 2): the triangular-number sign, period four
    in n with pattern -, -, +, + starting at n = 1."""
    return -1 if ((n * n + n) // 2) % 2 else 1


def step_sign(p: int) -> int:
    """(-1)^(p+1): the expected sign of shift step p, chased through the cylinder."""
    return -1 if (p + 1) % 2 else 1


# ---------------------------------------------------------------------------
# Derived functor values.

class DerivedFunctorValue(namedtuple("DerivedFunctorValue", "functor module horizon complex")):
    """R^i F(module) for i below the horizon, all presented on the
    registry resolution."""

    __slots__ = ()

    def presentation(self, i: int):
        if not 0 <= i <= self.horizon - 1:
            raise ValueError("degree out of the honestly computed range")
        return cohomology(self.complex, i)

    def dim(self, i: int) -> int:
        return self.presentation(i).dim


def derived_functor(
    F: FunctorSpec, M: LambdaModule, horizon: int, registry: ResolutionRegistry
) -> DerivedFunctorValue:
    R = registry.resolution(M, horizon)
    value = DerivedFunctorValue(F, M, horizon, apply_F_complex(F, R.complex))
    # Left exactness identifies the degree-0 value with F applied to the
    # module itself; anything else means the resolution is broken.
    if value.dim(0) != apply_F_object(F, M).dim:
        raise VerificationFailure("degree-0 value disagrees with the functor")
    return value


# ---------------------------------------------------------------------------
# The comparison isomorphism.

def comparison_iso(
    F: FunctorSpec,
    M: LambdaModule,
    J: Resolution,
    n: int,
    registry: ResolutionRegistry,
    rng: Optional[random.Random] = None,
) -> RationalMatrix:
    """H^n(F J) -> R^n F(M) induced by a lift of the identity.

    J must resolve M by F-acyclic objects (VerificationFailure
    otherwise).  Every call checks each distinct object once; a degree
    checked before is a hit of the cohomology memo, which is keyed on
    the two differentials it reads.  Different lifts are homotopic, so
    the matrix does not depend on rng; invertibility is asserted rather
    than assumed.
    """
    if J.base != M:
        raise ValueError("resolution does not resolve the given module")
    if not 0 <= n <= J.horizon - 1:
        raise ValueError("degree must sit below the resolution horizon")
    depth = max(n, 1)
    for obj in dict.fromkeys(J.objects):
        if not is_F_acyclic(F, obj, depth, registry):
            p = J.objects.index(obj)
            raise VerificationFailure(f"resolution object in degree {p} is not acyclic")
    I = registry.resolution(M, J.horizon)
    f = lift_resolution_map(identity_map(M), J, I, rng)
    c = induced_on_cohomology(apply_F_chain_map(F, f), n)
    if c.nrows != c.ncols or rank(c) != c.nrows:
        raise VerificationFailure("comparison map is not invertible")
    return c


# ---------------------------------------------------------------------------
# Connecting maps of a short exact sequence of modules.

def chase_connecting(
    F: FunctorSpec,
    E: SesModules,
    sub_resolution: Resolution,
    quot_resolution: Resolution,
    p: int,
    rng: Optional[random.Random] = None,
) -> RationalMatrix:
    """H^p F(quot_resolution) -> H^(p+1) F(sub_resolution): fill a
    horseshoe over the given resolutions, apply F and chase."""
    hs = horseshoe(E, sub_resolution, quot_resolution, rng)
    return snake_delta_matrix(apply_F_ses(F, hs.ses), p, rng)


def derived_connecting(
    F: FunctorSpec,
    E: SesModules,
    p: int,
    registry: ResolutionRegistry,
    rng: Optional[random.Random] = None,
) -> RationalMatrix:
    """R^p F(quot) -> R^(p+1) F(sub), via a horseshoe over the registry
    resolutions of the outer terms.

    With rng the horseshoe filling and the chase lifts vary; the
    resulting matrix provably does not.  That independence is itself a
    verification target, so it is not silently assumed here: a call
    with rng always fills a fresh horseshoe from degree zero and chases
    it, and neither reads nor writes the registry's horseshoes, their
    F-images and connecting maps or the memo of extensions.  Callers who
    want the canonical value pass rng=None; it is chased once, with
    every check, per (F, E's two maps, p) on F of the registry's
    canonical horseshoe of E, and then kept on the registry.
    """
    if p < 0:
        raise ValueError("connecting degree must be nonnegative")
    if rng is not None:
        RA = registry.resolution(E.sub, p + 2)
        RB = registry.resolution(E.quot, p + 2)
        return chase_connecting(F, E, RA, RB, p, rng)
    return registry.connecting(
        (F, E, p), lambda: snake_delta_matrix(registry.F_image(F, E, p + 2), p)
    )


class DegreeZeroConnecting(namedtuple("DegreeZeroConnecting", "presentation matrix")):
    """The barred degree-zero connecting map: its domain is F(quot)
    modulo the image of F(mid), given by `presentation`, and `matrix`
    maps those quotient coordinates to the registry presentation of
    R^1 F(sub)."""

    __slots__ = ()


def derived_connecting_deg0(
    F: FunctorSpec,
    E: SesModules,
    registry: ResolutionRegistry,
    rng: Optional[random.Random] = None,
) -> DegreeZeroConnecting:
    """F(quot) / im F(mid -> quot)  ->  R^1 F(sub).

    Exactness of the long sequence at F(quot) is machine-checked: the
    unbarred connecting map must kill exactly the image of F(mid).
    The barred map is always injective; if it is not surjective the
    middle term is not F-acyclic and VerificationFailure is raised,
    since the dimension shift needs this map to be invertible.
    """
    delta0 = derived_connecting(F, E, 0, registry, rng)
    RB = registry.resolution(E.quot, 2)
    H0 = cohomology(apply_F_complex(F, RB.complex), 0)
    F_aug = apply_F_map(F, RB.augmentation)
    iota_coords = H0.cocycles.express_columns(F_aug)
    if iota_coords is NoSolution:
        raise VerificationFailure("augmentation image is not made of cocycles")
    if iota_coords.nrows != iota_coords.ncols or rank(iota_coords) != iota_coords.nrows:
        raise VerificationFailure("F(quot) does not exhaust the degree-zero cocycles")
    unbarred = delta0 @ iota_coords
    F_pi = apply_F_map(F, E.c_to_b)
    if not (unbarred @ F_pi).is_zero():
        raise VerificationFailure("connecting map does not kill the image of F(mid)")
    Q = quotient(F_aug.ncols, Subspace.from_columns(F_pi))
    barred = unbarred @ Q.representative_basis
    r = rank(barred)
    if r != Q.dim:
        raise VerificationFailure("barred connecting map is not injective")
    RA = registry.resolution(E.sub, 2)
    target_dim = cohomology(apply_F_complex(F, RA.complex), 1).dim
    if r != target_dim:
        raise VerificationFailure(
            "barred connecting map is not surjective; the middle term is not acyclic"
        )
    return DegreeZeroConnecting(Q, barred)


# ---------------------------------------------------------------------------
# The dimension-shifting isomorphism.

def dimension_shift_iso(
    F: FunctorSpec,
    M: LambdaModule,
    J: Resolution,
    n: int,
    registry: ResolutionRegistry,
    rng: Optional[random.Random] = None,
) -> RationalMatrix:
    """H^n(F J) -> R^n F(M) built from n connecting maps.

    Split J into cycle sequences.  A class in H^n(F J) is a class of
    F(n-cycles) modulo F(J^(n-1)), which the barred degree-zero
    connecting of the n-th sequence carries into R^1 F of the
    (n-1)-cycles; each further sequence shifts one degree up and one
    cycle down, ending in R^n F(M).
    """
    if J.base != M:
        raise ValueError("resolution does not resolve the given module")
    if n < 1:
        raise ValueError("dimension shifting starts at degree one")
    if J.horizon < n + 1:
        raise ValueError("resolution horizon too short to present degree n honestly")
    splitting = split_resolution(J, n)
    FJ = apply_F_complex(F, J.complex)
    Hn = cohomology(FJ, n)
    F_u = apply_F_map(F, splitting.inclusions[n])
    in_cycles = solve_matrix(F_u, Hn.representatives())
    if in_cycles is NoSolution:
        raise VerificationFailure("cocycles do not factor through the cycle inclusion")
    bar = derived_connecting_deg0(F, splitting.sequences[n - 1], registry, rng)
    F_v = apply_F_map(F, splitting.corestrictions[n - 1])
    if bar.presentation.ambient_dim != F_u.ncols or bar.presentation.denominator != Subspace.from_columns(F_v):
        raise VerificationFailure("identification target drifted between presentations")
    total = bar.matrix @ (bar.presentation.reduction_map @ in_cycles)
    for p in range(1, n):
        step = derived_connecting(F, splitting.sequences[n - p - 1], p, registry, rng)
        total = step @ total
    if total.nrows != total.ncols or rank(total) != total.nrows:
        raise VerificationFailure("shift composite is not invertible")
    return total


# ---------------------------------------------------------------------------
# Verification entry points.

class SignReport(namedtuple("SignReport", "n dim sign comparison shifted verdict")):
    """Outcome of one sign comparison: shifted == sign * comparison."""

    __slots__ = ()


def verify_sign_identity(
    F: FunctorSpec,
    M: LambdaModule,
    J: Resolution,
    n: int,
    registry: ResolutionRegistry,
    rng: Optional[random.Random] = None,
) -> SignReport:
    """Compute both isomorphisms on the same resolution and compare
    them entrywise against the predicted sign."""
    c = comparison_iso(F, M, J, n, registry, rng)
    d = dimension_shift_iso(F, M, J, n, registry, rng)
    s = sign_factor(n)
    return SignReport(n, c.nrows, s, c, d, d == c * s)


class ConnectingSquareReport(namedtuple(
    "ConnectingSquareReport", "degree via_chase via_canonical verdict"
)):
    """Whether comparison isomorphisms intertwine a freshly chased
    connecting map with the canonical one."""

    __slots__ = ()


def verify_connecting_square(
    F: FunctorSpec,
    E: SesModules,
    p: int,
    registry: ResolutionRegistry,
    sub_resolution: Optional[Resolution] = None,
    quot_resolution: Optional[Resolution] = None,
    rng: Optional[random.Random] = None,
) -> ConnectingSquareReport:
    """Check c_sub o (chased delta) == (canonical delta) o c_quot.

    The chased side may use any acyclic resolutions of the outer terms
    and any horseshoe filling; the canonical side is the deterministic
    registry connecting map.  Agreement is exact or the report fails.
    """
    if p < 0:
        raise ValueError("degree must be nonnegative")
    RA = sub_resolution or registry.resolution(E.sub, p + 2)
    RB = quot_resolution or registry.resolution(E.quot, p + 2)
    if min(RA.horizon, RB.horizon) < p + 2:
        raise ValueError("resolutions too short for this degree")
    delta = chase_connecting(F, E, RA, RB, p, rng)
    c_quot = comparison_iso(F, E.quot, RB, p, registry, rng)
    c_sub = comparison_iso(F, E.sub, RA, p + 1, registry, rng)
    chased = c_sub @ delta
    canonical = derived_connecting(F, E, p, registry) @ c_quot
    return ConnectingSquareReport(p, chased, canonical, chased == canonical)


class StepSignReport(namedtuple("StepSignReport", "n p expected_sign matrix verdict")):
    """One rung of the shift ladder, chased through the two-term
    cylinder: the matrix should be exactly (-1)^(p+1) times the
    identity on the shared presentation."""

    __slots__ = ()


def verify_shift_step_sign(
    F: FunctorSpec,
    J: Resolution,
    n: int,
    p: int,
    rng: Optional[random.Random] = None,
) -> StepSignReport:
    """Chase one shift step through the cylinder between shifted tails.

    It reads only J.  The source and target cohomology presentations
    are literally the presentation of H^n(F J) (checked), so the chased
    matrix is compared against a signed identity with no further
    identification.  Requires J.horizon >= n + 2 so the target
    presentation is honest.
    """
    if not 0 <= p <= n - 1:
        raise ValueError("step index out of range")
    if J.horizon < n + 2:
        raise ValueError("resolution horizon too short for honest step checks")
    i = n - p - 1
    cyl = cylinder_resolution(J, i)
    FS = apply_F_ses(F, cyl.ses)
    FJ = apply_F_complex(F, J.complex)
    Hn = cohomology(FJ, n)
    target = cohomology(FS.sub, p + 1)
    if not target.same_presentation(Hn):
        raise VerificationFailure("cylinder target presentation drifted")
    if p == 0:
        H0 = cohomology(FS.quot, 0)
        if H0.cocycles != Hn.cocycles:
            raise VerificationFailure("cylinder source cocycles drifted")
        D = snake_delta_matrix(FS, 0, rng) @ Hn.presentation.representative_basis
    else:
        source = cohomology(FS.quot, p)
        if not source.same_presentation(Hn):
            raise VerificationFailure("cylinder source presentation drifted")
        D = snake_delta_matrix(FS, p, rng)
    s = step_sign(p)
    expected = RationalMatrix.identity(Hn.dim) * s
    return StepSignReport(n, p, s, D, D == expected)
