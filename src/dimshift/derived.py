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
from dataclasses import dataclass
from typing import Optional

from .linalg import (
    NoSolution,
    Rat,
    RationalMatrix,
    Subspace,
    quotient,
    rank,
    solve_matrix,
)
from .modules import (
    ConstructionFailure,
    FunctorSpec,
    LambdaModule,
    SesModules,
    apply_F_map,
    apply_F_object,
    identity_map,
)
from .complexes import (
    ChaseFailure,
    VectorComplex,
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


class AcyclicityFailure(Exception):
    """A resolution offered as acyclic for the functor is not."""


class NotEpic(Exception):
    """The degree-zero barred connecting map failed to be surjective,
    so it cannot serve as an identification."""


def sign_factor(n: int) -> int:
    """(-1)^((n^2 + n) / 2): the triangular-number sign, period four
    in n with pattern -, -, +, + starting at n = 1."""
    return -1 if ((n * n + n) // 2) % 2 else 1


# ---------------------------------------------------------------------------
# Derived functor values.

@dataclass(frozen=True)
class DerivedFunctorValue:
    """R^i F(module) for i below the horizon, all presented on the
    registry resolution."""

    functor: FunctorSpec
    module: LambdaModule
    horizon: int
    complex: VectorComplex

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
        raise ConstructionFailure("degree-0 value disagrees with the functor")
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

    J must resolve M by F-acyclic objects (checked, AcyclicityFailure
    otherwise).  Different lifts are homotopic, so the matrix does not
    depend on rng; invertibility is asserted rather than assumed.
    """
    if J.base != M:
        raise ValueError("resolution does not resolve the given module")
    if not 0 <= n <= J.horizon - 1:
        raise ValueError("degree must sit below the resolution horizon")
    depth = max(n, 1)
    for p, obj in enumerate(J.objects):
        if not is_F_acyclic(F, obj, depth, registry):
            raise AcyclicityFailure(f"resolution object in degree {p} is not acyclic")
    I = registry.resolution(M, J.horizon)
    f = lift_resolution_map(identity_map(M), J, I, rng)
    c = induced_on_cohomology(apply_F_chain_map(F, f), n)
    if c.nrows != c.ncols or rank(c) != c.nrows:
        raise AcyclicityFailure("comparison map is not invertible")
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
    horseshoe over the given resolutions, apply F and chase.  Every
    connecting map of a short exact sequence of modules is built here."""
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
    resulting matrix provably does not (that independence is itself a
    verification target, so it is not silently assumed here: callers
    who want the canonical value pass rng=None).
    """
    if p < 0:
        raise ValueError("connecting degree must be nonnegative")
    RA = registry.resolution(E.sub, p + 2)
    RB = registry.resolution(E.quot, p + 2)
    return chase_connecting(F, E, RA, RB, p, rng)


@dataclass(frozen=True)
class DegreeZeroConnecting:
    """The barred degree-zero connecting map: its domain is F(quot)
    modulo the image of F(mid), given by `presentation`, and `matrix`
    maps those quotient coordinates to the registry presentation of
    R^1 F(sub)."""

    presentation: object
    matrix: RationalMatrix


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
    middle term is not F-acyclic and NotEpic is raised, since the
    dimension shift needs this map to be invertible.
    """
    delta0 = derived_connecting(F, E, 0, registry, rng)
    RB = registry.resolution(E.quot, 2)
    H0 = cohomology(apply_F_complex(F, RB.complex), 0)
    F_aug = apply_F_map(F, RB.augmentation)
    iota_coords = H0.cocycles.express_columns(F_aug)
    if iota_coords is NoSolution:
        raise ChaseFailure("augmentation image is not made of cocycles")
    if iota_coords.nrows != iota_coords.ncols or rank(iota_coords) != iota_coords.nrows:
        raise ConstructionFailure("F(quot) does not exhaust the degree-zero cocycles")
    unbarred = delta0 @ iota_coords
    F_pi = apply_F_map(F, E.c_to_b)
    if not (unbarred @ F_pi).is_zero():
        raise ConstructionFailure("connecting map does not kill the image of F(mid)")
    Q = quotient(F_aug.ncols, Subspace.from_columns(F_pi))
    barred = unbarred @ Q.representative_basis
    r = rank(barred)
    if r != Q.dim:
        raise ConstructionFailure("barred connecting map is not injective")
    RA = registry.resolution(E.sub, 2)
    target_dim = cohomology(apply_F_complex(F, RA.complex), 1).dim
    if r != target_dim:
        raise NotEpic(
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
        raise ChaseFailure("cocycles do not factor through the cycle inclusion")
    bar = derived_connecting_deg0(F, splitting.sequences[n - 1], registry, rng)
    F_v = apply_F_map(F, splitting.corestrictions[n - 1])
    if bar.presentation.ambient_dim != F_u.ncols or bar.presentation.denominator != Subspace.from_columns(F_v):
        raise ConstructionFailure("identification target drifted between presentations")
    total = bar.matrix @ (bar.presentation.reduction_map @ in_cycles)
    for p in range(1, n):
        step = derived_connecting(F, splitting.sequences[n - p - 1], p, registry, rng)
        total = step @ total
    if total.nrows != total.ncols or rank(total) != total.nrows:
        raise AcyclicityFailure("shift composite is not invertible")
    return total


# ---------------------------------------------------------------------------
# Verification entry points.

@dataclass(frozen=True)
class SignReport:
    """Outcome of one sign comparison: shifted == sign * comparison."""

    n: int
    dim: int
    sign: int
    comparison: RationalMatrix
    shifted: RationalMatrix
    verdict: bool
    mismatch: Optional[tuple]


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
    expected = Rat(s) * c
    mismatch = next(
        (
            (i, j, x, y)
            for i, (row, expected_row) in enumerate(zip(d.rows, expected.rows))
            for j, (x, y) in enumerate(zip(row, expected_row))
            if x != y
        ),
        None,
    )
    return SignReport(n, c.nrows, s, c, d, d == expected, mismatch)


@dataclass(frozen=True)
class ConnectingSquareReport:
    """Whether comparison isomorphisms intertwine a freshly chased
    connecting map with the canonical one."""

    degree: int
    via_chase: RationalMatrix
    via_canonical: RationalMatrix
    verdict: bool


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


@dataclass(frozen=True)
class StepSignReport:
    """One rung of the shift ladder, chased through the two-term
    cylinder: the matrix should be exactly (-1)^(p+1) times the
    identity on the shared presentation."""

    n: int
    p: int
    expected_sign: int
    matrix: RationalMatrix
    verdict: bool


def verify_shift_step_sign(
    F: FunctorSpec,
    J: Resolution,
    n: int,
    p: int,
    registry: ResolutionRegistry,
    splitting=None,
    rng: Optional[random.Random] = None,
) -> StepSignReport:
    """Chase one shift step through the cylinder between shifted tails.

    The source and target cohomology presentations are literally the
    presentation of H^n(F J) (checked), so the chased matrix can be
    compared against a signed identity with no further identification.
    Requires J.horizon >= n + 2 so the target presentation is honest.
    """
    if not 0 <= p <= n - 1:
        raise ValueError("step index out of range")
    if J.horizon < n + 2:
        raise ValueError("resolution horizon too short for honest step checks")
    if splitting is None:
        splitting = split_resolution(J, n)
    i = n - p - 1
    cyl = cylinder_resolution(J, splitting, i)
    FS = apply_F_ses(F, cyl.ses)
    FJ = apply_F_complex(F, J.complex)
    Hn = cohomology(FJ, n)
    target = cohomology(FS.sub, p + 1)
    if not target.same_presentation(Hn):
        raise ConstructionFailure("cylinder target presentation drifted")
    if p == 0:
        H0 = cohomology(FS.quot, 0)
        if H0.cocycles != Hn.cocycles:
            raise ConstructionFailure("cylinder source cocycles drifted")
        D = snake_delta_matrix(FS, 0, rng) @ Hn.presentation.representative_basis
    else:
        source = cohomology(FS.quot, p)
        if not source.same_presentation(Hn):
            raise ConstructionFailure("cylinder source presentation drifted")
        D = snake_delta_matrix(FS, p, rng)
    s = -1 if (p + 1) % 2 else 1
    expected = Rat(s) * RationalMatrix.identity(Hn.dim)
    return StepSignReport(n, p, s, D, D == expected)
