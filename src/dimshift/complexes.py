"""Bounded cochain complexes in degrees [0, horizon], at two levels.

A ModuleComplex has modules over k[x]/(x^m) in each degree and module
maps as differentials; a VectorComplex is the plain rational shadow,
which is what applying Hom(A, -) produces.  Cohomology is presented
with explicit cocycle bases and chosen representatives so that every
induced map is a concrete matrix, compared entrywise with no
tolerance.

The connecting map of a degreewise short exact sequence of complexes
is computed by the usual chase: lift through the epimorphism, apply
the differential, pull back through the monomorphism.  No sign is
introduced by the chase itself.
"""

from __future__ import annotations

import functools
import random
from typing import Optional, Sequence

from .linalg import (
    NoSolution,
    Rat,
    RationalMatrix,
    Sentinel,
    Subspace,
    induced_map,
    kernel_basis,
    quotient,
    rank,
    solve_matrix,
)
from .modules import (
    FunctorSpec,
    LambdaModule,
    MEMO_SIZE,
    ModuleMap,
    apply_F_map,
    apply_F_object,
    extend_along_mono,
    is_injective,
)


class ChaseFailure(Exception):
    """A diagram chase hit an unsolvable lift or pullback."""


NotHomotopic = Sentinel("NotHomotopic")


class VectorComplex:
    """Rational cochain complex: dims per degree, d(p): C^p -> C^(p+1)."""

    __slots__ = ("dims", "differentials")

    def __init__(self, dims: Sequence[int], differentials: Sequence[RationalMatrix]):
        dims = tuple(dims)
        differentials = tuple(differentials)
        if len(differentials) != len(dims) - 1:
            raise ValueError("need exactly one differential per adjacent pair")
        for p, d in enumerate(differentials):
            if (d.nrows, d.ncols) != (dims[p + 1], dims[p]):
                raise ValueError(f"differential {p} has the wrong shape")
        for p in range(len(differentials) - 1):
            if not (differentials[p + 1] @ differentials[p]).is_zero():
                raise ValueError(f"d o d is nonzero in degree {p}")
        self.dims = dims
        self.differentials = differentials

    @property
    def horizon(self) -> int:
        return len(self.dims) - 1

    def differential(self, p: int) -> RationalMatrix:
        """d(p), with the out-of-range convention d = 0."""
        if 0 <= p < len(self.differentials):
            return self.differentials[p]
        if p == self.horizon:
            return RationalMatrix.zeros(0, self.dims[p])
        if p == -1:
            return RationalMatrix.zeros(self.dims[0], 0)
        raise ValueError("degree out of range")

    def truncate(self, horizon: int) -> "VectorComplex":
        if horizon > self.horizon:
            raise ValueError("cannot extend by truncation")
        return VectorComplex(self.dims[: horizon + 1], self.differentials[:horizon])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorComplex)
            and self.dims == other.dims
            and self.differentials == other.differentials
        )

    def __hash__(self):
        return hash((self.dims, self.differentials))

    def __repr__(self):
        return f"VectorComplex(dims={list(self.dims)})"


class ModuleComplex:
    """Cochain complex of modules with intertwining differentials."""

    __slots__ = ("objects", "differentials")

    def __init__(self, objects: Sequence[LambdaModule], differentials: Sequence[ModuleMap]):
        objects = tuple(objects)
        differentials = tuple(differentials)
        if len(differentials) != len(objects) - 1:
            raise ValueError("need exactly one differential per adjacent pair")
        for p, d in enumerate(differentials):
            if d.src != objects[p] or d.dst != objects[p + 1]:
                raise ValueError(f"differential {p} has the wrong endpoints")
        for p in range(len(differentials) - 1):
            if not (differentials[p + 1].matrix @ differentials[p].matrix).is_zero():
                raise ValueError(f"d o d is nonzero in degree {p}")
        self.objects = objects
        self.differentials = differentials

    @property
    def horizon(self) -> int:
        return len(self.objects) - 1

    def truncate(self, horizon: int) -> "ModuleComplex":
        if horizon > self.horizon:
            raise ValueError("cannot extend by truncation")
        return ModuleComplex(self.objects[: horizon + 1], self.differentials[:horizon])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleComplex)
            and self.objects == other.objects
            and self.differentials == other.differentials
        )

    def __hash__(self):
        return hash((self.objects, tuple(d.matrix for d in self.differentials)))

    def __repr__(self):
        return f"ModuleComplex(dims={[M.dim for M in self.objects]})"


def _matrices(C) -> tuple:
    """The differentials of either kind of complex as plain matrices."""
    if isinstance(C, ModuleComplex):
        return tuple(d.matrix for d in C.differentials)
    return C.differentials


class ChainMap:
    """Degreewise map of complexes commuting with the differentials.

    Both endpoints must be the same kind of complex with the same
    horizon; components are stored as plain matrices either way.
    """

    __slots__ = ("src", "dst", "components")

    def __init__(self, src, dst, components: Sequence[RationalMatrix]):
        if type(src) is not type(dst):
            raise ValueError("chain map endpoints must be the same kind of complex")
        if src.horizon != dst.horizon:
            raise ValueError("chain map endpoints must share a horizon")
        components = tuple(components)
        if len(components) != src.horizon + 1:
            raise ValueError("need one component per degree")
        for p, comp in enumerate(components):
            if isinstance(src, ModuleComplex):
                ModuleMap(src.objects[p], dst.objects[p], comp)  # validates
            elif (comp.nrows, comp.ncols) != (dst.dims[p], src.dims[p]):
                raise ValueError(f"component {p} has the wrong shape")
        src_diffs, dst_diffs = _matrices(src), _matrices(dst)
        for p in range(src.horizon):
            if components[p + 1] @ src_diffs[p] != dst_diffs[p] @ components[p]:
                raise ValueError(f"square at degree {p} does not commute")
        self.src = src
        self.dst = dst
        self.components = components

    @property
    def horizon(self) -> int:
        return self.src.horizon

    def is_module_level(self) -> bool:
        return isinstance(self.src, ModuleComplex)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("chain maps with different endpoints")
        return ChainMap(
            self.src,
            self.dst,
            [a - b for a, b in zip(self.components, other.components)],
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainMap)
            and self.src == other.src
            and self.dst == other.dst
            and self.components == other.components
        )

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"ChainMap(horizon={self.horizon})"


def identity_chain_map(C) -> ChainMap:
    if isinstance(C, ModuleComplex):
        comps = [RationalMatrix.identity(M.dim) for M in C.objects]
    else:
        comps = [RationalMatrix.identity(d) for d in C.dims]
    return ChainMap(C, C, comps)


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    if f.dst != g.src:
        raise ValueError("chain maps do not compose")
    return ChainMap(
        f.src, g.dst, [a @ b for a, b in zip(g.components, f.components)]
    )


class SesOfComplexes:
    """Degreewise short exact sequence of complexes.

    Exactness per degree is equivalent to: the composite vanishes, the
    first map has full column rank, the second full row rank, and the
    middle dimension is the sum of the outer ones.
    """

    __slots__ = ("sub_to_mid", "mid_to_quot")

    def __init__(self, sub_to_mid: ChainMap, mid_to_quot: ChainMap):
        if sub_to_mid.dst != mid_to_quot.src:
            raise ValueError("middle complexes disagree")
        for p in range(sub_to_mid.horizon + 1):
            i = sub_to_mid.components[p]
            q = mid_to_quot.components[p]
            if not (q @ i).is_zero():
                raise ValueError(f"composite is nonzero in degree {p}")
            if rank(i) != i.ncols:
                raise ValueError(f"sub map is not injective in degree {p}")
            if rank(q) != q.nrows:
                raise ValueError(f"quot map is not surjective in degree {p}")
            if i.ncols + q.nrows != i.nrows:
                raise ValueError(f"dimensions do not add up in degree {p}")
        self.sub_to_mid = sub_to_mid
        self.mid_to_quot = mid_to_quot

    @property
    def sub(self):
        return self.sub_to_mid.src

    @property
    def mid(self):
        return self.sub_to_mid.dst

    @property
    def quot(self):
        return self.mid_to_quot.dst

    def __repr__(self):
        return f"SesOfComplexes(horizon={self.sub.horizon})"


# ---------------------------------------------------------------------------
# Cohomology presentations.

class CohomologyPresentation:
    """H^n = ker d(n) / im d(n-1) with explicit chosen representatives.

    cocycles is the canonical basis of ker d(n) inside the degree-n
    chain group; the quotient presentation lives in cocycle
    coordinates.  Representatives are deterministic, so two complexes
    with equal matrices in degrees n-1, n, n+1 get equal presentations.
    """

    __slots__ = ("degree", "ambient_dim", "cocycles", "presentation")

    def __init__(self, degree, ambient_dim, cocycles, presentation):
        self.degree = degree
        self.ambient_dim = ambient_dim
        self.cocycles = cocycles
        self.presentation = presentation

    @property
    def dim(self) -> int:
        return self.presentation.dim

    def representatives(self) -> RationalMatrix:
        """Representative cocycles as columns in the chain group."""
        return self.cocycles.basis @ self.presentation.representative_basis

    def project_columns(self, M: RationalMatrix) -> RationalMatrix:
        """Classes of the given cocycle columns, as quotient coordinates."""
        coords = self.cocycles.express_columns(M)
        if coords is NoSolution:
            raise ChaseFailure("vector is not a cocycle")
        return self.presentation.reduce_columns(coords)

    def project(self, vec: Sequence) -> tuple:
        return self.project_columns(RationalMatrix.column_vector(vec)).column(0)

    def same_presentation(self, other: "CohomologyPresentation") -> bool:
        """Equality of the coordinate data, ignoring the degree label.

        Two complexes sharing the matrices around some degree produce
        literally interchangeable presentations there.
        """
        return (
            self.ambient_dim == other.ambient_dim
            and self.cocycles == other.cocycles
            and self.presentation == other.presentation
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohomologyPresentation)
            and self.degree == other.degree
            and self.same_presentation(other)
        )

    def __hash__(self):
        return hash((self.degree, self.ambient_dim, self.cocycles))

    def __repr__(self):
        return f"CohomologyPresentation(degree={self.degree}, dim={self.dim})"


@functools.lru_cache(maxsize=MEMO_SIZE)
def cohomology(C: VectorComplex, n: int) -> CohomologyPresentation:
    """Present H^n(C).  Degrees 0 <= n <= horizon; d(-1) = 0.

    At n = horizon the complex is read as genuinely bounded, d(n) = 0;
    for a truncated resolution that degree is an artifact, so callers
    stay below the horizon there.
    """
    if not 0 <= n <= C.horizon:
        raise ValueError("degree out of range")
    ambient = C.dims[n]
    if n < C.horizon:
        Z = Subspace.from_columns(kernel_basis(C.differentials[n]))
    else:
        Z = Subspace.full(ambient)
    if n == 0:
        coords = RationalMatrix.zeros(Z.dim, 0)
    else:
        coords = Z.express_columns(C.differentials[n - 1])
        if coords is NoSolution:
            raise ChaseFailure("boundaries are not cocycles")
    pres = quotient(Z.dim, Subspace.from_columns(coords))
    return CohomologyPresentation(n, ambient, Z, pres)


def induced_on_cohomology(f: ChainMap, n: int) -> RationalMatrix:
    """Matrix of H^n(f) between the chosen presentations.

    Raises WellDefinednessFailure (from the quotient machinery) if the
    map fails to preserve boundaries, which cannot happen for an actual
    chain map.
    """
    if f.is_module_level():
        raise ValueError("induced maps on cohomology are for vector complexes")
    src = cohomology(f.src, n)
    dst = cohomology(f.dst, n)
    mapped = f.components[n] @ src.cocycles.basis
    coords = dst.cocycles.express_columns(mapped)
    if coords is NoSolution:
        raise ChaseFailure("chain map does not preserve cocycles")
    return induced_map(src.presentation, dst.presentation, coords)


# ---------------------------------------------------------------------------
# Applying F = Hom(A, -).

@functools.lru_cache(maxsize=MEMO_SIZE)
def apply_F_complex(F: FunctorSpec, C: ModuleComplex) -> VectorComplex:
    return VectorComplex(
        [apply_F_object(F, M).dim for M in C.objects],
        [apply_F_map(F, d) for d in C.differentials],
    )


def apply_F_chain_map(F: FunctorSpec, f: ChainMap) -> ChainMap:
    if not f.is_module_level():
        raise ValueError("can only apply the functor to module-level chain maps")
    comps = [
        apply_F_map(F, ModuleMap(f.src.objects[p], f.dst.objects[p], f.components[p]))
        for p in range(f.horizon + 1)
    ]
    return ChainMap(apply_F_complex(F, f.src), apply_F_complex(F, f.dst), comps)


def apply_F_ses(F: FunctorSpec, S: SesOfComplexes) -> SesOfComplexes:
    """F of a degreewise split short exact sequence of module complexes.

    Additive functors preserve split exactness degree by degree, and
    the constructor re-checks exactness of the image, so a non-split
    input that breaks exactness fails loudly.
    """
    return SesOfComplexes(
        apply_F_chain_map(F, S.sub_to_mid), apply_F_chain_map(F, S.mid_to_quot)
    )


# ---------------------------------------------------------------------------
# Connecting homomorphism.

def _random_combination(basis: RationalMatrix, width: int, rng: random.Random) -> RationalMatrix:
    coeffs = RationalMatrix(
        [[Rat(rng.randint(-3, 3)) for _ in range(width)] for _ in range(basis.ncols)],
        width,
    )
    return basis @ coeffs


def _chase(
    E: SesOfComplexes,
    i: int,
    cocycles: Optional[RationalMatrix],
    rng: Optional[random.Random],
) -> RationalMatrix:
    """Chase quotient cocycles (columns) in degree i to sub cocycles in
    degree i+1: lift through the epimorphism, apply the middle
    differential, pull back through the monomorphism.  cocycles=None
    chases the chosen representatives of H^i(quot).  With rng given and
    at least one column, the lifts are shifted by random kernel
    elements."""
    if E.sub_to_mid.is_module_level():
        raise ValueError("the chase runs on vector complexes")
    if not 0 <= i < E.sub.horizon:
        raise ValueError("degree out of range for the connecting map")
    if cocycles is None:
        cocycles = cohomology(E.quot, i).representatives()
    pi = E.mid_to_quot.components[i]
    lifts = solve_matrix(pi, cocycles)
    if lifts is NoSolution:
        raise ChaseFailure("cannot lift through the epimorphism")
    if rng is not None and lifts.ncols:
        null = kernel_basis(pi)
        if null.ncols:
            lifts = lifts + _random_combination(null, lifts.ncols, rng)
    moved = E.mid.differentials[i] @ lifts
    pulled = solve_matrix(E.sub_to_mid.components[i + 1], moved)
    if pulled is NoSolution:
        raise ChaseFailure("cannot pull back through the monomorphism")
    return pulled


def snake_delta_matrix(
    E: SesOfComplexes, i: int, rng: Optional[random.Random] = None
) -> RationalMatrix:
    """Connecting map H^i(quot) -> H^(i+1)(sub) of a vector-level SES.

    Chase: lift representatives through the epimorphism, apply the
    middle differential, pull back through the monomorphism.  With rng
    given, the lift is shifted by random kernel elements; the induced
    classes do not change (verified in tests, not assumed here).
    """
    pulled = _chase(E, i, None, rng)
    return cohomology(E.sub, i + 1).project_columns(pulled)


def snake_delta_class(
    E: SesOfComplexes, i: int, cocycle: Sequence, rng: Optional[random.Random] = None
) -> tuple:
    """Chase a single quotient-complex cocycle through the sequence.

    Returns a representative cocycle of the connecting image in the sub
    complex at degree i+1, well defined up to coboundary; project it
    through cohomology(E.sub, i+1) for the class itself.
    """
    return _chase(E, i, RationalMatrix.column_vector(cocycle), rng).column(0)


# ---------------------------------------------------------------------------
# Chain homotopies.

def find_homotopy(f: ChainMap, g: ChainMap, rng: Optional[random.Random] = None):
    """Search for h with f - g = d o h + h o d, degree by degree.

    Returns components h(p): src^p -> dst^(p-1) for p = 0..horizon
    (h(0) maps to the zero space), satisfying the homotopy equation in
    every degree below the horizon; the top-degree equation would need
    a component beyond the horizon.  Returns NotHomotopic when some
    step is unsolvable.  Module-level pairs are lifted against
    injective targets, so components intertwine; vector-level pairs
    use plain solving.
    """
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("chain maps with different endpoints")
    e = f - g
    src, dst = f.src, f.dst
    src_d, dst_d = _matrices(src), _matrices(dst)
    h = [RationalMatrix.zeros(0, e.components[0].ncols)]
    for p in range(src.horizon):
        # Solve h(p+1) o d(p) = r, the part of f - g that d o h(p) leaves.
        r = e.components[p] - dst_d[p - 1] @ h[p] if p else e.components[0]
        if f.is_module_level():
            if not is_injective(dst.objects[p]):
                raise ChaseFailure(
                    "module-level homotopy needs injective targets below the horizon"
                )
            d = src.differentials[p]
            if not (r @ kernel_basis(d.matrix)).is_zero():
                return NotHomotopic
            h.append(extend_along_mono(d, ModuleMap(d.src, dst.objects[p], r), rng).matrix)
            continue
        dT = src_d[p].transpose()
        sol = solve_matrix(dT, r.transpose())
        if sol is NoSolution:
            return NotHomotopic
        nxt = sol.transpose()
        if rng is not None:
            null = kernel_basis(dT)
            if null.ncols:
                nxt = nxt + _random_combination(null, nxt.nrows, rng).transpose()
        h.append(nxt)
    return h


def homotopy_defect(f: ChainMap, g: ChainMap, h: Sequence[RationalMatrix], degree: int) -> RationalMatrix:
    """(f - g) - (d o h + h o d) in one degree; zero when h works there."""
    src_d, dst_d = _matrices(f.src), _matrices(f.dst)
    e = f.components[degree] - g.components[degree]
    if degree > 0:
        e = e - dst_d[degree - 1] @ h[degree]
    if degree < f.src.horizon:
        e = e - h[degree + 1] @ src_d[degree]
    return e
