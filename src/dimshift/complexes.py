"""Bounded cochain complexes in degrees [0, horizon].

A VectorComplex is dims per degree and rational matrices as
differentials; its constructor is the one place that checks the
shapes and d o d = 0.  A ModuleComplex is a VectorComplex that also
carries a module over k[x]/(x^m) in each degree and the module maps
whose matrices are its differentials; applying Hom(A, -) to it gives
a plain VectorComplex.  Cohomology is presented with explicit
cocycle bases and chosen representatives so that every induced map is
a concrete matrix, compared entrywise with no tolerance.

The connecting map of a degreewise short exact sequence of complexes
is computed by the usual chase: lift through the epimorphism, apply
the differential, pull back through the monomorphism.  No sign is
introduced by the chase itself.
"""

from __future__ import annotations

import functools
import random
from collections import namedtuple
from typing import Optional, Sequence

from .linalg import (
    RationalMatrix,
    Subspace,
    VerificationFailure,
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


class VectorComplex(namedtuple("VectorComplex", "dims differentials")):
    """Rational cochain complex: dims per degree, d(p): C^p -> C^(p+1).

    The one place where a complex is checked: one differential per
    adjacent pair of degrees, each of the right shape, and d o d = 0.
    """

    __slots__ = ()

    def __new__(cls, dims: Sequence[int], differentials: Sequence[RationalMatrix]):
        return super().__new__(cls, tuple(dims), tuple(differentials))

    def __init__(self, *fields):
        self._check(0)

    def _check(self, start: int) -> None:
        """Check degrees start..horizon and trust the ones below.  Each
        check belongs to the highest degree it reads: a differential's
        shape and d o d to the degree they land in."""
        dims, differentials = self.dims, self.differentials
        if len(differentials) != len(dims) - 1:
            raise ValueError("need exactly one differential per adjacent pair")
        for p in range(max(start - 1, 0), len(differentials)):
            d = differentials[p]
            if (d.nrows, d.ncols) != (dims[p + 1], dims[p]):
                raise ValueError(f"differential {p} has the wrong shape")
        for p in range(max(start - 2, 0), len(differentials) - 1):
            if not (differentials[p + 1] @ differentials[p]).is_zero():
                raise VerificationFailure(f"d o d is nonzero in degree {p}")

    @property
    def horizon(self) -> int:
        return len(self.dims) - 1

    def slice(self, lo: int, hi: int):
        """Degrees lo..hi as a complex of the same kind: a per-degree
        field keeps lo..hi, a per-edge field lo..hi-1.  This complex
        passed its constructor, so the slice is built with no second
        check."""
        if not 0 <= lo <= hi <= self.horizon:
            raise ValueError("slice out of range")
        return self._make(part[lo : hi + (len(part) > self.horizon)] for part in self)

    def truncate(self, horizon: int):
        return self.slice(0, horizon)

    def __repr__(self):
        return f"{type(self).__name__}(dims={list(self.dims)})"


class ModuleComplex(namedtuple("ModuleComplex", "dims differentials objects maps"), VectorComplex):
    """Cochain complex of modules: the vector complex of its differential
    matrices, plus the modules in each degree and the intertwining maps."""

    __slots__ = ()

    def __new__(cls, objects: Sequence[LambdaModule], maps: Sequence[ModuleMap]):
        objects, maps = tuple(objects), tuple(maps)
        dims = tuple(M.dim for M in objects)
        return super().__new__(cls, dims, tuple(d.matrix for d in maps), objects, maps)

    def _check(self, start: int) -> None:
        lo = max(start - 1, 0)
        steps = zip(self.maps[lo:], self.objects[lo:], self.objects[lo + 1 :])
        for p, (d, A, B) in enumerate(steps, lo):
            if d.src != A or d.dst != B:
                raise ValueError(f"differential {p} has the wrong endpoints")
        VectorComplex._check(self, start)

    __repr__ = VectorComplex.__repr__


class ChainMap(namedtuple("ChainMap", "src dst components maps")):
    """Degreewise map of complexes commuting with the differentials.

    Both endpoints must be the same kind of complex with the same
    horizon.  Between vector complexes the components are matrices and
    maps is None; between module complexes maps are the module maps,
    each checked to intertwine when it was made, and the components
    their matrices.
    """

    __slots__ = ()

    def __new__(cls, src, dst, components: Sequence):
        maps = None
        components = tuple(components)
        if type(src) is type(dst) is ModuleComplex:
            maps, components = components, tuple(g.matrix for g in components)
        return super().__new__(cls, src, dst, components, maps)

    def __init__(self, src, dst, components: Sequence):
        self._check(0)

    def _check(self, start: int) -> None:
        """Check degrees start..horizon, trusting the ones below: each
        component's endpoints and shape, and the squares into them."""
        src, dst, components, maps = self
        if type(src) is not type(dst):
            raise ValueError("chain map endpoints must be the same kind of complex")
        if src.horizon != dst.horizon:
            raise ValueError("chain map endpoints must share a horizon")
        if len(components) != src.horizon + 1:
            raise ValueError("need one component per degree")
        for p in range(start, len(maps or ())):
            if maps[p].src != src.objects[p] or maps[p].dst != dst.objects[p]:
                raise ValueError(f"component {p} has the wrong endpoints")
        for p in range(start, len(components)):
            if (components[p].nrows, components[p].ncols) != (dst.dims[p], src.dims[p]):
                raise ValueError(f"component {p} has the wrong shape")
        for p in range(max(start - 1, 0), src.horizon):
            if components[p + 1] @ src.differentials[p] != dst.differentials[p] @ components[p]:
                raise VerificationFailure(f"square at degree {p} does not commute")

    @property
    def horizon(self) -> int:
        return self.src.horizon

    def is_module_level(self) -> bool:
        return self.maps is not None

    def __repr__(self):
        return f"ChainMap(horizon={self.horizon})"


class SesOfComplexes(namedtuple("SesOfComplexes", "sub_to_mid mid_to_quot")):
    """Degreewise short exact sequence of complexes.

    Exactness per degree is equivalent to: the composite vanishes, the
    first map has full column rank, the second full row rank, and the
    middle dimension is the sum of the outer ones.
    """

    __slots__ = ()

    def __init__(self, sub_to_mid: ChainMap, mid_to_quot: ChainMap):
        self._check(0)

    def _check(self, start: int) -> None:
        """Check exactness in degrees start..horizon, trusting the ones below."""
        sub_to_mid, mid_to_quot = self
        if sub_to_mid.dst != mid_to_quot.src:
            raise ValueError("middle complexes disagree")
        for p in range(start, self.horizon + 1):
            i = sub_to_mid.components[p]
            q = mid_to_quot.components[p]
            if not (q @ i).is_zero():
                raise VerificationFailure(f"composite is nonzero in degree {p}")
            if rank(i) != i.ncols:
                raise VerificationFailure(f"sub map is not injective in degree {p}")
            if rank(q) != q.nrows:
                raise VerificationFailure(f"quot map is not surjective in degree {p}")
            if i.ncols + q.nrows != i.nrows:
                raise VerificationFailure(f"dimensions do not add up in degree {p}")

    @property
    def horizon(self) -> int:
        return self.sub_to_mid.horizon

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
        return f"SesOfComplexes(horizon={self.horizon})"


def grow(record, *fields):
    """A record of record's kind from fields that continue its own by
    later degrees.  record passed its checks, so only the checks that
    belong to the degrees past its horizon run: those of the new
    degrees, and the seam where they land on the old ones."""
    grown = type(record).__new__(type(record), *fields)
    grown._check(record.horizon + 1)
    return grown


# ---------------------------------------------------------------------------
# Cohomology presentations.

class CohomologyPresentation(namedtuple(
    "CohomologyPresentation", "degree ambient_dim cocycles presentation"
)):
    """H^n = ker d(n) / im d(n-1) with explicit chosen representatives.

    cocycles is the canonical basis of ker d(n) inside the degree-n
    chain group; the quotient presentation lives in cocycle
    coordinates.  Representatives are deterministic, so two complexes
    with equal matrices in degrees n-1, n, n+1 get equal presentations.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.presentation.dim

    def representatives(self) -> RationalMatrix:
        """Representative cocycles as columns in the chain group."""
        return self.cocycles.basis @ self.presentation.representative_basis

    def project_columns(self, M: RationalMatrix) -> RationalMatrix:
        """Classes of the given cocycle columns, as quotient coordinates."""
        coords = self.cocycles.express_columns(M)
        if coords is None:
            raise VerificationFailure("vector is not a cocycle")
        return self.presentation.reduce_columns(coords)

    def same_presentation(self, other: "CohomologyPresentation") -> bool:
        """Equality of the coordinate data, ignoring the degree label.

        Two complexes sharing the matrices around some degree produce
        literally interchangeable presentations there.
        """
        return self[1:] == other[1:]

    def __repr__(self):
        return f"CohomologyPresentation(degree={self.degree}, dim={self.dim})"


def cohomology(C: VectorComplex, n: int) -> CohomologyPresentation:
    """Present H^n(C).  Degrees 0 <= n <= horizon; d(-1) = 0.

    At n = horizon the complex is read as genuinely bounded, d(n) = 0;
    for a truncated resolution that degree is an artifact, so callers
    stay below the horizon there.  Memoized on what it reads: n, C^n's
    dimension and the differentials into and out of C^n.
    """
    if not 0 <= n <= C.horizon:
        raise ValueError("degree out of range")
    d = C.differentials
    return _cohomology(n, C.dims[n], d[n - 1] if n else None, d[n] if n < C.horizon else None)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _cohomology(n: int, ambient: int, incoming, outgoing) -> CohomologyPresentation:
    """H^n where the matrices incoming and outgoing meet, in a space of
    dimension ambient; None stands for a zero differential."""
    Z = Subspace.full(ambient) if outgoing is None else Subspace.from_columns(kernel_basis(outgoing))
    coords = RationalMatrix.zeros(Z.dim, 0) if incoming is None else Z.express_columns(incoming)
    if coords is None:
        raise VerificationFailure("boundaries are not cocycles")
    return CohomologyPresentation(n, ambient, Z, quotient(Z.dim, Subspace.from_columns(coords)))


def induced_on_cohomology(f: ChainMap, n: int) -> RationalMatrix:
    """Matrix of H^n(f) between the chosen presentations.

    Raises VerificationFailure (from the quotient machinery) if the
    map fails to preserve boundaries, which cannot happen for an actual
    chain map.
    """
    if f.is_module_level():
        raise ValueError("induced maps on cohomology are for vector complexes")
    src = cohomology(f.src, n)
    dst = cohomology(f.dst, n)
    mapped = f.components[n] @ src.cocycles.basis
    coords = dst.cocycles.express_columns(mapped)
    if coords is None:
        raise VerificationFailure("chain map does not preserve cocycles")
    return induced_map(src.presentation, dst.presentation, coords)


# ---------------------------------------------------------------------------
# Applying F = Hom(A, -).

@functools.lru_cache(maxsize=MEMO_SIZE)
def apply_F_complex(F: FunctorSpec, C: ModuleComplex) -> VectorComplex:
    return VectorComplex(
        [apply_F_object(F, M).dim for M in C.objects],
        [apply_F_map(F, d) for d in C.maps],
    )


def apply_F_chain_map(F: FunctorSpec, f: ChainMap) -> ChainMap:
    if not f.is_module_level():
        raise ValueError("can only apply the functor to module-level chain maps")
    return ChainMap(
        apply_F_complex(F, f.src),
        apply_F_complex(F, f.dst),
        [apply_F_map(F, g) for g in f.maps],
    )


def apply_F_ses(F: FunctorSpec, S: SesOfComplexes, prefix=None) -> SesOfComplexes:
    """F of a degreewise split short exact sequence of module complexes.

    Additive functors preserve split exactness degree by degree, and
    the constructor re-checks exactness of the image, so a non-split
    input that breaks exactness fails loudly.  prefix, the F-image of S
    through a lower horizon, is continued: F is applied to the new
    degrees only, and only they and the seam are checked.
    """
    if prefix is None:
        return SesOfComplexes(*(apply_F_chain_map(F, f) for f in S))
    k = prefix.horizon + 1

    def side(FC, C):
        dims = FC.dims + tuple(apply_F_object(F, M).dim for M in C.objects[k:])
        return grow(FC, dims, FC.differentials + tuple(apply_F_map(F, d) for d in C.maps[k - 1 :]))

    # The two chain maps run sub -> mid and mid -> quot.
    ends = [side(prefix.sub, S.sub), side(prefix.mid, S.mid), side(prefix.quot, S.quot)]
    return grow(prefix, *(
        grow(Ff, src, dst, Ff.components + tuple(apply_F_map(F, g) for g in f.maps[k:]))
        for Ff, f, src, dst in zip(prefix, S, ends, ends[1:])
    ))


# ---------------------------------------------------------------------------
# Connecting homomorphism.

def snake_delta_matrix(
    E: SesOfComplexes, i: int, rng: Optional[random.Random] = None
) -> RationalMatrix:
    """Connecting map H^i(quot) -> H^(i+1)(sub) of a vector-level SES.

    Chase: lift the chosen representatives of H^i(quot) through the
    epimorphism, apply the middle differential, pull back through the
    monomorphism.  With rng given, the lifts are drawn at random from
    their solution space; the induced classes do not change (verified
    in tests, not assumed here).
    """
    if E.sub_to_mid.is_module_level():
        raise ValueError("the chase runs on vector complexes")
    if not 0 <= i < E.sub.horizon:
        raise ValueError("degree out of range for the connecting map")
    cocycles = cohomology(E.quot, i).representatives()
    lifts = solve_matrix(E.mid_to_quot.components[i], cocycles, rng)
    if lifts is None:
        raise VerificationFailure("cannot lift through the epimorphism")
    moved = E.mid.differentials[i] @ lifts
    pulled = solve_matrix(E.sub_to_mid.components[i + 1], moved)
    if pulled is None:
        raise VerificationFailure("cannot pull back through the monomorphism")
    return cohomology(E.sub, i + 1).project_columns(pulled)


# ---------------------------------------------------------------------------
# Chain homotopies.

def find_homotopy(f: ChainMap, g: ChainMap, rng: Optional[random.Random] = None):
    """Search for h with f - g = d o h + h o d, degree by degree.

    Returns components h(p): src^p -> dst^(p-1) for p = 0..horizon
    (h(0) maps to the zero space), satisfying the homotopy equation in
    every degree below the horizon; the top-degree equation would need
    a component beyond the horizon.  Returns None when some step is
    unsolvable.  Module-level pairs are lifted against injective
    targets, so components intertwine; vector-level pairs use plain
    solving.
    """
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("chain maps with different endpoints")
    e = [a - b for a, b in zip(f.components, g.components)]
    src, dst = f.src, f.dst
    h = [RationalMatrix.zeros(0, e[0].ncols)]
    for p in range(src.horizon):
        # Solve h(p+1) o d(p) = r, the part of f - g that d o h(p) leaves.
        r = e[p] - dst.differentials[p - 1] @ h[p] if p else e[0]
        if f.is_module_level():
            if not is_injective(dst.objects[p]):
                raise VerificationFailure(
                    "module-level homotopy needs injective targets below the horizon"
                )
            d = src.maps[p]
            if not (r @ kernel_basis(d.matrix)).is_zero():
                return None
            h.append(extend_along_mono(d, ModuleMap(d.src, dst.objects[p], r), rng).matrix)
            continue
        sol = solve_matrix(src.differentials[p].transpose(), r.transpose(), rng)
        if sol is None:
            return None
        h.append(sol.transpose())
    return h


def homotopy_defect(f: ChainMap, g: ChainMap, h: Sequence[RationalMatrix], degree: int) -> RationalMatrix:
    """(f - g) - (d o h + h o d) in one degree; zero when h works there."""
    e = f.components[degree] - g.components[degree]
    if degree > 0:
        e = e - f.dst.differentials[degree - 1] @ h[degree]
    if degree < f.src.horizon:
        e = e - h[degree + 1] @ f.src.differentials[degree]
    return e
