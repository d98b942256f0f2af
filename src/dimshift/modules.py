"""Finite-dimensional modules over the truncated algebra k[x]/(x^m), k = Q.

A module is a rational vector space with a nilpotent operator X
satisfying X^m = 0; a map of modules is a matrix intertwining the two
operators.  Every module decomposes into cyclic blocks k[x]/(x^j) with
j <= m (nilpotent canonical form), the injective objects are exactly
the free ones (all blocks of size m), and Hom spaces have an explicit
basis read off from the block decompositions of source and target.

The covariant left-exact functor under study is F = Hom(A, -) for a
fixed module A.  Its values are plain vector spaces; apply_F_object
fixes a deterministic basis once per (A, M) pair and apply_F_map
expresses post-composition in those bases.
"""

from __future__ import annotations

import functools
import random
from itertools import accumulate
from collections import namedtuple
from typing import Optional, Sequence

from .linalg import (
    NoSolution,
    RationalMatrix,
    Subspace,
    VerificationFailure,
    inverse,
    kernel_basis,
    quotient,
    rank,
    rref,
    solve_matrix,
)


# Entries each content-keyed memo (canonical forms, Hom bases, F of a
# map, image factorizations, direct sums, rng-free extensions,
# F-complexes, cohomology, and a registry's resolutions and connecting
# maps) keeps before it evicts the least recently used.
MEMO_SIZE = 256


class TruncatedAlgebra(namedtuple("TruncatedAlgebra", "m")):
    """The algebra k[x]/(x^m) over k = Q.  Needs m >= 2."""

    __slots__ = ()

    def __new__(cls, m: int):
        if m < 2:
            raise ValueError("truncation exponent must be at least 2")
        return super().__new__(cls, m)


class LambdaModule(namedtuple("LambdaModule", "algebra dim X")):
    """A module (V, X) over k[x]/(x^m): dim(V) = dim, X^m = 0.

    Equality and hashing use the fields (algebra, dim, X), so
    structurally identical modules are interchangeable as cache and
    registry keys.
    """

    __slots__ = ()

    def __new__(cls, algebra: TruncatedAlgebra, X: RationalMatrix):
        return super().__new__(cls, algebra, X.nrows, X)

    def __init__(self, algebra: TruncatedAlgebra, X: RationalMatrix):
        if X.nrows != X.ncols:
            raise ValueError("operator matrix must be square")
        power = X
        for _ in range(algebra.m - 1):
            power = power @ X
        if not power.is_zero():
            raise VerificationFailure("operator is not nilpotent of the required order")

    def __repr__(self):
        return f"LambdaModule(m={self.algebra.m}, dim={self.dim})"


def _shift_blocks(sizes: Sequence[int], total: int) -> RationalMatrix:
    """X of the cyclic blocks of the given sizes: each block's basis
    vectors go one to the next, and the last to zero.  Column total of
    the identity of size total + 1 is zero in rows 0..total-1."""
    cols = []
    off = 0
    for j in sizes:
        off += j
        cols += range(off - j + 1, off)
        cols.append(total)
    return RationalMatrix.identity(total + 1).take(range(total), cols)


def free_module(algebra: TruncatedAlgebra, blocks: int) -> LambdaModule:
    """Free module of the given rank: blocks copies of the regular module."""
    return LambdaModule(algebra, _shift_blocks([algebra.m] * blocks, algebra.m * blocks))


def simple_module(algebra: TruncatedAlgebra) -> LambdaModule:
    """The one-dimensional module k with X acting as zero."""
    return LambdaModule(algebra, RationalMatrix.zeros(1, 1))


def cyclic_module(algebra: TruncatedAlgebra, length: int) -> LambdaModule:
    """The cyclic module k[x]/(x^length), 1 <= length <= m."""
    if not 1 <= length <= algebra.m:
        raise ValueError("cyclic length out of range")
    return LambdaModule(algebra, _shift_blocks([length], length))


class ModuleMap(namedtuple("ModuleMap", "src dst matrix")):
    """A matrix f with f X_src = X_dst f, acting on column vectors."""

    __slots__ = ()

    def __init__(self, src: LambdaModule, dst: LambdaModule, matrix: RationalMatrix):
        if src.algebra != dst.algebra:
            raise ValueError("maps need a common ground algebra")
        if matrix.nrows != dst.dim or matrix.ncols != src.dim:
            raise ValueError("matrix shape does not match the endpoints")
        if matrix @ src.X != dst.X @ matrix:
            raise VerificationFailure("matrix does not intertwine the operators")

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def is_mono(self) -> bool:
        return rank(self.matrix) == self.src.dim

    def is_epi(self) -> bool:
        return rank(self.matrix) == self.dst.dim

    def __repr__(self):
        return f"ModuleMap({self.src.dim} -> {self.dst.dim})"


def identity_map(M: LambdaModule) -> ModuleMap:
    return ModuleMap(M, M, RationalMatrix.identity(M.dim))

def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    """g o f.  Both factors intertwine, so their product does: it is
    built with no second check."""
    if f.dst != g.src:
        raise ValueError("maps do not compose")
    return ModuleMap._make((f.src, g.dst, g.matrix @ f.matrix))


class SesModules(namedtuple("SesModules", "a_to_c c_to_b")):
    """A short exact sequence 0 -> A -> C -> B -> 0 of modules.

    Given the first map injective and the second surjective, exactness
    at C is: the composite vanishes and dim C = dim A + dim B.
    """

    __slots__ = ()

    def __init__(self, a_to_c: ModuleMap, c_to_b: ModuleMap):
        if a_to_c.dst != c_to_b.src:
            raise ValueError("middle objects disagree")
        if not a_to_c.is_mono():
            raise VerificationFailure("first map is not injective")
        if not c_to_b.is_epi():
            raise VerificationFailure("second map is not surjective")
        if (
            not (c_to_b.matrix @ a_to_c.matrix).is_zero()
            or a_to_c.src.dim + c_to_b.dst.dim != a_to_c.dst.dim
        ):
            raise VerificationFailure("not exact at the middle object")

    @property
    def sub(self) -> LambdaModule:
        return self.a_to_c.src

    @property
    def mid(self) -> LambdaModule:
        return self.a_to_c.dst

    @property
    def quot(self) -> LambdaModule:
        return self.c_to_b.dst

    def __repr__(self):
        return (
            f"SesModules({self.sub.dim} -> {self.mid.dim} -> {self.quot.dim})"
        )


# ---------------------------------------------------------------------------
# Nilpotent canonical form.

class CanonicalForm(namedtuple("CanonicalForm", "block_sizes offsets P P_inv shifted")):
    """Block decomposition of a nilpotent operator.

    P's columns list, block by block, the chain v, Xv, ..., X^(j-1)v of
    each cyclic block, so P_inv @ X @ P is the block shift matrix with
    weakly decreasing block sizes.  shifted is True exactly when X
    already is that block shift; then P = P_inv = the identity, and
    callers skip the products with them.
    """

    __slots__ = ()


@functools.lru_cache(maxsize=MEMO_SIZE)
def canonical_form(M: LambdaModule) -> CanonicalForm:
    """Chain basis for the nilpotent operator of M, cached by fingerprint.

    An operator that already is the block shift with weakly decreasing
    sizes, as every free module the package builds is, gets P = the
    identity with no elimination: on it the chain extraction picks the
    first vector of each block, in block order, so it would return the
    same.  Every other operator goes through _extract_chains.
    """
    d, X = M.dim, M.X
    # A nonzero subdiagonal entry continues the block above it; the
    # comparison with _shift_blocks then checks every entry.
    sizes = []
    for i in range(d):
        if i and X.num[i][i - 1]:
            sizes[-1] += 1
        else:
            sizes.append(1)
    if sizes == sorted(sizes, reverse=True) and X == _shift_blocks(sizes, d):
        eye = RationalMatrix.identity(d)
        offsets = tuple(accumulate(sizes, initial=0))[:-1]
        return CanonicalForm(tuple(sizes), offsets, eye, eye, True)
    return _extract_chains(M)


def _extract_chains(M: LambdaModule) -> CanonicalForm:
    """Chain basis for the nilpotent operator of a nonzero module M.

    Chains are extracted highest height first: at each height the
    kernel of X^h is extended past the lower kernel plus the height-h
    tails of the chains already chosen.  Chains of equal length keep
    extraction order, so the result is deterministic.
    """
    d, X = M.dim, M.X
    power = X
    kernels = [Subspace.zero(d), Subspace.from_columns(kernel_basis(X))]
    while kernels[-1].dim < d:
        power = X @ power
        kernels.append(Subspace.from_columns(kernel_basis(power)))
    s = len(kernels) - 1
    chains = []
    for height in range(s, 0, -1):
        # A column is a pivot exactly when it lies outside the span of
        # the columns before it.
        lower = kernels[height - 1].basis
        carried = [ch[len(ch) - height] for ch in chains if len(ch) > height]
        candidates = kernels[height].basis
        _, pivots = rref(RationalMatrix.hstack([lower, *carried, candidates]))
        pivots = set(pivots)
        start = lower.ncols + len(carried)
        if not pivots.issuperset(range(lower.ncols, start)):
            raise VerificationFailure("carried chain vector is dependent")
        for j in range(candidates.ncols):
            if start + j in pivots:
                chain = [candidates.take(range(d), [j])]
                for _ in range(height - 1):
                    chain.append(X @ chain[-1])
                chains.append(chain)
    chains.sort(key=len, reverse=True)
    sizes = tuple(len(ch) for ch in chains)
    if sum(sizes) != d:
        raise VerificationFailure("chain lengths do not add up to the dimension")
    P = RationalMatrix.hstack([v for ch in chains for v in ch])
    try:
        P_inv = inverse(P)
    except ValueError as exc:
        raise VerificationFailure("chain vectors are not a basis") from exc
    if P_inv @ X @ P != _shift_blocks(sizes, d):
        raise VerificationFailure("conjugation does not reach the block shift form")
    offsets = tuple(accumulate(sizes, initial=0))[:-1]
    return CanonicalForm(sizes, offsets, P, P_inv, False)


def is_injective(M: LambdaModule) -> bool:
    """Injective = free here: m * rank(X^(m-1)) = dim."""
    power = M.X
    for _ in range(M.algebra.m - 2):
        power = power @ M.X
    return M.algebra.m * rank(power) == M.dim


def embed_into_injective(M: LambdaModule) -> ModuleMap:
    """A monomorphism from M into a free module.

    Each cyclic block k[x]/(x^j) embeds into the regular module as
    multiplication by x^(m-j); the target is one free block per chain.
    """
    cf = canonical_form(M)
    m = M.algebra.m
    blocks = len(cf.block_sizes)
    E = free_module(M.algebra, blocks)
    # Column offsets[r] + t of the embedding is basis vector r*m + (m-j) + t.
    targets = [r * m + m - j + t for r, j in enumerate(cf.block_sizes) for t in range(j)]
    emb = RationalMatrix.identity(E.dim).take(range(E.dim), targets)
    mono = ModuleMap(M, E, emb if cf.shifted else emb @ cf.P_inv)
    if not mono.is_mono():
        raise VerificationFailure("embedding into the free module is not injective")
    return mono


# ---------------------------------------------------------------------------
# Hom spaces.

class HomBasis(namedtuple("HomBasis", "A B cf_A cf_B slots")):
    """Deterministic basis of Hom(A, B) from the block decompositions.

    A map between cyclic blocks of sizes a and b is determined by the
    image of the source generator, which can be x^(b-c+t) times the
    target generator for t = 0..c-1, c = min(a, b).  Basis elements are
    ordered by (source block, target block, t), and slot i records
    (r, row, k): source block r, the row of B's canonical coordinates
    where the image of r's generator starts, and the length k = c - t
    of the chain it spans from there.  Coordinates of an intertwiner
    are read off directly from its matrix conjugated into canonical
    coordinates.
    """

    __slots__ = ()

    def __new__(cls, A: LambdaModule, B: LambdaModule):
        cf_A = canonical_form(A)
        cf_B = canonical_form(B)
        slots = tuple(
            (r, off + b - k, k)
            for r, a in enumerate(cf_A.block_sizes)
            for off, b in zip(cf_B.offsets, cf_B.block_sizes)
            for k in range(min(a, b), 0, -1)
        )
        return super().__new__(cls, A, B, cf_A, cf_B, slots)

    @property
    def dim(self) -> int:
        return len(self.slots)

    def element(self, idx: int) -> RationalMatrix:
        """The idx-th basis intertwiner A -> B as an explicit matrix:
        P_B's chain columns row..row+k-1 times P_A_inv's first k rows
        of block r."""
        r, row, k = self.slots[idx]
        src = self.cf_A.offsets[r]
        chain = self.cf_B.P.take(range(self.B.dim), range(row, row + k))
        return chain @ self.cf_A.P_inv.take(range(src, src + k), range(self.A.dim))

    def coordinates(self, h: RationalMatrix) -> tuple:
        """Coordinates of an intertwiner h: A -> B in this basis."""
        G = self.cf_B.P_inv @ (h @ self.cf_A.P)
        return tuple(G.entry(row, self.cf_A.offsets[r]) for r, row, _ in self.slots)

    def rows_of(self, r: int) -> list:
        """The canonical rows of B that source block r's slots start at."""
        return [row for r2, row, _ in self.slots if r2 == r]

    def from_coordinates(self, coords: Sequence) -> RationalMatrix:
        total = RationalMatrix.zeros(self.B.dim, self.A.dim)
        for i, c in enumerate(coords):
            if c:
                total = total + self.element(i) * c
        return total


@functools.lru_cache(maxsize=MEMO_SIZE)
def hom_basis(A: LambdaModule, B: LambdaModule) -> HomBasis:
    return HomBasis(A, B)


# ---------------------------------------------------------------------------
# The functor F = Hom(A, -).

class FunctorSpec(namedtuple("FunctorSpec", "algebra source")):
    """The covariant left-exact functor Hom(source, -)."""

    __slots__ = ()

    def __new__(cls, algebra: TruncatedAlgebra, source: LambdaModule):
        if source.algebra != algebra:
            raise ValueError("source module lives over a different algebra")
        return super().__new__(cls, algebra, source)


def apply_F_object(F: FunctorSpec, M: LambdaModule) -> HomBasis:
    """F(M) = Hom(A, M) with its deterministic basis."""
    if M.algebra != F.algebra:
        raise ValueError("module lives over a different algebra")
    return hom_basis(F.source, M)


@functools.lru_cache(maxsize=MEMO_SIZE)
def apply_F_map(F: FunctorSpec, f: ModuleMap) -> RationalMatrix:
    """Matrix of F(f): Hom(A, src) -> Hom(A, dst) in the chosen bases.

    Post-composition keeps the source block of A, so F(f) is block
    diagonal over the blocks of A, and each block is the submatrix of
    P_dst_inv @ f @ P_src on the slot rows of that block.
    """
    src_basis = apply_F_object(F, f.src)
    dst_basis = apply_F_object(F, f.dst)
    G = f.matrix
    if not src_basis.cf_B.shifted:
        G = G @ src_basis.cf_B.P
    if not dst_basis.cf_B.shifted:
        G = dst_basis.cf_B.P_inv @ G
    return RationalMatrix.block_diagonal([
        G.take(dst_basis.rows_of(r), src_basis.rows_of(r))
        for r in range(len(src_basis.cf_A.block_sizes))
    ])


def check_left_exactness(F: FunctorSpec, E: SesModules) -> bool:
    """0 -> F(A) -> F(C) -> F(B) stays exact at F(A) and F(C)."""
    Fi = apply_F_map(F, E.a_to_c)
    Fp = apply_F_map(F, E.c_to_b)
    if kernel_basis(Fi).ncols != 0:
        return False
    return Subspace.from_columns(Fi) == Subspace.from_columns(kernel_basis(Fp))


# ---------------------------------------------------------------------------
# Kernels, cokernels, direct sums.

class Kernel(namedtuple("Kernel", "module inclusion")):
    __slots__ = ()


class Cokernel(namedtuple("Cokernel", "module projection")):
    __slots__ = ()


def kernel_module(f: ModuleMap) -> Kernel:
    """ker f with its inclusion; the kernel is X-stable so X restricts."""
    basis = kernel_basis(f.matrix)
    restricted = solve_matrix(basis, f.src.X @ basis)
    if restricted is NoSolution:
        raise VerificationFailure("kernel is not stable under the operator")
    K = LambdaModule(f.src.algebra, restricted)
    return Kernel(K, ModuleMap(K, f.src, basis))


def cokernel_module(f: ModuleMap) -> Cokernel:
    """coker f = dst / im f with the projection onto chosen representatives."""
    pres = quotient(f.dst.dim, Subspace.from_columns(f.matrix))
    induced_X = pres.reduction_map @ (f.dst.X @ pres.representative_basis)
    Q = LambdaModule(f.dst.algebra, induced_X)
    return Cokernel(Q, ModuleMap(f.dst, Q, pres.reduction_map))


class ImageFactorization(namedtuple("ImageFactorization", "module corestriction inclusion")):
    """f = inclusion o corestriction through the image submodule."""

    __slots__ = ()


@functools.lru_cache(maxsize=MEMO_SIZE)
def image_factorization(f: ModuleMap) -> ImageFactorization:
    """Factor f through its image; the image is X-stable so X restricts."""
    S = Subspace.from_columns(f.matrix)
    restricted = S.express_columns(f.dst.X @ S.basis)
    if restricted is NoSolution:
        raise VerificationFailure("image is not stable under the operator")
    Z = LambdaModule(f.src.algebra, restricted)
    coords = S.express_columns(f.matrix)
    if coords is NoSolution:
        raise VerificationFailure("map escapes its own image basis")
    return ImageFactorization(Z, ModuleMap(f.src, Z, coords), ModuleMap(Z, f.dst, S.basis))


class DirectSum(namedtuple(
    "DirectSum", "module include_left include_right project_left project_right"
)):
    __slots__ = ()


@functools.lru_cache(maxsize=MEMO_SIZE)
def direct_sum(M: LambdaModule, N: LambdaModule) -> DirectSum:
    if M.algebra != N.algebra:
        raise ValueError("summands live over different algebras")
    diag = RationalMatrix.block_diagonal
    S = LambdaModule(M.algebra, diag([M.X, N.X]))
    I_M = RationalMatrix.identity(M.dim)
    I_N = RationalMatrix.identity(N.dim)
    return DirectSum(
        S,
        ModuleMap(M, S, diag([I_M, RationalMatrix.zeros(N.dim, 0)])),
        ModuleMap(N, S, diag([RationalMatrix.zeros(M.dim, 0), I_N])),
        ModuleMap(S, M, diag([I_M, RationalMatrix.zeros(0, N.dim)])),
        ModuleMap(S, N, diag([RationalMatrix.zeros(0, M.dim), I_N])),
    )


# ---------------------------------------------------------------------------
# Extension into free modules.

def extend_along_mono(
    f: ModuleMap, g: ModuleMap, rng: Optional[random.Random] = None
) -> ModuleMap:
    """h with h o f = g, for g into a free (= injective) module.

    Free modules are self-dual here: a map into the regular module is
    the same thing as a plain linear functional (read the top
    coefficient), and a linear functional extends along any linear
    map whose kernel it kills.  Extending those functionals and
    rebuilding gives h, so f need not be injective: g only has to
    vanish on ker f, which a monomorphism satisfies automatically.
    When it does not, the functional system is inconsistent and
    VerificationFailure is raised.  rng, when given, varies the
    extension within its solution space; without one, the extension
    depends only on (f, g) and is memoized on them.
    """
    return _extend(f, g, rng) if rng is not None else _canonical_extension(f, g)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _canonical_extension(f: ModuleMap, g: ModuleMap) -> ModuleMap:
    return _extend(f, g, None)


def _extend(f: ModuleMap, g: ModuleMap, rng: Optional[random.Random]) -> ModuleMap:
    E = g.dst
    C = f.dst
    if f.src != g.src:
        raise ValueError("extension problem endpoints disagree")
    m = E.algebra.m
    cf = canonical_form(E)
    # Injective = free: every block of the canonical form has size m.
    if any(j != m for j in cf.block_sizes):
        raise VerificationFailure("extension target is not injective")
    if E.dim == 0:
        return ModuleMap(C, E, RationalMatrix.zeros(0, C.dim))
    blocks = len(cf.block_sizes)
    # Top-coefficient functionals of each free block, applied to g.
    tops = [off + m - 1 for off in cf.offsets]
    if cf.shifted:
        phi = g.matrix.take(tops, range(g.matrix.ncols))  # blocks x dim(src)
    else:
        phi = cf.P_inv.take(tops, range(E.dim)) @ g.matrix
    # Extend each functional along f: psi @ f = phi.
    psiT = solve_matrix(f.matrix.transpose(), phi.transpose(), rng)
    if psiT is NoSolution:
        raise VerificationFailure("functional extension system is inconsistent")
    psi = psiT.transpose()
    # Rebuild: row m-1-t of block j, in canonical coordinates, is psi_j X^t.
    # Stacked with t descending, that row sits at (m-1-t) * blocks + j.
    rows = [psi]
    for _ in range(m - 1):
        rows.append(rows[-1] @ C.X)
    stacked = RationalMatrix.vstack(rows[::-1])
    order = [u * blocks + j for j in range(blocks) for u in range(m)]
    rebuilt = stacked.take(order, range(C.dim))
    h = ModuleMap(C, E, rebuilt if cf.shifted else cf.P @ rebuilt)
    if h.matrix @ f.matrix != g.matrix:
        raise VerificationFailure("extension does not restrict to the given map")
    return h

