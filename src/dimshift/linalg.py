"""Exact linear algebra over the rationals.

A matrix is stored as integer rows over one common denominator: num, a
tuple of tuples of int, and den, an int > 0.  The form is canonical:
gcd(den, every entry) = 1, so a zero matrix has den 1, and equality and
hashing compare ints only.  Matrices are immutable and act on column
vectors, so composition reads right to left: (A @ B)(v) = A(B(v)).
Every product, sum and elimination runs on ints; elimination is
fraction-free, after Bareiss: a row is updated as p*row - f*pivot_row
and then divided by its content, and each row is divided by its pivot
only when the reduced form is read out.  There is no tolerance
parameter anywhere.

At the boundary entries are Rat values, which is fractions.Fraction,
the package's one scalar type.  The public constructors take them in,
and rows, row, column and entry give them back.

The trust boundary is this module.  The public constructors
(RationalMatrix(...), from_columns, column_vector) coerce every entry
to Rat and reject ragged rows.  Every matrix this module derives from
existing matrices is built by the private RationalMatrix._of, which
takes integer rows and a denominator, coerces nothing and checks
nothing; it only brings the pair to lowest terms.

Subspaces carry a canonical basis in reduced column echelon form: the
topmost nonzero entry of each basis column is 1, those pivot rows are
strictly increasing left to right, and every pivot row is zero in the
other columns.  Canonical bases make subspace equality a plain matrix
comparison and keep every construction deterministic.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction as Rat
from math import gcd, lcm
from typing import Iterable, Optional, Sequence


class Sentinel:
    """A named marker value, falsy like None; compare it by identity."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name

    def __bool__(self):
        return False


NoSolution = Sentinel("NoSolution")


class VerificationFailure(Exception):
    """A broken invariant: a check on mathematical content failed, such
    as d o d = 0, exactness, intertwining or well-definedness.  Bad
    shapes, endpoints and arguments raise ValueError instead."""


def _scaled(num, s: int):
    """Integer rows times the int s."""
    if s == 1:
        return num
    return [[s * x for x in row] for row in num]


def _common(mats) -> tuple:
    """The lcm of the matrices' denominators, and each one's integer
    rows over it."""
    den = lcm(*(m.den for m in mats))
    return den, [_scaled(m.num, den // m.den) for m in mats]


class RationalMatrix:
    """Immutable rational matrix, acting on column vectors, stored as
    integer rows num over one common denominator den > 0 in lowest
    terms."""

    __slots__ = ("nrows", "ncols", "num", "den", "_hash")

    def __init__(self, rows: Iterable[Iterable], ncols: Optional[int] = None):
        rows = [[Rat(x) for x in row] for row in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        # Over the lcm of the reduced denominators the pair is already in
        # lowest terms: a prime of den divides neither the numerator nor
        # the cofactor of the entry whose denominator holds its full power.
        den = lcm(*(x.denominator for row in rows for x in row))
        self.num = tuple(
            tuple(x.numerator * (den // x.denominator) for x in row)
            for row in rows
        )
        self.den = den
        self.nrows = len(rows)
        self.ncols = ncols
        self._hash = None

    @classmethod
    def _of(cls, num: Iterable[Sequence], ncols: int, den: int = 1) -> "RationalMatrix":
        """Trusted construction from integer rows, each ncols wide, over
        the denominator den > 0.  Nothing is coerced or checked, so only
        this module calls it, on ints its own arithmetic produced; the
        pair is brought to lowest terms."""
        M = object.__new__(cls)
        num = tuple(map(tuple, num))
        if den != 1:
            g = den
            for row in num:
                g = gcd(g, *row)
                if g == 1:
                    break
            if g != 1:
                den //= g
                num = tuple(tuple(x // g for x in row) for row in num)
        M.num = num
        M.den = den
        M.nrows = len(num)
        M.ncols = ncols
        M._hash = None
        return M

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls._of(((0,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of([(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], nrows: int) -> "RationalMatrix":
        if any(len(col) != nrows for col in columns):
            raise ValueError("column length does not match nrows")
        return cls(
            [[col[i] for col in columns] for i in range(nrows)], len(columns)
        )

    @classmethod
    def column_vector(cls, vec: Sequence) -> "RationalMatrix":
        return cls([[x] for x in vec], 1)

    @classmethod
    def hstack(cls, mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        if not mats:
            raise ValueError("hstack of nothing")
        nrows = mats[0].nrows
        if any(m.nrows != nrows for m in mats):
            raise ValueError("hstack: row counts differ")
        den, nums = _common(mats)
        return cls._of(
            [[x for num in nums for x in num[i]] for i in range(nrows)],
            sum(m.ncols for m in mats),
            den,
        )

    @classmethod
    def vstack(cls, mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        if not mats:
            raise ValueError("vstack of nothing")
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise ValueError("vstack: column counts differ")
        den, nums = _common(mats)
        return cls._of([row for num in nums for row in num], ncols, den)

    @classmethod
    def block(cls, grid: Sequence[Sequence["RationalMatrix"]]) -> "RationalMatrix":
        return cls.vstack([cls.hstack(list(row)) for row in grid])

    @classmethod
    def block_diagonal(cls, mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        """The blocks down the diagonal, zero elsewhere.  A 0 x k block
        adds k zero columns and a k x 0 block adds k zero rows."""
        den, nums = _common(mats)
        ncols = sum(m.ncols for m in mats)
        rows = []
        left = 0
        for m, num in zip(mats, nums):
            right = ncols - left - m.ncols
            rows.extend([0] * left + list(row) + [0] * right for row in num)
            left += m.ncols
        return cls._of(rows, ncols, den)

    def take(self, rows: Sequence[int], cols: Sequence[int]) -> "RationalMatrix":
        """The submatrix on the given row and column indices, in the
        order given; an index may repeat."""
        num = self.num
        return RationalMatrix._of(
            [[num[i][j] for j in cols] for i in rows], len(cols), self.den
        )

    @property
    def rows(self) -> tuple:
        """The entries as Rat values, one tuple per row."""
        den = self.den
        return tuple(tuple(Rat(x, den) for x in row) for row in self.num)

    def entry(self, i: int, j: int) -> Rat:
        return Rat(self.num[i][j], self.den)

    def row(self, i: int) -> tuple:
        den = self.den
        return tuple(Rat(x, den) for x in self.num[i])

    def column(self, j: int) -> tuple:
        den = self.den
        return tuple(Rat(row[j], den) for row in self.num)

    def transpose(self) -> "RationalMatrix":
        if not self.num:
            return RationalMatrix.zeros(self.ncols, 0)
        return RationalMatrix._of(zip(*self.num), self.nrows, self.den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        orows = other.num
        zero = (0,) * other.ncols
        out = []
        for row in self.num:
            # Operands are sparse: add up the rows of other that row picks,
            # in one pass, starting from the first as it is.
            acc = None
            for k, a in enumerate(row):
                if not a:
                    continue
                r = orows[k]
                if acc is None:
                    acc = r if a == 1 else [a * y for y in r]
                elif a == 1:
                    acc = [x + y for x, y in zip(acc, r)]
                else:
                    acc = [x + a * y for x, y in zip(acc, r)]
            out.append(zero if acc is None else acc)
        return RationalMatrix._of(out, other.ncols, self.den * other.den)

    def __mul__(self, scalar) -> "RationalMatrix":
        s = Rat(scalar)
        return RationalMatrix._of(
            _scaled(self.num, s.numerator),
            self.ncols,
            self.den * s.denominator,
        )

    __rmul__ = __mul__

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        den, (a, b) = _common((self, other))
        return RationalMatrix._of(
            [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)],
            self.ncols,
            den,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(
            [[-x for x in row] for row in self.num], self.ncols, self.den
        )

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.ncols == other.ncols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        # Memo keys hash the same matrix many times; compute it once.
        h = self._hash
        if h is None:
            h = self._hash = hash((self.nrows, self.ncols, self.den, self.num))
        return h

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.rows]})"

    def max_bit_length(self) -> int:
        """Largest bit length over all entries' reduced numerators and
        denominators."""
        den = self.den
        best = 0
        for row in self.num:
            for x in row:
                g = gcd(x, den)
                n = (x // g).bit_length()
                d = (den // g).bit_length()
                if n > best:
                    best = n
                if d > best:
                    best = d
        return best


def _rref(rows: list, ncols: int) -> list:
    """In-place fraction-free Gauss-Jordan elimination on integer rows.
    Returns pivot column indices.

    Afterwards row i, divided by its entry at pivots[i], is row i of the
    reduced row echelon form, and the rows past the rank are zero.  A
    row is updated as p*row - f*pivot_row and then divided by its
    content, so entries do not blow up.  Pivot choice is the first row
    with a nonzero entry in the current column, so the result is
    deterministic.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        prow = rows[r]
        g = gcd(*prow)
        if g != 1:
            prow = rows[r] = [x // g for x in prow]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                row = [p * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _over_pivots(rows: list, pivots: list) -> int:
    """Scale, in place, each of the first len(pivots) rows so that its
    pivot entry is one common denominator, and return it: each such row
    over it is then the row divided by its pivot."""
    den = lcm(*(rows[i][p] for i, p in enumerate(pivots)))
    for i, p in enumerate(pivots):
        s = den // rows[i][p]
        if s != 1:
            rows[i] = [s * x for x in rows[i]]
    return den


def _mutable(M: RationalMatrix) -> list:
    return [list(row) for row in M.num]


def rref(M: RationalMatrix) -> tuple:
    """Reduced row echelon form of M and its pivot column indices."""
    rows = _mutable(M)
    pivots = _rref(rows, M.ncols)
    den = _over_pivots(rows, pivots)
    return RationalMatrix._of(rows, M.ncols, den), tuple(pivots)


def rank(M: RationalMatrix) -> int:
    return len(_rref(_mutable(M), M.ncols))


def rcef(M: RationalMatrix) -> tuple:
    """Reduced column echelon basis of the column space of M.

    Returns (basis, pivot_rows): basis columns have topmost nonzero
    entry 1 at strictly increasing pivot rows, and each pivot row is
    zero in the other columns.  Zero columns are dropped.
    """
    R, pivots = rref(M.transpose())
    return R.take(range(len(pivots)), range(M.nrows)).transpose(), pivots


def _null_vectors(rows: list, pivots: list, ncols: int, den: int) -> RationalMatrix:
    """Canonical basis of the null space, as matrix columns, read off
    the first ncols columns of rows that _rref reduced and _over_pivots
    scaled to den."""
    pivot_set = set(pivots)
    vecs = []
    for j in range(ncols):
        if j not in pivot_set:
            # den times the vector with 1 at j that the matrix kills.
            v = [0] * ncols
            v[j] = den
            for i, p in enumerate(pivots):
                v[p] = -rows[i][j]
            vecs.append(v)
    if not vecs:
        return RationalMatrix.zeros(ncols, 0)
    # The vectors are independent, so the reduced row echelon form of
    # them as rows is the canonical basis, transposed.
    return rref(RationalMatrix._of(vecs, ncols))[0].transpose()


def kernel_basis(M: RationalMatrix) -> RationalMatrix:
    """Canonical basis of the null space of M, as matrix columns."""
    rows = _mutable(M)
    pivots = _rref(rows, M.ncols)
    return _null_vectors(rows, pivots, M.ncols, _over_pivots(rows, pivots))


def solve_matrix(M: RationalMatrix, B: RationalMatrix, rng: Optional[random.Random] = None):
    """A solution X of M @ X = B, or NoSolution.

    Free coordinates are set to zero, so without rng the answer is
    deterministic.  With rng, X is shifted by kernel_basis(M) @ C, C's
    nullity x B.ncols integer entries in -3..3 drawn row by row: every
    random choice in a solution space is drawn here.
    """
    if M.nrows != B.nrows:
        raise ValueError("dimension mismatch")
    # [M | B] times M.den * B.den: integer rows with the same solutions.
    aug = [
        list(r1) + list(r2)
        for r1, r2 in zip(_scaled(M.num, B.den), _scaled(B.num, M.den))
    ]
    pivots = _rref(aug, M.ncols + B.ncols)
    if pivots and pivots[-1] >= M.ncols:
        return NoSolution
    den = _over_pivots(aug, pivots)
    out = [(0,) * B.ncols] * M.ncols
    for i, p in enumerate(pivots):
        out[p] = aug[i][M.ncols:]
    X = RationalMatrix._of(out, B.ncols, den)
    if rng is None or not B.ncols:
        return X
    # Every pivot is in M's columns, so there the rows are M reduced.
    null = _null_vectors(aug, pivots, M.ncols, den)
    C = [[rng.randint(-3, 3) for _ in range(B.ncols)] for _ in range(null.ncols)]
    return X + null @ RationalMatrix._of(C, B.ncols)


def inverse(M: RationalMatrix) -> RationalMatrix:
    if M.nrows != M.ncols:
        raise ValueError("only square matrices invert")
    X = solve_matrix(M, RationalMatrix.identity(M.nrows))
    if X is NoSolution:
        raise ValueError("matrix is singular")
    return X


class Subspace(namedtuple("Subspace", "ambient_dim basis pivot_rows")):
    """A subspace of Q^ambient_dim with its canonical echelon basis."""

    __slots__ = ()

    @classmethod
    def from_columns(cls, M: RationalMatrix) -> "Subspace":
        basis, pivots = rcef(M)
        return cls(M.nrows, basis, tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RationalMatrix.zeros(ambient_dim, 0), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(
            ambient_dim,
            RationalMatrix.identity(ambient_dim),
            tuple(range(ambient_dim)),
        )

    @property
    def dim(self) -> int:
        return self.basis.ncols

    def is_zero(self) -> bool:
        return self.dim == 0

    def express_columns(self, M: RationalMatrix):
        """Coordinates of every column at once, or NoSolution if any
        escapes.  Reading coordinates off the pivot rows avoids an
        elimination."""
        if M.nrows != self.ambient_dim:
            raise ValueError("dimension mismatch")
        coords = M.take(self.pivot_rows, range(M.ncols))
        if self.basis @ coords == M:
            return coords
        return NoSolution

    def contains_columns(self, M: RationalMatrix) -> bool:
        return self.express_columns(M) is not NoSolution

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


class QuotientPresentation(namedtuple(
    "QuotientPresentation", "ambient_dim denominator representative_basis reduction_map"
)):
    """Q^ambient_dim modulo a subspace, with chosen representatives.

    representative_basis columns represent a basis of the quotient;
    reduction_map sends an ambient vector to its quotient coordinates.
    Invariants checked here: reduction_map kills the denominator and is
    a left inverse of representative_basis.
    """

    __slots__ = ()

    def __init__(
        self,
        ambient_dim: int,
        denominator: Subspace,
        representative_basis: RationalMatrix,
        reduction_map: RationalMatrix,
    ):
        if denominator.ambient_dim != ambient_dim:
            raise ValueError("denominator lives in the wrong space")
        if not (reduction_map @ denominator.basis).is_zero():
            raise VerificationFailure("reduction map does not kill the denominator")
        q = representative_basis.ncols
        if reduction_map @ representative_basis != RationalMatrix.identity(q):
            raise VerificationFailure("reduction map is not a retraction onto representatives")

    @property
    def dim(self) -> int:
        return self.representative_basis.ncols

    def reduce_columns(self, M: RationalMatrix) -> RationalMatrix:
        return self.reduction_map @ M

    def __repr__(self):
        return f"QuotientPresentation(Q^{self.ambient_dim} / dim {self.denominator.dim})"


def quotient(ambient_dim: int, denominator: Subspace) -> QuotientPresentation:
    """Present Q^ambient_dim modulo the given subspace.

    Representatives are the standard basis vectors at the non-pivot
    rows of the denominator's echelon basis, so the construction is
    deterministic.
    """
    if denominator.ambient_dim != ambient_dim:
        raise ValueError("denominator lives in the wrong space")
    pivots = denominator.pivot_rows
    pivot_set = set(pivots)
    free = [i for i in range(ambient_dim) if i not in pivot_set]
    rows = range(ambient_dim)
    eye = RationalMatrix.identity(ambient_dim)
    reps = eye.take(rows, free)
    # v = W a + R b uniquely.  W is the identity on the pivot rows and R
    # is zero there, so a = v[pivots] and b = v[free] - W[free] a.
    W = denominator.basis
    reduction = eye.take(free, rows) - W.take(free, range(W.ncols)) @ eye.take(pivots, rows)
    return QuotientPresentation(ambient_dim, denominator, reps, reduction)


def induced_map(
    src: QuotientPresentation, dst: QuotientPresentation, M: RationalMatrix
) -> RationalMatrix:
    """Matrix induced by M on quotient coordinates.

    Raises VerificationFailure unless M carries the source
    denominator into the destination denominator.
    """
    if M.ncols != src.ambient_dim or M.nrows != dst.ambient_dim:
        raise ValueError("shape mismatch")
    if not dst.denominator.contains_columns(M @ src.denominator.basis):
        raise VerificationFailure(
            "map does not carry the source denominator into the destination denominator"
        )
    return dst.reduction_map @ (M @ src.representative_basis)
