"""Exact linear algebra over the rationals.

All arithmetic uses gmpy2.mpq when the optional gmpy2 is installed,
and fractions.Fraction otherwise.  Both keep every value reduced with a
positive denominator; there is no tolerance parameter anywhere.
Matrices are immutable and act on column vectors, so composition reads
right to left: (A @ B)(v) = A(B(v)).

The trust boundary is this module.  The public constructors
(RationalMatrix(...), from_columns, column_vector) coerce every entry
to Rat and reject ragged rows.  Every matrix this module derives from
existing matrices or from Rat arithmetic is built by the private
RationalMatrix._of, which coerces nothing.

Subspaces carry a canonical basis in reduced column echelon form: the
topmost nonzero entry of each basis column is 1, those pivot rows are
strictly increasing left to right, and every pivot row is zero in the
other columns.  Canonical bases make subspace equality a plain matrix
comparison and keep every construction deterministic.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is the optional "fast" extra
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(x) -> Rat:
    """Coerce an int, string like "3/4", Fraction, or Rat to a Rat."""
    return Rat(x)


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


class WellDefinednessFailure(Exception):
    """A map does not descend to the requested quotient."""


class RationalMatrix:
    """Immutable matrix of Rat entries, acting on column vectors."""

    __slots__ = ("nrows", "ncols", "rows", "_hash")

    def __init__(self, rows: Iterable[Iterable], ncols: Optional[int] = None):
        rows = tuple(tuple(rat(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit ncols")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols
        self._hash = None

    @classmethod
    def _of(cls, rows: Iterable[Sequence], ncols: int) -> "RationalMatrix":
        """Trusted construction from rows of Rat entries, each ncols
        wide.  Nothing is coerced or checked, so only this module calls
        it, on entries that are already Rat."""
        M = object.__new__(cls)
        M.rows = tuple(map(tuple, rows))
        M.nrows = len(M.rows)
        M.ncols = ncols
        M._hash = None
        return M

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls._of(((ZERO,) * ncols,) * nrows, ncols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._of(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n
        )

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
        return cls._of(
            [sum((m.rows[i] for m in mats), ()) for i in range(nrows)],
            sum(m.ncols for m in mats),
        )

    @classmethod
    def vstack(cls, mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        if not mats:
            raise ValueError("vstack of nothing")
        ncols = mats[0].ncols
        if any(m.ncols != ncols for m in mats):
            raise ValueError("vstack: column counts differ")
        return cls._of([row for m in mats for row in m.rows], ncols)

    @classmethod
    def block(cls, grid: Sequence[Sequence["RationalMatrix"]]) -> "RationalMatrix":
        return cls.vstack([cls.hstack(list(row)) for row in grid])

    @classmethod
    def block_diagonal(cls, mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        """The blocks down the diagonal, zero elsewhere.  A 0 x k block
        adds k zero columns and a k x 0 block adds k zero rows."""
        ncols = sum(m.ncols for m in mats)
        rows = []
        left = 0
        for m in mats:
            right = ncols - left - m.ncols
            rows.extend([ZERO] * left + list(row) + [ZERO] * right for row in m.rows)
            left += m.ncols
        return cls._of(rows, ncols)

    def take(self, rows: Sequence[int], cols: Sequence[int]) -> "RationalMatrix":
        """The submatrix on the given row and column indices, in the
        order given; an index may repeat."""
        return RationalMatrix._of(
            [[self.rows[i][j] for j in cols] for i in rows], len(cols)
        )

    def entry(self, i: int, j: int) -> Rat:
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "RationalMatrix":
        if not self.rows:
            return RationalMatrix.zeros(self.ncols, 0)
        return RationalMatrix._of(zip(*self.rows), self.nrows)

    def apply(self, vec: Sequence) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        out = []
        for row in self.rows:
            acc = ZERO
            for a, b in zip(row, vec):
                if a and b:
                    acc += a * b
            out.append(acc)
        return tuple(out)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        orows = other.rows
        out = []
        for row in self.rows:
            acc = [ZERO] * other.ncols
            for k, a in enumerate(row):
                if a:
                    ok = orows[k]
                    if a is ONE or a == ONE:
                        for j, b in enumerate(ok):
                            if b:
                                acc[j] += b
                    else:
                        for j, b in enumerate(ok):
                            if b:
                                acc[j] += a * b
            out.append(acc)
        return RationalMatrix._of(out, other.ncols)

    def __mul__(self, scalar) -> "RationalMatrix":
        s = rat(scalar)
        return RationalMatrix._of(
            [[s * x for x in row] for row in self.rows], self.ncols
        )

    __rmul__ = __mul__

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return RationalMatrix._of(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of([[-x for x in row] for row in self.rows], self.ncols)

    def is_zero(self) -> bool:
        return all(not x for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        # Memo keys hash the same matrix many times; compute it once.
        h = self._hash
        if h is None:
            h = self._hash = hash((self.nrows, self.ncols, self.rows))
        return h

    def __repr__(self):
        return f"RationalMatrix({[[str(x) for x in row] for row in self.rows]})"

    def max_bit_length(self) -> int:
        """Largest bit length over all numerators and denominators."""
        best = 0
        for row in self.rows:
            for x in row:
                n = int(x.numerator).bit_length()
                d = int(x.denominator).bit_length()
                if n > best:
                    best = n
                if d > best:
                    best = d
        return best


def _rref(rows: list, ncols: int) -> list:
    """In-place reduced row echelon form.  Returns pivot column indices.

    Pivot choice is the first row with a nonzero entry in the current
    column, so the result is deterministic.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        inv = ONE / prow[c]
        if inv != ONE:
            for j in range(c, ncols):
                if prow[j]:
                    prow[j] = prow[j] * inv
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                irow = rows[i]
                for j in range(c, ncols):
                    if prow[j]:
                        irow[j] = irow[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _mutable(M: RationalMatrix) -> list:
    return [list(row) for row in M.rows]


def rref(M: RationalMatrix) -> tuple:
    """Reduced row echelon form of M and its pivot column indices."""
    rows = _mutable(M)
    pivots = _rref(rows, M.ncols)
    return RationalMatrix._of(rows, M.ncols), tuple(pivots)


def rank(M: RationalMatrix) -> int:
    rows = _mutable(M)
    return len(_rref(rows, M.ncols))


def rcef(M: RationalMatrix) -> tuple:
    """Reduced column echelon basis of the column space of M.

    Returns (basis, pivot_rows): basis columns have topmost nonzero
    entry 1 at strictly increasing pivot rows, and each pivot row is
    zero in the other columns.  Zero columns are dropped.
    """
    R, pivots = rref(M.transpose())
    return R.take(range(len(pivots)), range(M.nrows)).transpose(), pivots


def image_basis(M: RationalMatrix) -> RationalMatrix:
    """Canonical basis of the column space of M."""
    return rcef(M)[0]


def kernel_basis(M: RationalMatrix) -> RationalMatrix:
    """Canonical basis of the null space of M, as matrix columns."""
    rows = _mutable(M)
    pivots = _rref(rows, M.ncols)
    pivot_set = set(pivots)
    free = [j for j in range(M.ncols) if j not in pivot_set]
    vecs = []
    for j in free:
        v = [ZERO] * M.ncols
        v[j] = ONE
        for i, p in enumerate(pivots):
            if rows[i][j]:
                v[p] = -rows[i][j]
        vecs.append(v)
    raw = RationalMatrix._of(vecs, M.ncols).transpose()
    # Canonicalize so kernel bases compare like any other subspace basis.
    return rcef(raw)[0] if vecs else RationalMatrix.zeros(M.ncols, 0)


def solve_matrix(M: RationalMatrix, B: RationalMatrix):
    """Particular solution X of M @ X = B, or NoSolution.

    Free coordinates are set to zero, so the answer is deterministic.
    """
    if M.nrows != B.nrows:
        raise ValueError("dimension mismatch")
    aug = [list(r1) + list(r2) for r1, r2 in zip(M.rows, B.rows)]
    if not aug:
        return RationalMatrix.zeros(M.ncols, B.ncols)
    pivots = _rref(aug, M.ncols + B.ncols)
    if pivots and pivots[-1] >= M.ncols:
        return NoSolution
    out = [[ZERO] * B.ncols for _ in range(M.ncols)]
    for i, p in enumerate(pivots):
        row = aug[i]
        for j in range(B.ncols):
            out[p][j] = row[M.ncols + j]
    return RationalMatrix._of(out, B.ncols)


def solve(M: RationalMatrix, b: Sequence):
    """Particular solution of M @ x = b as a tuple, or NoSolution."""
    X = solve_matrix(M, RationalMatrix.column_vector(b))
    if X is NoSolution:
        return NoSolution
    return X.column(0)


def inverse(M: RationalMatrix) -> RationalMatrix:
    if M.nrows != M.ncols:
        raise ValueError("only square matrices invert")
    X = solve_matrix(M, RationalMatrix.identity(M.nrows))
    if X is NoSolution:
        raise ValueError("matrix is singular")
    return X


class Subspace:
    """A subspace of Q^ambient_dim with its canonical echelon basis."""

    __slots__ = ("ambient_dim", "basis", "pivot_rows")

    def __init__(self, ambient_dim: int, basis: RationalMatrix, pivot_rows: tuple):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivot_rows = pivot_rows

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

    def express(self, vec: Sequence):
        """Coordinates of vec in the canonical basis, or NoSolution."""
        coords = self.express_columns(RationalMatrix.column_vector(vec))
        return coords if coords is NoSolution else coords.column(0)

    def express_columns(self, M: RationalMatrix):
        """Coordinates of every column at once, or NoSolution if any
        escapes.  Reading coordinates off the pivot rows avoids an
        elimination."""
        if M.nrows != self.ambient_dim:
            raise ValueError("dimension mismatch")
        coords = M.take(self.pivot_rows, range(M.ncols))
        if (M - self.basis @ coords).is_zero():
            return coords
        return NoSolution

    def contains(self, vec: Sequence) -> bool:
        return self.express(vec) is not NoSolution

    def contains_columns(self, M: RationalMatrix) -> bool:
        return self.express_columns(M) is not NoSolution

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


class QuotientPresentation:
    """Q^ambient_dim modulo a subspace, with chosen representatives.

    representative_basis columns represent a basis of the quotient;
    reduction_map sends an ambient vector to its quotient coordinates.
    Invariants checked here: reduction_map kills the denominator and is
    a left inverse of representative_basis.
    """

    __slots__ = ("ambient_dim", "denominator", "representative_basis", "reduction_map")

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
            raise ValueError("reduction map does not kill the denominator")
        q = representative_basis.ncols
        if reduction_map @ representative_basis != RationalMatrix.identity(q):
            raise ValueError("reduction map is not a retraction onto representatives")
        self.ambient_dim = ambient_dim
        self.denominator = denominator
        self.representative_basis = representative_basis
        self.reduction_map = reduction_map

    @property
    def dim(self) -> int:
        return self.representative_basis.ncols

    def reduce_columns(self, M: RationalMatrix) -> RationalMatrix:
        return self.reduction_map @ M

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuotientPresentation)
            and self.ambient_dim == other.ambient_dim
            and self.denominator == other.denominator
            and self.representative_basis == other.representative_basis
            and self.reduction_map == other.reduction_map
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.denominator.basis))

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
    pivot_set = set(denominator.pivot_rows)
    free_rows = [i for i in range(ambient_dim) if i not in pivot_set]
    reps = RationalMatrix.identity(ambient_dim).take(range(ambient_dim), free_rows)
    w = denominator.dim
    if w == 0:
        reduction = RationalMatrix.identity(ambient_dim)
    else:
        # v = W a + R b uniquely; the reduction reads off b.
        B = RationalMatrix.hstack([denominator.basis, reps])
        Binv = inverse(B)
        reduction = Binv.take(range(w, ambient_dim), range(ambient_dim))
    return QuotientPresentation(ambient_dim, denominator, reps, reduction)


def induced_map(
    src: QuotientPresentation, dst: QuotientPresentation, M: RationalMatrix
) -> RationalMatrix:
    """Matrix induced by M on quotient coordinates.

    Raises WellDefinednessFailure unless M carries the source
    denominator into the destination denominator.
    """
    if M.ncols != src.ambient_dim or M.nrows != dst.ambient_dim:
        raise ValueError("shape mismatch")
    if not dst.denominator.contains_columns(M @ src.denominator.basis):
        raise WellDefinednessFailure(
            "map does not carry the source denominator into the destination denominator"
        )
    return dst.reduction_map @ (M @ src.representative_basis)
