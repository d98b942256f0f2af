"""Independent oracles for the test suite.

Everything here is deliberately reimplemented from scratch on plain
Fraction lists, so a bug in the package's elimination code cannot hide
behind itself.  Slow is fine; these run on desk-scale inputs only.
"""

from fractions import Fraction


def frac_rows(M):
    """Copy a package matrix into plain Fraction rows."""
    return [
        [Fraction(int(x.numerator), int(x.denominator)) for x in M.row(i)]
        for i in range(M.nrows)
    ]


def fraction_rref(rows):
    """Reduced row echelon form of plain Fraction rows, by textbook
    Gauss-Jordan elimination, and its pivot columns."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def fraction_inverse(rows):
    """Inverse of a square matrix of plain Fraction rows, read off the
    reduced form of [A | I]."""
    n = len(rows)
    augmented = [
        list(row) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    reduced, pivots = fraction_rref(augmented)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular")
    return [row[n:] for row in reduced]


def gauss_rank(rows):
    """Rank by fraction-exact Gauss-Jordan elimination."""
    return len(fraction_rref(rows)[1])


def matrix_rank(M):
    return gauss_rank(frac_rows(M))


def nullity(M):
    return M.ncols - matrix_rank(M)


def socle_dim(M):
    """dim ker X, computed independently: dim Hom(k, M) by hand."""
    return M.X.ncols - matrix_rank(M.X)


def intertwiner_space_dim(A, B):
    """dim of the solution space of X_B @ G = G @ X_A.

    The constraint is assembled entry by entry over the d_B x d_A
    unknowns of G, then solved by the local elimination, with no help
    from the package.
    """
    XA = frac_rows(A.X)
    XB = frac_rows(B.X)
    da, db = A.dim, B.dim
    if da == 0 or db == 0:
        return 0
    rows = []
    for i in range(db):
        for j in range(da):
            row = [Fraction(0)] * (db * da)
            for k in range(db):
                row[k * da + j] += XB[i][k]
            for l in range(da):
                row[i * da + l] -= XA[l][j]
            rows.append(row)
    return db * da - gauss_rank(rows)


def is_exact_at(prev_matrix, next_matrix):
    """Exactness of  . --prev--> V --next--> .  by rank arithmetic."""
    if (next_matrix @ prev_matrix).is_zero() is False:
        return False
    dim_v = next_matrix.ncols
    return matrix_rank(prev_matrix) == dim_v - matrix_rank(next_matrix)


def block_sizes(M):
    """Sizes of the cyclic blocks k[x]/x^j of M, from ranks alone.

    rank X^(j-1) - rank X^j blocks have size at least j, so the count of
    size exactly j is the difference of two such counts.
    """
    X = frac_rows(M.X)
    n = len(X)
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ranks = [n]
    while ranks[-1]:
        power = [
            [sum(X[i][k] * power[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        ranks.append(gauss_rank(power))
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))] + [0]
    sizes = []
    for j in range(1, len(at_least)):
        sizes += [j] * (at_least[j - 1] - at_least[j])
    return sizes


def ext_dim(A, M, m, n):
    """dim Ext^n(A, M) over k[x]/(x^m) in closed form, summed over pairs
    of blocks: min(a, b) for Hom(k[x]/x^a, k[x]/x^b), and
    min(a, b, m - a, m - b) for every n >= 1 (the resolutions are
    2-periodic)."""
    return sum(
        min(a, b) if n == 0 else min(a, b, m - a, m - b)
        for a in block_sizes(A)
        for b in block_sizes(M)
    )
