"""Exact linear algebra: frozen examples, oracle cross-checks, laws."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from dimshift import linalg
from dimshift.linalg import (
    Rat,
    RationalMatrix,
    Subspace,
    VerificationFailure,
    induced_map,
    inverse,
    kernel_basis,
    quotient,
    rank,
    rcef,
    rref,
    solve_matrix,
)

from fraction_oracle import (
    frac_rows,
    fraction_inverse,
    fraction_rref,
    gauss_rank,
    matrix_rank,
    nullity,
)


def M(rows):
    ncols = len(rows[0]) if rows else 0
    return RationalMatrix([[Rat(x) for x in r] for r in rows], ncols)


def col(*entries):
    return RationalMatrix([[x] for x in entries], 1)


small_entry = st.integers(min_value=-4, max_value=4)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_entry, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            ).map(M)
        )
    )


# -- frozen examples ---------------------------------------------------------

def test_kernel_of_projection_is_second_axis():
    K = kernel_basis(M([[1, 0], [0, 0]]))
    assert K == col(0, 1)


def test_kernel_of_zero_matrix_is_everything():
    K = kernel_basis(M([[0, 0], [0, 0]]))
    assert K == RationalMatrix.identity(2)


def test_image_of_identity_is_everything():
    assert Subspace.from_columns(RationalMatrix.identity(3)).basis == RationalMatrix.identity(3)


def test_image_of_projection_is_first_axis():
    B = Subspace.from_columns(M([[1, 0], [0, 0]])).basis
    assert B == col(1, 0)


def test_solve_in_image():
    x = solve_matrix(M([[1, 0], [0, 0]]), col(3, 0))
    assert x is not None
    assert M([[1, 0], [0, 0]]) @ x == col(3, 0)


def test_solve_outside_image_reports_no_solution():
    assert solve_matrix(M([[1, 0], [0, 0]]), col(0, 1)) is None


def test_quotient_by_a_line_has_dimension_one():
    W = Subspace.from_columns(M([[1], [0]]))
    assert quotient(2, W).dim == 1


def test_quotient_by_everything_is_zero():
    assert quotient(2, Subspace.full(2)).dim == 0


def test_induced_map_rejects_ill_defined_maps():
    src = quotient(2, Subspace.from_columns(M([[1], [0]])))
    dst = quotient(2, Subspace.from_columns(M([[1], [0]])))
    swap = M([[0, 1], [1, 0]])
    with pytest.raises(VerificationFailure, match="does not carry the source denominator"):
        induced_map(src, dst, swap)


# -- oracle cross-checks -----------------------------------------------------

def test_rank_against_oracle_on_seeded_matrices():
    rng = random.Random(11)
    for _ in range(150):
        rows = [
            [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        ]
        cols = len(rows[0])
        for _ in range(rng.randint(0, 5)):
            rows.append([rng.randint(-5, 5) for _ in range(cols)])
        A = M(rows)
        assert rank(A) == matrix_rank(A)


def test_kernel_dimension_against_oracle():
    rng = random.Random(12)
    for _ in range(100):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        A = M([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        assert kernel_basis(A).ncols == nullity(A)
        assert (A @ kernel_basis(A)).is_zero()


# -- laws --------------------------------------------------------------------

@settings(max_examples=80, deadline=None, derandomize=True)
@given(matrices())
def test_rank_nullity(A):
    assert rank(A) + kernel_basis(A).ncols == A.ncols


@settings(max_examples=80, deadline=None, derandomize=True)
@given(matrices())
def test_image_basis_spans_the_columns(A):
    B = Subspace.from_columns(A).basis
    assert rank(B) == B.ncols == rank(A)
    assert solve_matrix(B, A) is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(4, 4), st.lists(small_entry, min_size=4, max_size=4))
def test_solve_postcondition(A, b):
    b = col(*b[: A.nrows])
    x = solve_matrix(A, b)
    if x is not None:
        assert A @ x == b
    else:
        assert not Subspace.from_columns(A).contains_columns(b)


def test_solve_is_deterministic():
    A = M([[1, 2, 3], [2, 4, 6]])
    assert solve_matrix(A, col(1, 2)) == solve_matrix(A, col(1, 2))
    # Free coordinates come back zero.
    assert solve_matrix(A, col(1, 2)) == col(1, 0, 0)


@st.composite
def random_solves(draw):
    """A, a solvable B = A @ Y, an arbitrary B of the same shape, and a
    seed; every shape from 0 x 0 up."""
    r, c, k = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    A = RationalMatrix([[draw(small_entry) for _ in range(c)] for _ in range(r)], c)
    Y = RationalMatrix([[draw(small_entry) for _ in range(k)] for _ in range(c)], k)
    other = RationalMatrix([[draw(small_entry) for _ in range(k)] for _ in range(r)], k)
    return A, A @ Y, other, draw(st.integers(0, 2**32))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(random_solves())
def test_a_random_solution_draws_one_coefficient_per_kernel_vector_and_column(case):
    A, B, other, seed = case
    rng, twin = random.Random(seed), random.Random(seed)
    X = solve_matrix(A, B, rng)
    assert X is not None and A @ X == B
    assert (A @ (X - solve_matrix(A, B))).is_zero()
    # The twin replays the draws: nullity x B.ncols, kernel-major.
    K = kernel_basis(A)
    C = [[twin.randint(-3, 3) for _ in range(B.ncols)] for _ in range(K.ncols)]
    assert rng.getstate() == twin.getstate()
    assert X == solve_matrix(A, B) + K @ RationalMatrix(C, B.ncols)
    # No draws when there is no solution.
    if solve_matrix(A, other) is None:
        assert solve_matrix(A, other, rng) is None
        assert rng.getstate() == twin.getstate()


def test_a_random_solve_eliminates_the_system_once(monkeypatch):
    # A is 3 x 4 of rank 2, so its kernel has two vectors.  The kernel is
    # read off the reduced [A | B]; only those two vectors are reduced
    # again, to the canonical basis, and A alone never is.
    A = M([[1, 2, 0, 1], [0, 0, 1, 1], [1, 2, 1, 2]])
    B = A @ col(1, 1, 1, 1)
    real = linalg._rref
    shapes = []

    def counting(rows, ncols):
        shapes.append((len(rows), ncols))
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_rref", counting)
    X = solve_matrix(A, B, random.Random(5))
    assert shapes == [(3, 5), (2, 4)]
    assert A @ X == B


def test_subspace_basis_is_canonical_across_generating_sets():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 5)
        cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        A = M(list(zip(*cols)))
        shuffled = cols[:]
        rng.shuffle(shuffled)
        doubled = shuffled + [[2 * x for x in c] for c in shuffled]
        B = M(list(zip(*doubled)))
        assert Subspace.from_columns(A) == Subspace.from_columns(B)


def test_express_round_trip():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randint(1, 5)
        w = rng.randint(1, 4)
        A = M([[rng.randint(-3, 3) for _ in range(w)] for _ in range(n)])
        S = Subspace.from_columns(A)
        combo = A @ col(*[rng.randint(-2, 2) for _ in range(A.ncols)])
        coords = S.express_columns(combo)
        assert coords is not None
        assert S.basis @ coords == combo


def test_express_columns_matches_express():
    A = M([[1, 0], [1, 1], [0, 2]])
    S = Subspace.from_columns(A)
    probe = M([[1, 2], [2, 3], [2, 2]])
    coords = S.express_columns(probe)
    assert coords is not None
    for j in range(probe.ncols):
        assert coords.take(range(2), [j]) == S.express_columns(probe.take(range(3), [j]))
    outside = M([[1], [0], [0]])
    assert S.express_columns(outside) is None


def test_quotient_reduction_is_a_retraction():
    rng = random.Random(15)
    for _ in range(50):
        n = rng.randint(1, 6)
        w = rng.randint(1, n)
        A = M([[rng.randint(-3, 3) for _ in range(w)] for _ in range(n)])
        W = Subspace.from_columns(A)
        Q = quotient(n, W)
        assert Q.dim == n - W.dim
        assert (Q.reduction_map @ W.basis).is_zero()
        assert Q.reduction_map @ Q.representative_basis == RationalMatrix.identity(Q.dim)


def test_induced_map_respects_composition():
    # Q^3 / span(e0) -> itself via a map preserving the line.
    W = Subspace.from_columns(M([[1], [0], [0]]))
    Q = quotient(3, W)
    A = M([[1, 1, 0], [0, 2, 1], [0, 0, 1]])
    B = M([[1, 0, 2], [0, 1, 1], [0, 0, 3]])
    lhs = induced_map(Q, Q, B @ A)
    rhs = induced_map(Q, Q, B) @ induced_map(Q, Q, A)
    assert lhs == rhs


def test_inverse_round_trip_and_singular_failure():
    A = M([[1, 2], [3, 5]])
    assert A @ inverse(A) == RationalMatrix.identity(2)
    assert inverse(A) @ A == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        inverse(M([[1, 2], [2, 4]]))


def test_rational_arithmetic_is_exact():
    third = Rat(1) / Rat(3)
    assert third * Rat(3) == Rat(1)
    A = M([[1, 1], [0, 1]]) * third
    assert (A * Rat(3)).entry(0, 0) == Rat(1)


def test_block_diagonal_places_blocks_and_empty_blocks():
    A = M([[1, 2], [3, 4]])
    B = M([[5]])
    wide = RationalMatrix.zeros(0, 2)  # adds two zero columns
    tall = RationalMatrix.zeros(3, 0)  # adds three zero rows
    D = RationalMatrix.block_diagonal([A, wide, tall, B])
    assert (D.nrows, D.ncols) == (6, 5)
    assert D == M(
        [
            [1, 2, 0, 0, 0],
            [3, 4, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 5],
        ]
    )
    assert RationalMatrix.block_diagonal([A]) == A
    empty = RationalMatrix.block_diagonal([])
    assert (empty.nrows, empty.ncols) == (0, 0)
    only_columns = RationalMatrix.block_diagonal([wide, RationalMatrix.zeros(0, 1)])
    assert (only_columns.nrows, only_columns.ncols) == (0, 3)


# -- trust boundary ----------------------------------------------------------
# Matrices derived inside linalg skip coercion, so every entry they hold
# must already be a Rat; the public constructors must still coerce.

entries = st.one_of(
    small_entry, st.fractions(min_value=-4, max_value=4, max_denominator=5)
)


def public_matrix(draw, nrows, ncols):
    rows = draw(
        st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return RationalMatrix(rows, ncols)


@st.composite
def operands(draw):
    """A (r x k), B (k x c), C (r x k) and a scalar, with empty shapes."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return (
        public_matrix(draw, r, k),
        public_matrix(draw, k, c),
        public_matrix(draw, r, k),
        draw(entries),
    )


def derived_matrices(A, B, C, s):
    S = Subspace.from_columns(A)
    Q = quotient(A.nrows, S)
    G = A.transpose() @ A + RationalMatrix.identity(A.ncols)  # invertible
    return {
        "matmul": A @ B,
        "mul": A * s,
        "rmul": s * A,
        "add": A + C,
        "sub": A - C,
        "neg": -A,
        "transpose": A.transpose(),
        "take": A.take(range(A.nrows)[::-1], [(j + 1) % A.ncols for j in range(A.ncols)]),
        "zeros": RationalMatrix.zeros(A.nrows, A.ncols),
        "identity": RationalMatrix.identity(A.ncols),
        "hstack": RationalMatrix.hstack([A, C]),
        "vstack": RationalMatrix.vstack([A, C]),
        "block": RationalMatrix.block([[A, C], [C, A]]),
        "block_diagonal": RationalMatrix.block_diagonal([A, B]),
        "rref": rref(A)[0],
        "rcef": rcef(A)[0],
        "kernel_basis": kernel_basis(A),
        "solve_matrix": solve_matrix(A, A @ B),
        "inverse": inverse(G),
        "express_columns": S.express_columns(A),
        "quotient_representatives": Q.representative_basis,
        "quotient_reduction": Q.reduction_map,
    }


@settings(max_examples=80, deadline=None, derandomize=True)
@given(operands())
def test_derived_matrices_hold_only_rats(ops):
    for name, R in derived_matrices(*ops).items():
        # Stored as integer rows over one positive denominator, in
        # lowest terms, so equal matrices store equal ints.
        assert type(R.num) is tuple and len(R.num) == R.nrows, name
        assert type(R.den) is int and R.den > 0, name
        for row in R.num:
            assert type(row) is tuple and len(row) == R.ncols, name
            assert all(type(x) is int for x in row), name
        assert gcd(R.den, *(x for row in R.num for x in row)) == 1, name
        if R.is_zero():
            assert R.den == 1, name
        # Seen from outside, every entry is a Rat.
        assert type(R.rows) is tuple and len(R.rows) == R.nrows, name
        for row in R.rows:
            assert type(row) is tuple and len(row) == R.ncols, name
            assert all(type(x) is Rat for x in row), name
        rebuilt = RationalMatrix(R.rows, R.ncols)
        assert (rebuilt.num, rebuilt.den) == (R.num, R.den), name
        assert hash(R) == hash(rebuilt), name  # computed
        assert hash(R) == hash(rebuilt), name  # read back from the slot


@settings(max_examples=80, deadline=None, derandomize=True)
@given(operands())
def test_equal_matrices_from_different_paths_hash_equal(ops):
    A, B, C, s = ops
    reparsed = RationalMatrix([[str(x) for x in row] for row in A.rows], A.ncols)
    same = [
        A @ RationalMatrix.identity(A.ncols),
        RationalMatrix.identity(A.nrows) @ A,
        A + RationalMatrix.zeros(A.nrows, A.ncols),
        -(-A),
        A.transpose().transpose(),
        A.take(range(A.nrows), range(A.ncols)),
        reparsed,
    ]
    for X in same:
        assert X == A
        assert hash(X) == hash(A)
    if A.nrows and A.ncols and not A.is_zero():
        assert A + A != A


# Each entry as the caller may give it: an int, a string such as "3/4",
# or a Fraction.
given_entries = st.one_of(small_entry, entries.map(str), entries.map(Fraction))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(
    lambda c: st.lists(
        st.lists(given_entries, min_size=c, max_size=c), min_size=1, max_size=4
    )
))
def test_the_public_constructors_coerce_every_entry(rows):
    ncols = len(rows[0])
    A = RationalMatrix(rows, ncols)
    assert A.rows == tuple(tuple(Fraction(x) for x in row) for row in rows)
    assert all(type(x) is Rat for row in A.rows for x in row)


def test_the_public_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2]], 3)
    with pytest.raises(ValueError):
        RationalMatrix([])


# -- elimination against an independent oracle -------------------------------
# Mixed denominators, numerators past 2^64, negative pivots, zero rows and
# columns, and empty shapes.

oracle_entries = st.one_of(
    small_entry,
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**66)),
)


def oracle_matrix(draw, nrows, ncols):
    rows = [[draw(oracle_entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    return RationalMatrix(rows, ncols)


@st.composite
def elimination_cases(draw):
    """A (r x c), a right-hand side B (r x k) and an X (c x k)."""
    r, c, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 3))
    return oracle_matrix(draw, r, c), oracle_matrix(draw, r, k), oracle_matrix(draw, c, k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(elimination_cases())
def test_elimination_agrees_with_the_fraction_oracle(case):
    A, B, X = case
    expected, pivots = fraction_rref(frac_rows(A))
    R, found = rref(A)
    assert found == tuple(pivots)
    assert frac_rows(R) == expected
    assert rref(-A)[0] == R

    K = kernel_basis(A)
    assert (K.nrows, K.ncols) == (A.ncols, A.ncols - len(pivots))
    assert (A @ K).is_zero()
    assert matrix_rank(K) == K.ncols

    AX = A @ X
    Y = solve_matrix(A, AX)
    assert Y is not None and A @ Y == AX
    augmented = [a + b for a, b in zip(frac_rows(A), frac_rows(B))]
    Y = solve_matrix(A, B)
    if gauss_rank(augmented) > len(pivots):
        assert Y is None
    else:
        assert Y is not None and A @ Y == B

    G = A.transpose() @ A + RationalMatrix.identity(A.ncols)
    I = RationalMatrix.identity(A.ncols)
    assert G @ inverse(G) == I and inverse(G) @ G == I
    if A.nrows == A.ncols == len(pivots):
        assert A @ inverse(A) == RationalMatrix.identity(A.nrows)


@st.composite
def quotient_cases(draw):
    """Columns spanning a subspace of Q^r, r >= 1."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    return oracle_matrix(draw, r, c)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(quotient_cases())
def test_quotient_reduction_is_the_tail_of_the_inverse_of_basis_and_representatives(A):
    # v = W a + R b uniquely, so the rows of [W | R]^-1 past w read off b.
    Q = quotient(A.nrows, Subspace.from_columns(A))
    W = Q.denominator.basis
    basis_and_reps = [
        w + r for w, r in zip(frac_rows(W), frac_rows(Q.representative_basis))
    ]
    assert frac_rows(Q.reduction_map) == fraction_inverse(basis_and_reps)[W.ncols:]
