"""Exact linear algebra: frozen examples, oracle cross-checks, laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dimshift.linalg import (
    NoSolution,
    Rat,
    RationalMatrix,
    Subspace,
    WellDefinednessFailure,
    image_basis,
    induced_map,
    inverse,
    kernel_basis,
    quotient,
    rank,
    rat,
    rcef,
    rref,
    solve,
    solve_matrix,
)

from fraction_oracle import matrix_rank, nullity


def M(rows):
    ncols = len(rows[0]) if rows else 0
    return RationalMatrix([[rat(x) for x in r] for r in rows], ncols)


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
    assert K.ncols == 1
    assert K.column(0) == (rat(0), rat(1))


def test_kernel_of_zero_matrix_is_everything():
    K = kernel_basis(M([[0, 0], [0, 0]]))
    assert K == RationalMatrix.identity(2)


def test_image_of_identity_is_everything():
    assert image_basis(RationalMatrix.identity(3)) == RationalMatrix.identity(3)


def test_image_of_projection_is_first_axis():
    B = image_basis(M([[1, 0], [0, 0]]))
    assert B.ncols == 1
    assert B.column(0) == (rat(1), rat(0))


def test_solve_in_image():
    x = solve(M([[1, 0], [0, 0]]), (3, 0))
    assert x is not NoSolution
    assert M([[1, 0], [0, 0]]).apply(x) == (rat(3), rat(0))


def test_solve_outside_image_reports_no_solution():
    assert solve(M([[1, 0], [0, 0]]), (0, 1)) is NoSolution


def test_quotient_by_a_line_has_dimension_one():
    W = Subspace.from_columns(M([[1], [0]]))
    assert quotient(2, W).dim == 1


def test_quotient_by_everything_is_zero():
    assert quotient(2, Subspace.full(2)).dim == 0


def test_induced_map_rejects_ill_defined_maps():
    src = quotient(2, Subspace.from_columns(M([[1], [0]])))
    dst = quotient(2, Subspace.from_columns(M([[1], [0]])))
    swap = M([[0, 1], [1, 0]])
    with pytest.raises(WellDefinednessFailure):
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
    B = image_basis(A)
    assert rank(B) == B.ncols == rank(A)
    assert solve_matrix(B, A) is not NoSolution


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matrices(4, 4), st.lists(small_entry, min_size=4, max_size=4))
def test_solve_postcondition(A, b):
    b = b[: A.nrows]
    x = solve(A, b)
    if x is not NoSolution:
        assert A.apply(x) == tuple(rat(t) for t in b)
    else:
        assert not Subspace.from_columns(A).contains(b)


def test_solve_is_deterministic():
    A = M([[1, 2, 3], [2, 4, 6]])
    assert solve(A, (1, 2)) == solve(A, (1, 2))
    # Free coordinates come back zero.
    assert solve(A, (1, 2)) == (rat(1), rat(0), rat(0))


def test_subspace_basis_is_canonical_across_generating_sets():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 5)
        cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        A = RationalMatrix.from_columns(cols, n)
        shuffled = cols[:]
        rng.shuffle(shuffled)
        doubled = shuffled + [[2 * x for x in c] for c in shuffled]
        B = RationalMatrix.from_columns(doubled, n)
        assert Subspace.from_columns(A) == Subspace.from_columns(B)


def test_express_round_trip():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randint(1, 5)
        w = rng.randint(1, 4)
        A = M([[rng.randint(-3, 3) for _ in range(w)] for _ in range(n)])
        S = Subspace.from_columns(A)
        combo = A.apply([rng.randint(-2, 2) for _ in range(A.ncols)])
        coords = S.express(combo)
        assert coords is not NoSolution
        assert S.basis.apply(coords) == combo


def test_express_columns_matches_express():
    A = M([[1, 0], [1, 1], [0, 2]])
    S = Subspace.from_columns(A)
    probe = M([[1, 2], [2, 3], [2, 2]])
    coords = S.express_columns(probe)
    assert coords is not NoSolution
    for j in range(probe.ncols):
        assert coords.column(j) == S.express(probe.column(j))
    outside = M([[1], [0], [0]])
    assert S.express_columns(outside) is NoSolution


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
    third = rat(1) / rat(3)
    assert third * rat(3) == rat(1)
    A = M([[1, 1], [0, 1]]) * third
    assert (A * rat(3)).entry(0, 0) == Rat(1)


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
        assert type(R.rows) is tuple, name
        assert len(R.rows) == R.nrows, name
        for row in R.rows:
            assert type(row) is tuple and len(row) == R.ncols, name
            assert all(type(x) is Rat for x in row), name
        expected = hash((R.nrows, R.ncols, R.rows))
        assert hash(R) == expected, name  # computed
        assert hash(R) == expected, name  # read back from the slot


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
    columns = [[row[j] for row in rows] for j in range(ncols)]
    assert RationalMatrix.from_columns(columns, len(rows)) == A
    v = RationalMatrix.column_vector(columns[0])
    assert all(type(x) is Rat for (x,) in v.rows)


def test_the_public_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2]], 3)
    with pytest.raises(ValueError):
        RationalMatrix([])
    with pytest.raises(ValueError):
        RationalMatrix.from_columns([[1, 2], [3]], 2)  # a column too short
    with pytest.raises(ValueError):
        RationalMatrix.from_columns([[1, 2], [3, 4, 5]], 2)  # one too long
