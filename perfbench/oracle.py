"""Independent checks of the verifying commands' reports.

Everything here is plain `fractions` and `random`; nothing imports
dimshift.  The sign trials are regenerated from the sub-seed echoed in
each report, by a replica of the program's instance generator, and the
reported matrices are checked against closed forms over k[x]/(x^m):

- block sizes of a module come from the ranks of the powers of X;
- dim Ext^n(k[x]/x^a, k[x]/x^b) = min(a, b, m - a, m - b) for n >= 1,
  summed over pairs of blocks, is the side of the comparison matrix c;
- c is invertible and d = (-1)^((n^2 + n) / 2) c entry by entry.

Each check returns a list of problems; an empty list means the report
agrees with the independent computation.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The program regenerates a module whose entries pass this many bits.
ENTRY_BIT_CAP = 64


def triangular_sign(n: int) -> int:
    """(-1)^((n^2 + n) / 2)."""
    return -1 if (n * (n + 1) // 2) % 2 else 1


def step_sign(p: int) -> int:
    """(-1)^(p + 1), the sign of one rung of the shift ladder."""
    return -1 if (p + 1) % 2 else 1


# ---------------------------------------------------------------------------
# Plain-fraction linear algebra on lists of rows.

def matmul(A: list, B: list) -> list:
    cols = len(B[0]) if B else 0
    return [
        [sum((a * B[k][j] for k, a in enumerate(row) if a), Fraction(0)) for j in range(cols)]
        for row in A
    ]


def rank(rows: list) -> int:
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def inverse(rows: list):
    """Inverse of a square matrix by Gauss-Jordan, or None if singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            f = aug[i][c]
            if i != c and f:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [r[n:] for r in aug]


def max_bit_length(rows: list) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for r in rows for x in r),
        default=0,
    )


# ---------------------------------------------------------------------------
# Replica of the instance generator and the closed forms.

def random_module(rng: random.Random, m: int, bound: int) -> list:
    """The operator X of a random module, drawn exactly as the program
    draws it: a block shift conjugated by a random invertible matrix
    with entries in -2..2, redrawn while singular or past the bit cap."""
    dim = rng.randint(1, bound)
    sizes = []
    left = dim
    while left:
        s = rng.randint(1, min(m, left))
        sizes.append(s)
        left -= s
    X0 = [[Fraction(0)] * dim for _ in range(dim)]
    off = 0
    for j in sizes:
        for t in range(j - 1):
            X0[off + t + 1][off + t] = Fraction(1)
        off += j
    while True:
        while True:
            P = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
            P_inv = inverse(P)
            if P_inv is not None:
                break
        X = matmul(P, matmul(X0, P_inv))
        if max_bit_length(X) <= ENTRY_BIT_CAP:
            return X


def trial_inputs(sub_seed: int, m: int, max_dim: int, horizon: int) -> tuple:
    """(X of A, X of M, n) for the sign and shift-step trials, which
    both open with F = Hom(A, -), then M, then the degree n."""
    rng = random.Random(sub_seed)
    A = random_module(rng, m, max(1, min(4, max_dim)))
    M = random_module(rng, m, max_dim)
    n = rng.randint(1, horizon)
    return A, M, n


def block_sizes(X: list, m: int) -> list:
    """Sizes of the cyclic blocks of a nilpotent X with X^m = 0, read off
    the ranks r_k of X^k: r_(k-1) - r_k blocks have size at least k."""
    dim = len(X)
    ranks = [dim]
    power = X
    for _ in range(m):
        ranks.append(rank(power) if dim else 0)
        power = matmul(power, X)
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, m + 1)] + [0]
    sizes = []
    for k in range(m, 0, -1):
        sizes += [k] * (at_least[k - 1] - at_least[k])
    return sizes


def ext_dim(a_sizes: list, b_sizes: list, m: int, n: int) -> int:
    """dim Ext^n(A, B) over k[x]/(x^m) from the block sizes of A and B."""
    if n == 0:
        return sum(min(a, b) for a in a_sizes for b in b_sizes)
    return sum(min(a, b, m - a, m - b) for a in a_sizes for b in b_sizes)


def parse_matrix(rows: list) -> list:
    return [[Fraction(x) for x in row] for row in rows]


# ---------------------------------------------------------------------------
# Checks of one trial record each.

def check_sign_trial(trial: dict, m: int, max_dim: int, horizon: int) -> list:
    """A verify-sign trial against its regenerated inputs."""
    A, M, n = trial_inputs(trial["seed"], m, max_dim, horizon)
    where = f"sign trial seed {trial['seed']}"
    if trial["n"] != n:
        return [f"{where}: degree {trial['n']}, regenerated {n}"]
    problems = []
    side = ext_dim(block_sizes(A, m), block_sizes(M, m), m, n)
    c = parse_matrix(trial["c"])
    d = parse_matrix(trial["d"])
    if len(c) != side or any(len(row) != side for row in c):
        problems.append(f"{where}: c is not {side}x{side}")
    elif rank(c) != side:
        problems.append(f"{where}: c is singular")
    s = triangular_sign(n)
    if trial["sign"] != s:
        problems.append(f"{where}: sign {trial['sign']}, expected {s}")
    if d != [[s * x for x in row] for row in c]:
        problems.append(f"{where}: d is not {s:+d} times c")
    return problems


def check_demo_trial(trial: dict, n: int) -> list:
    """The worked example: c = [[1]] and d = [[sign(n)]] at degree n."""
    s = triangular_sign(n)
    where = f"demo degree {n}"
    if trial["n"] != n:
        return [f"{where}: trial reports degree {trial['n']}"]
    problems = []
    if trial["sign"] != s:
        problems.append(f"{where}: sign {trial['sign']}, expected {s}")
    if parse_matrix(trial["c"]) != [[1]]:
        problems.append(f"{where}: c = {trial['c']}, expected [[1]]")
    if parse_matrix(trial["d"]) != [[s]]:
        problems.append(f"{where}: d = {trial['d']}, expected [[{s}]]")
    return problems


def check_steps_trial(trial: dict, m: int, max_dim: int, horizon: int) -> list:
    """A shift-step trial: rungs p = 0..n-1, each of sign (-1)^(p+1),
    multiplying out to the triangular sign of n."""
    _, _, n = trial_inputs(trial["seed"], m, max_dim, horizon)
    where = f"steps trial seed {trial['seed']}"
    if trial["n"] != n:
        return [f"{where}: degree {trial['n']}, regenerated {n}"]
    problems = []
    steps = trial["steps"]
    if [s["p"] for s in steps] != list(range(n)):
        problems.append(f"{where}: rungs {[s['p'] for s in steps]}, expected 0..{n - 1}")
    product = 1
    for s in steps:
        product *= s["expected_sign"]
        if s["expected_sign"] != step_sign(s["p"]):
            problems.append(f"{where}: rung {s['p']} has sign {s['expected_sign']}")
    if product != triangular_sign(n):
        problems.append(f"{where}: rungs multiply to {product}, expected {triangular_sign(n)}")
    if trial["product"] != "pass":
        problems.append(f"{where}: the program reports a wrong product")
    return problems


def check_connecting_trial(trial: dict, horizon: int) -> list:
    if not 0 <= trial["degree"] <= max(0, horizon - 2):
        return [f"connecting trial seed {trial['seed']}: degree {trial['degree']} out of range"]
    return []


# ---------------------------------------------------------------------------
# Whole reports.

def check_report(argv: list, report: dict) -> tuple:
    """(attempted, failed, problems) for the report one verifying command
    wrote.  A trial whose verdict is not "pass" counts as failed; every
    other trial must agree with the independent computation."""
    command = argv[0]
    flags = {argv[i].lstrip("-"): int(argv[i + 1]) for i in range(1, len(argv), 2)}
    trials = report["trials"]
    problems = []
    if command == "demo":
        expected = flags["n"]
    elif command == "verify-lemmas":
        expected = 2 * flags["trials"]
    else:
        expected = flags["trials"]
    if len(trials) != expected:
        problems.append(f"{command}: {len(trials)} trials, expected {expected}")
    failed = 0
    for index, trial in enumerate(trials):
        if trial["verdict"] != "pass":
            failed += 1
            continue
        if command == "demo":
            problems += check_demo_trial(trial, index + 1)
        elif command == "verify-sign":
            problems += check_sign_trial(trial, flags["m"], flags["max-dim"], flags["horizon"])
        elif trial["part"] == "steps":
            problems += check_steps_trial(trial, flags["m"], flags["max-dim"], flags["horizon"])
        else:
            problems += check_connecting_trial(trial, flags["horizon"])
    if report["pass"] != (failed == 0):
        problems.append(f"{command}: aggregate verdict disagrees with the trials")
    return len(trials), failed, problems
