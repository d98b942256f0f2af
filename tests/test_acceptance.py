"""Acceptance gate: one test and one printed verdict line per criterion.

Each criterion announces its own pass/fail line on the real stdout so
the verdicts stay visible in piped output even while pytest captures
test prints.  A failed assertion carries the same line.
"""

import random
import time

from dimshift.linalg import Rat, RationalMatrix
from dimshift.modules import (
    FunctorSpec,
    LambdaModule,
    TruncatedAlgebra,
    apply_F_object,
    check_left_exactness,
    free_module,
    hom_basis,
    identity_map,
    simple_module,
)
from dimshift.complexes import (
    NotHomotopic,
    apply_F_complex,
    apply_F_ses,
    find_homotopy,
    homotopy_defect,
    snake_delta_matrix,
)
from dimshift.resolutions import (
    ResolutionRegistry,
    cylinder_resolution,
    horseshoe,
    lift_resolution_map,
)
from dimshift.derived import (
    comparison_iso,
    derived_functor,
    dimension_shift_iso,
    sign_factor,
    verify_shift_step_sign,
)
from dimshift.harness import (
    GeneratorConfig,
    _random_invertible,
    gen_padded_resolution,
    gen_random_functor,
    gen_random_module,
    gen_random_ses,
    run_connecting_suite,
    run_demo,
    run_sign_suite,
    run_step_sign_suite,
)
from dimshift.serialize import dumps

from fraction_oracle import gauss_rank, frac_rows, matrix_rank, socle_dim


def announce(capsys, criterion, ok, detail):
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_sign_table(capsys):
    expected = [-1, -1, 1, 1, -1, -1, 1, 1]
    computed = [sign_factor(n) for n in range(1, 9)]
    report = run_demo(2, 8)
    verified = [t["sign"] for t in report.trials]
    ok = computed == expected and verified == expected and report.passed
    announce(capsys, "criterion 1 (sign table n=1..8)", ok, f"signs {computed}")


def test_criterion_2_worked_example(capsys):
    started = time.monotonic()
    algebra = TruncatedAlgebra(2)
    k = simple_module(algebra)
    F = FunctorSpec(algebra, k)
    registry = ResolutionRegistry()
    ok = True
    for n in range(1, 7):
        J = registry.resolution(k, n + 1)
        c = comparison_iso(F, k, J, n, registry)
        d = dimension_shift_iso(F, k, J, n, registry)
        ok = ok and c == RationalMatrix.identity(1)
        ok = ok and d == RationalMatrix([[Rat(sign_factor(n))]], 1)
        # Independent oracle: F of the resolution is the socle complex,
        # whose ranks are recomputed from scratch.
        FJ = apply_F_complex(F, registry.resolution(k, n + 1).complex)
        dim_n = socle_dim(J.objects[n])
        rank_out = matrix_rank(FJ.differentials[n])
        rank_in = matrix_rank(FJ.differentials[n - 1])
        ok = ok and dim_n - rank_out - rank_in == 1
        ok = ok and derived_functor(F, k, n + 1, registry).dim(n) == 1
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 5.0
    announce(
        capsys,
        "criterion 2 (worked example n=1..6)", ok, f"{elapsed:.2f}s < 5s"
    )


def test_criterion_3_randomized_sign_trials(capsys):
    started = time.monotonic()
    r2 = run_sign_suite(GeneratorConfig(seed=31, m=2, max_dim=12, horizon=4, trials=50))
    r3 = run_sign_suite(GeneratorConfig(seed=32, m=3, max_dim=12, horizon=4, trials=50))
    elapsed = time.monotonic() - started
    ok = r2.passed and r3.passed and elapsed < 120.0
    announce(
        capsys,
        "criterion 3 (100 sign trials, m in {2,3}, dim <= 12)",
        ok,
        f"{elapsed:.2f}s < 120s",
    )


def test_criterion_4_connecting_squares(capsys):
    started = time.monotonic()
    r2 = run_connecting_suite(
        GeneratorConfig(seed=41, m=2, max_dim=8, horizon=4, trials=50)
    )
    r3 = run_connecting_suite(
        GeneratorConfig(seed=42, m=3, max_dim=8, horizon=4, trials=50)
    )
    elapsed = time.monotonic() - started
    ok = r2.passed and r3.passed and elapsed < 120.0
    announce(
        capsys,
        "criterion 4 (100 connecting squares + middle independence)",
        ok,
        f"{elapsed:.2f}s < 120s",
    )


def test_criterion_5_cylinder_steps(capsys):
    started = time.monotonic()
    algebra = TruncatedAlgebra(2)
    k = simple_module(algebra)
    F = FunctorSpec(algebra, k)
    registry = ResolutionRegistry()
    ok = True
    # Explicit ladder at n = 4: every p = 0..3, fully deterministic.
    n = 4
    J = registry.resolution(k, n + 2)
    product = 1
    for p in range(n):
        cyl = cylinder_resolution(J, n - p - 1)
        L = cyl.resolution
        # d o d = 0 and augmented exactness, re-checked by the oracle.
        aug = L.augmentation.matrix
        ok = ok and (L.differential(0).matrix @ aug).is_zero()
        incoming = matrix_rank(aug)
        ok = ok and incoming == L.base.dim
        for q in range(L.horizon):
            d = L.differential(q).matrix
            if q + 1 <= L.horizon - 1:
                nxt = L.differential(q + 1).matrix
                ok = ok and (nxt @ d).is_zero()
            ok = ok and L.objects[q].dim - matrix_rank(d) == incoming
            incoming = matrix_rank(d)
        step = verify_shift_step_sign(F, J, n, p)
        ok = ok and step.verdict and step.expected_sign == (-1) ** (p + 1)
        product *= step.expected_sign
    ok = ok and product == sign_factor(n)
    # Randomized coverage on both truncation orders.
    s2 = run_step_sign_suite(GeneratorConfig(seed=51, m=2, max_dim=7, horizon=4, trials=15))
    s3 = run_step_sign_suite(GeneratorConfig(seed=52, m=3, max_dim=6, horizon=3, trials=10))
    ok = ok and s2.passed and s3.passed
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    announce(
        capsys,
        "criterion 5 (cylinder ladder signs, p = 0..3)", ok, f"{elapsed:.2f}s < 60s"
    )


def test_criterion_6_structural_property_suites(capsys):
    started = time.monotonic()
    ok = True

    # (a) d o d = 0 on 100 functor images of padded resolutions.
    rng = random.Random(61)
    cfg = GeneratorConfig(seed=0, m=2, max_dim=8, max_padding=2)
    registry = ResolutionRegistry()
    for _ in range(100):
        F = gen_random_functor(cfg, rng)
        Mod = gen_random_module(cfg, rng)
        J = gen_padded_resolution(Mod, 3, cfg, rng, registry)
        FC = apply_F_complex(F, J.complex)
        for p in range(FC.horizon - 1):
            ok = ok and (FC.differentials[p + 1] @ FC.differentials[p]).is_zero()

    # (b) 100 hom-basis elements intertwine.
    rng = random.Random(62)
    cfg3 = GeneratorConfig(seed=0, m=3, max_dim=7)
    seen = 0
    while seen < 100:
        A = gen_random_module(cfg3, rng)
        B = gen_random_module(cfg3, rng)
        basis = hom_basis(A, B)
        for i in range(basis.dim):
            el = basis.element(i)
            ok = ok and el @ A.X == B.X @ el
            seen += 1
            if seen == 100:
                break

    # (c) rank-nullity on 100 random matrices, against the oracle.
    from dimshift.linalg import kernel_basis, rank

    rng = random.Random(63)
    for _ in range(100):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        A = RationalMatrix(
            [[Rat(rng.randint(-4, 4)) for _ in range(c)] for _ in range(r)], c
        )
        ok = ok and rank(A) + kernel_basis(A).ncols == A.ncols
        ok = ok and rank(A) == gauss_rank(frac_rows(A))

    # (d) any two comparison lifts are homotopic: 100 pairs.
    rng = random.Random(64)
    registry = ResolutionRegistry()
    for _ in range(100):
        Mod = gen_random_module(cfg, rng)
        J = gen_padded_resolution(Mod, 3, cfg, rng, registry)
        I = registry.resolution(Mod, 3)
        f = lift_resolution_map(identity_map(Mod), J, I, rng)
        g = lift_resolution_map(identity_map(Mod), J, I, rng)
        h = find_homotopy(f, g)
        ok = ok and h is not NotHomotopic
        if h is not NotHomotopic:
            for p in range(f.horizon):
                ok = ok and homotopy_defect(f, g, h, p).is_zero()

    # (e) snake chases do not depend on lift choices: 100 repeats.
    rng = random.Random(65)
    registry = ResolutionRegistry()
    count = 0
    while count < 100:
        F = gen_random_functor(cfg, rng)
        E = gen_random_ses(cfg, rng)
        hs = horseshoe(
            E, registry.resolution(E.sub, 3), registry.resolution(E.quot, 3), rng
        )
        FS = apply_F_ses(F, hs.ses)
        for i in range(2):
            base = snake_delta_matrix(FS, i)
            ok = ok and snake_delta_matrix(FS, i, rng) == base
            count += 1

    # (f) F is left exact on 100 random short exact sequences.
    rng = random.Random(66)
    for _ in range(50):
        F = gen_random_functor(cfg, rng)
        ok = ok and check_left_exactness(F, gen_random_ses(cfg, rng))
    for _ in range(50):
        F = gen_random_functor(cfg3, rng)
        ok = ok and check_left_exactness(F, gen_random_ses(cfg3, rng))

    # (g) higher derived functors vanish on 100 injectives.
    rng = random.Random(67)
    registry = ResolutionRegistry()
    for _ in range(100):
        m = rng.choice((2, 3))
        algebra = TruncatedAlgebra(m)
        E0 = free_module(algebra, rng.randint(1, 2))
        P, P_inv = _random_invertible(E0.dim, rng)
        E = LambdaModule(algebra, P @ (E0.X @ P_inv))
        F = FunctorSpec(algebra, simple_module(algebra))
        value = derived_functor(F, E, 3, registry)
        ok = ok and value.dim(0) == apply_F_object(F, E).dim
        ok = ok and value.dim(1) == 0 and value.dim(2) == 0

    elapsed = time.monotonic() - started
    ok = ok and elapsed < 180.0
    announce(
        capsys,
        "criterion 6 (seven structural suites, >= 100 cases each)",
        ok,
        f"{elapsed:.2f}s < 180s",
    )


def test_criterion_7_report_determinism(capsys):
    cfg = GeneratorConfig(seed=71, m=2, max_dim=7, horizon=3, trials=10)
    first = run_sign_suite(cfg).to_json_dict()
    second = run_sign_suite(cfg).to_json_dict()
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    bytes_equal = dumps(first).encode() == dumps(second).encode()
    ccfg = GeneratorConfig(seed=72, m=2, max_dim=6, horizon=3, trials=5)
    c1 = run_connecting_suite(ccfg).to_json_dict()
    c2 = run_connecting_suite(ccfg).to_json_dict()
    c1.pop("wall_time_s")
    c2.pop("wall_time_s")
    bytes_equal = bytes_equal and dumps(c1).encode() == dumps(c2).encode()
    seeds_echoed = all("seed" in t for t in first["trials"])
    ok = bytes_equal and seeds_echoed
    announce(
        capsys,
        "criterion 7 (byte-identical reports modulo timing)",
        ok,
        "two runs per suite compared",
    )
