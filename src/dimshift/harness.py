"""Seeded random instance generation and the verification suites.

All randomness flows from one 64-bit seed: the top-level stream hands
each trial its own sub-seed, which is echoed in the report, so any
single trial can be replayed in isolation.  Generated operators are
conjugates of block canonical forms by small-entry invertible integer
matrices; a bit-length cap triggers regeneration so exact arithmetic
stays desk-scale.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple
from typing import Optional

from .linalg import RationalMatrix, VerificationFailure, inverse
from .modules import (
    FunctorSpec,
    LambdaModule,
    ModuleMap,
    SesModules,
    TruncatedAlgebra,
    _shift_blocks,
    direct_sum,
    free_module,
    hom_basis,
    image_factorization,
    kernel_module,
    simple_module,
)
from .complexes import ModuleComplex
from .resolutions import Resolution, ResolutionRegistry, _glue
from .derived import (
    derived_connecting,
    sign_factor,
    verify_connecting_square,
    verify_shift_step_sign,
    verify_sign_identity,
)
from .serialize import matrix_to_lists

_ENTRY_BIT_CAP = 64
# Draws each regeneration loop makes before it gives up.
_ATTEMPTS = 64


class ConfigError(ValueError):
    """A GeneratorConfig field holds a value the generator rejects."""

    def __init__(self, field: str, requirement: str):
        super().__init__(f"{field} {requirement}")
        self.field = field
        self.requirement = requirement


class GeneratorConfig(namedtuple(
    "GeneratorConfig",
    "seed m max_dim max_padding horizon trials",
    defaults=(0, 2, 8, 2, 4, 50),
)):
    """Knobs for the random instance stream.

    Identical configs produce identical streams.  horizon bounds the
    cohomological degree n exercised by the suites, not the length of
    any particular resolution (those are sized per trial).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field, least in (
            ("m", 2), ("horizon", 2), ("trials", 1), ("max_dim", 1), ("max_padding", 0)
        ):
            if getattr(self, field) < least:
                raise ConfigError(field, f"must be at least {least}")
        return self

    @property
    def algebra(self) -> TruncatedAlgebra:
        return TruncatedAlgebra(self.m)


def _random_invertible(dim: int, rng: random.Random) -> tuple:
    """A random small-entry invertible matrix and its inverse."""
    for _ in range(_ATTEMPTS):
        P = RationalMatrix(
            [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)], dim
        )
        try:
            return P, inverse(P)
        except ValueError:
            continue
    raise VerificationFailure(f"no invertible draw in {_ATTEMPTS} attempts")


def gen_random_module(
    cfg: GeneratorConfig, rng: random.Random, max_dim: Optional[int] = None
) -> LambdaModule:
    """A random module: block canonical form conjugated by a random
    small-entry invertible matrix, regenerated if entries blow past the
    bit cap (they essentially never do at these sizes)."""
    bound = max_dim if max_dim is not None else cfg.max_dim
    dim = rng.randint(1, bound)
    sizes = []
    left = dim
    while left:
        s = rng.randint(1, min(cfg.m, left))
        sizes.append(s)
        left -= s
    X0 = _shift_blocks(sizes, dim)
    for _ in range(_ATTEMPTS):
        P, P_inv = _random_invertible(dim, rng)
        X = P @ (X0 @ P_inv)
        if X.max_bit_length() <= _ENTRY_BIT_CAP:
            return LambdaModule(cfg.algebra, X)
    raise VerificationFailure(f"no conjugate under the bit cap in {_ATTEMPTS} attempts")


def gen_random_functor(cfg: GeneratorConfig, rng: random.Random) -> FunctorSpec:
    """Hom(A, -) with A kept small: hom dimensions scale with dim A, so
    a small source keeps the derived side desk-sized."""
    A = gen_random_module(cfg, rng, max_dim=max(1, min(4, cfg.max_dim)))
    return FunctorSpec(cfg.algebra, A)


def gen_random_map(
    src: LambdaModule, dst: LambdaModule, rng: random.Random
) -> ModuleMap:
    """A random morphism, drawn as an integer combination of the
    intertwiner basis."""
    basis = hom_basis(src, dst)
    coords = [rng.randint(-2, 2) for _ in range(basis.dim)]
    return ModuleMap(src, dst, basis.from_coordinates(coords))


def gen_random_ses(cfg: GeneratorConfig, rng: random.Random) -> SesModules:
    """A random short exact sequence: kernel and image of a random map.

    Degenerate ends (zero kernel or zero image) are regenerated away so
    the sequence genuinely has three nonzero terms most of the time.
    """
    for _ in range(_ATTEMPTS):
        C = gen_random_module(cfg, rng)
        D = gen_random_module(cfg, rng)
        g = gen_random_map(C, D, rng)
        K = kernel_module(g)
        fact = image_factorization(g)
        if K.module.dim == 0 or fact.module.dim == 0:
            continue
        return SesModules(K.inclusion, fact.corestriction)
    # Fall back to a split sequence; cannot fail.
    A = gen_random_module(cfg, rng)
    B = gen_random_module(cfg, rng)
    ds = direct_sum(A, B)
    return SesModules(ds.include_left, ds.project_right)


def gen_padded_resolution(
    M: LambdaModule,
    horizon: int,
    cfg: GeneratorConfig,
    rng: random.Random,
    registry: ResolutionRegistry,
) -> Resolution:
    """The registry resolution of M, direct-summed with up to
    max_padding contractible two-term complexes id: E -> E at random
    degrees.  Still exact, still degreewise injective, but structurally
    different from the registry resolution whenever padding lands.  The
    sum is a twisted sum with zero thetas, so _glue checks it."""
    base = registry.resolution(M, horizon)
    count = rng.randint(0, cfg.max_padding)
    pads = []
    for _ in range(count):
        q = rng.randint(0, horizon - 1)
        E = free_module(cfg.algebra, rng.randint(1, 2))
        pads.append((q, E))
    if not pads:
        return base
    # The pads as one complex, in draw order: a pad at q is E --id--> E
    # in degrees q and q + 1, and a 0 x 0 block elsewhere.
    diag = RationalMatrix.block_diagonal
    zero = RationalMatrix.zeros(0, 0)
    Xs = [[E.X if p in (q, q + 1) else zero for q, E in pads] for p in range(horizon + 1)]
    objects = [LambdaModule(cfg.algebra, diag(row)) for row in Xs]
    differentials = [
        ModuleMap(objects[p], objects[p + 1], diag([
            RationalMatrix.identity(X.nrows) if p == q else RationalMatrix.zeros(Y.nrows, X.nrows)
            for (q, _), X, Y in zip(pads, Xs[p], Xs[p + 1])
        ]))
        for p in range(horizon)
    ]
    pad_complex = ModuleComplex(objects, differentials)
    aug = RationalMatrix.vstack(
        [base.augmentation.matrix, RationalMatrix.zeros(objects[0].dim, M.dim)]
    )
    thetas = [
        RationalMatrix.zeros(base.objects[p + 1].dim, objects[p].dim) for p in range(horizon)
    ]
    return _glue(M, aug, base.complex, pad_complex, thetas).resolution


# ---------------------------------------------------------------------------
# Suites.

class RunReport(namedtuple("RunReport", "config trials passed wall_time_s")):
    """Everything one suite run produced, ready to serialize."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "trials": self.trials,
            "pass": self.passed,
            "wall_time_s": round(self.wall_time_s, 3),
        }


def _trial_seeds(cfg: GeneratorConfig):
    top = random.Random(cfg.seed)
    for _ in range(cfg.trials):
        yield top.randrange(2**32)


def _report(config: dict, trials: list, started: float) -> RunReport:
    passed = all(t["verdict"] == "pass" for t in trials)
    return RunReport(config, trials, passed, time.perf_counter() - started)


def _failure(exc: Exception) -> dict:
    """The failed record of a trial that raised: a broken invariant by
    its message, any other error by its type name and message."""
    error = str(exc) if isinstance(exc, VerificationFailure) else f"{type(exc).__name__}: {exc}"
    return {"verdict": "fail", "error": error}


def _run_suite(suite: str, cfg: GeneratorConfig, trial) -> RunReport:
    """One record per sub-seed: the seed, then what trial(rng) returns.
    A trial that raises gives a failed record with the error, and the
    suite goes on to the next seed."""
    started = time.perf_counter()
    trials = []
    for seed in _trial_seeds(cfg):
        try:
            record = trial(random.Random(seed))
        except Exception as exc:
            record = _failure(exc)
        trials.append({"seed": seed, **record})
    return _report({"suite": suite, **cfg._asdict()}, trials, started)


def run_sign_suite(
    cfg: GeneratorConfig, registry: Optional[ResolutionRegistry] = None
) -> RunReport:
    """Randomized check that the shift isomorphism equals the signed
    comparison isomorphism, trial by trial."""
    registry = registry or ResolutionRegistry()

    def trial(rng):
        F = gen_random_functor(cfg, rng)
        M = gen_random_module(cfg, rng)
        n = rng.randint(1, cfg.horizon)
        J = gen_padded_resolution(M, n + 1, cfg, rng, registry)
        report = verify_sign_identity(F, M, J, n, registry, rng)
        return {
            "n": n,
            "sign": report.sign,
            "verdict": "pass" if report.verdict else "fail",
            "c": matrix_to_lists(report.comparison),
            "d": matrix_to_lists(report.shifted),
        }

    return _run_suite("verify-sign", cfg, trial)


def run_connecting_suite(
    cfg: GeneratorConfig, registry: Optional[ResolutionRegistry] = None
) -> RunReport:
    """Randomized connecting-square suite: the chased connecting map of
    a padded horseshoe agrees with the canonical one through comparison
    isomorphisms, and recomputing through a second independently
    filled horseshoe gives the same matrix."""
    registry = registry or ResolutionRegistry()

    def trial(rng):
        F = gen_random_functor(cfg, rng)
        E = gen_random_ses(cfg, rng)
        p = rng.randint(0, max(0, cfg.horizon - 2))
        RA = gen_padded_resolution(E.sub, p + 2, cfg, rng, registry)
        RB = gen_padded_resolution(E.quot, p + 2, cfg, rng, registry)
        square = verify_connecting_square(F, E, p, registry, RA, RB, rng)
        # Same degree, two more horseshoes over the registry resolutions,
        # fresh random fillings: the chased matrices must coincide.
        d1 = derived_connecting(F, E, p, registry, rng)
        d2 = derived_connecting(F, E, p, registry, rng)
        independent = d1 == d2
        ok = square.verdict and independent
        return {
            "degree": p,
            "square": "pass" if square.verdict else "fail",
            "independent": "pass" if independent else "fail",
            "verdict": "pass" if ok else "fail",
        }

    return _run_suite("lemma-connecting", cfg, trial)


def run_step_sign_suite(
    cfg: GeneratorConfig, registry: Optional[ResolutionRegistry] = None
) -> RunReport:
    """Randomized shift-step suite: every rung of the ladder acts as
    (-1)^(p+1) times the identity, and the rungs multiply out to the
    full sign."""
    registry = registry or ResolutionRegistry()

    def trial(rng):
        F = gen_random_functor(cfg, rng)
        M = gen_random_module(cfg, rng)
        n = rng.randint(1, cfg.horizon)
        J = gen_padded_resolution(M, n + 2, cfg, rng, registry)
        steps = []
        product = 1
        for p in range(n):
            step = verify_shift_step_sign(F, J, n, p, rng)
            product *= step.expected_sign
            steps.append(
                {
                    "p": p,
                    "expected_sign": step.expected_sign,
                    "verdict": "pass" if step.verdict else "fail",
                }
            )
        product_ok = product == sign_factor(n)
        ok = product_ok and all(s["verdict"] == "pass" for s in steps)
        return {
            "n": n,
            "product": "pass" if product_ok else "fail",
            "verdict": "pass" if ok else "fail",
            "steps": steps,
        }

    return _run_suite("lemma-steps", cfg, trial)


def run_demo(m: int, n_max: int) -> RunReport:
    """The worked example: M = k over k[x]/(x^m), F = Hom(k, -).

    Prints nothing itself; returns the table of c^n, d^n, and signs.  A
    degree that raises gives a failed record with the error, as in
    _run_suite, and the table goes on to the next degree.
    """
    started = time.perf_counter()
    algebra = TruncatedAlgebra(m)
    k = simple_module(algebra)
    F = FunctorSpec(algebra, k)
    registry = ResolutionRegistry()
    trials = []
    for n in range(1, n_max + 1):
        try:
            J = registry.resolution(k, n + 1)
            report = verify_sign_identity(F, k, J, n, registry)
        except Exception as exc:
            trials.append({"n": n, **_failure(exc)})
            continue
        trials.append(
            {
                "n": n,
                "sign": report.sign,
                "dim": report.dim,
                "verdict": "pass" if report.verdict else "fail",
                "c": matrix_to_lists(report.comparison),
                "d": matrix_to_lists(report.shifted),
            }
        )
    return _report({"suite": "demo", "m": m, "n": n_max}, trials, started)
