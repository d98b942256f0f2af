"""Injective resolutions and the constructions that compare them.

Everything here is exact through the stated horizon and is verified
on construction: a Resolution will not build unless the augmented
complex is exact in every degree below its horizon.  The horseshoe
filler and the two-term cylinder complex are therefore machine-checked
each time they are produced, not trusted.  A resolution or horseshoe
continued to a longer horizon is checked in its new degrees; the old
ones passed when they were made.

Over k[x]/(x^m) the injectives are exactly the free modules, so
resolutions are built by repeatedly embedding a cokernel into a free
module.  Everything else is one extension problem into a free module,
along any map whose kernel the given map kills: comparison lifts extend
along the source differentials, and the horseshoe filler is a ladder
of such extensions that fills the off-diagonal blocks of the middle
differential.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import Optional

from .linalg import RationalMatrix, VerificationFailure, rank
from .complexes import (
    ChainMap,
    ModuleComplex,
    SesOfComplexes,
    apply_F_complex,
    apply_F_ses,
    cohomology,
    grow,
)
from .modules import (
    FunctorSpec,
    LambdaModule,
    MEMO_SIZE,
    ModuleMap,
    SesModules,
    cokernel_module,
    compose,
    direct_sum,
    embed_into_injective,
    extend_along_mono,
    image_factorization,
)


class Resolution(namedtuple("Resolution", "base augmentation complex")):
    """An exact augmented cochain complex 0 -> base -> J^0 -> J^1 -> ...

    Exactness is validated in degrees 0..horizon-1; degree `horizon`
    is where the truncation cuts, so no claim is made there.
    """

    __slots__ = ()

    def __init__(self, base: LambdaModule, augmentation: ModuleMap, complex: ModuleComplex):
        self._check(0)

    def _check(self, start: int) -> None:
        """Check degrees start..horizon of the augmented complex and trust
        the ones below; exactness in degree p belongs to degree p + 1,
        where d(p) lands."""
        base, augmentation, complex = self
        if start == 0:
            if augmentation.src != base or augmentation.dst != complex.objects[0]:
                raise ValueError("augmentation must run from the base into degree zero")
            if rank(augmentation.matrix) != base.dim:
                raise VerificationFailure("augmentation is not injective")
        if start <= 1 and complex.horizon >= 1:
            if not (complex.differentials[0] @ augmentation.matrix).is_zero():
                raise VerificationFailure("differential does not kill the base")
        lo = max(start - 1, 0)
        incoming = rank(complex.differentials[lo - 1]) if lo else base.dim
        for p in range(lo, complex.horizon):
            outgoing = rank(complex.differentials[p])
            if complex.objects[p].dim - outgoing != incoming:
                raise VerificationFailure(f"resolution is not exact in degree {p}")
            incoming = outgoing

    @property
    def horizon(self) -> int:
        return self.complex.horizon

    @property
    def objects(self):
        return self.complex.objects

    def differential(self, p: int) -> ModuleMap:
        return self.complex.maps[p]

    def truncate(self, horizon: int) -> "Resolution":
        """The first degrees through horizon.  This resolution passed
        its constructor, so the truncation is built with no second
        check."""
        if horizon == self.horizon:
            return self
        return Resolution._make((self.base, self.augmentation, self.complex.truncate(horizon)))

    def __repr__(self):
        return f"Resolution(base dim {self.base.dim}, horizon {self.horizon})"


def injective_resolution(M: LambdaModule, horizon: int) -> Resolution:
    """The deterministic resolution: embed, take the cokernel, repeat."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    augmentation = embed_into_injective(M)
    return _resolve(Resolution(M, augmentation, ModuleComplex([augmentation.dst], [])), horizon)


def _resolve(R: Resolution, horizon: int) -> Resolution:
    """R continued up to the horizon, embedding the cokernel of the last
    map each time; only the new degrees are checked.

    A differential is the next embedding composed with a projection, so
    it has the embedding's image, and cokernels read only the canonical
    basis of the image: a continued build equals a fresh one.
    """
    objects, maps = list(R.objects), list(R.complex.maps)
    last = maps[-1] if maps else R.augmentation
    while len(maps) < horizon:
        coker = cokernel_module(last)
        last = embed_into_injective(coker.module)
        maps.append(compose(last, coker.projection))
        objects.append(last.dst)
    return grow(R, R.base, R.augmentation, grow(R.complex, objects, maps))


def _keep(store: dict, key, value) -> None:
    """Store value as the most recently used entry, evicting the least
    recently used past MEMO_SIZE.  A lookup pops its entry, so keeping
    it again moves it to the end."""
    store[key] = value
    if len(store) > MEMO_SIZE:
        del store[next(iter(store))]


class ResolutionRegistry:
    """Shared cache of results that depend only on content: the
    deterministic resolution of each module, the canonical (rng-free)
    horseshoe of each short exact sequence over those resolutions, its
    F-images, and the canonical connecting maps that
    derived.derived_connecting chases on those F-images.

    The constructions never depend on the requested horizon, so a
    longer request continues the kept build from its last differential
    or theta instead of starting over, and checks only the new degrees;
    a shorter one is served by a longer kept build, and every
    presentation stays aligned across calls.  Each store keeps its
    MEMO_SIZE most recently used entries; since every entry is
    deterministic, one rebuilt after eviction equals the one evicted.
    """

    def __init__(self):
        self._store: dict = {}
        self._horseshoes: dict = {}
        self._images: dict = {}
        self._connecting: dict = {}

    def resolution(self, M: LambdaModule, horizon: int) -> Resolution:
        cached = self._store.pop(M, None)
        if cached is None:
            cached = injective_resolution(M, horizon)
        elif cached.horizon < horizon:
            cached = _resolve(cached, horizon)
        _keep(self._store, M, cached)
        return cached.truncate(horizon)

    def horseshoe(self, E: SesModules, horizon: int) -> "TwistedSum":
        """The canonical horseshoe of E over the registry resolutions,
        through at least the horizon: the kept one, grown if shorter.  A
        first request keeps only the key, since most are never grown."""
        seen = E in self._horseshoes
        kept = self._horseshoes.pop(E, None)
        if kept is None or kept.resolution.horizon < horizon:
            RA = self.resolution(E.sub, horizon)
            RB = self.resolution(E.quot, horizon)
            kept = horseshoe(E, RA, RB, prefix=kept)
        _keep(self._horseshoes, E, kept if seen else None)
        return kept

    def F_image(self, F: FunctorSpec, E: SesModules, horizon: int) -> SesOfComplexes:
        """F of registry.horseshoe(E, horizon): the kept image, continued
        over the new degrees, and kept while the horseshoe is."""
        hs = self.horseshoe(E, horizon)
        kept = self._images.pop((F, E), None)
        if kept is None or kept.horizon < hs.resolution.horizon:
            kept = apply_F_ses(F, hs.ses, kept)
        if self._horseshoes[E] is not None:
            _keep(self._images, (F, E), kept)
        return kept

    def connecting(self, key, chase) -> RationalMatrix:
        """The canonical connecting map kept under key; on a miss, chase()
        builds it with every check."""
        value = self._connecting.pop(key, None)
        if value is None:
            value = chase()
        _keep(self._connecting, key, value)
        return value


# ---------------------------------------------------------------------------
# Splitting a resolution into short exact sequences of cycles.

class ResolutionSplitting(namedtuple(
    "ResolutionSplitting", "inclusions corestrictions sequences"
)):
    """Cycle data of a resolution J down to depth len(sequences).

    inclusions[q] embeds the q-th cycle module Z^q, its source, into J^q
    (inclusions[0] is the augmentation, so Z^0 is the base);
    corestrictions[q] is the differential d^q with its target cut down
    to Z^(q+1), and sequences[q] is the short exact sequence
    0 -> Z^q -> J^q -> Z^(q+1) -> 0.
    """

    __slots__ = ()


def split_resolution(J: Resolution, depth: int) -> ResolutionSplitting:
    if not 0 <= depth <= J.horizon:
        raise ValueError("splitting depth out of range")
    inclusions = [J.augmentation]
    corestrictions = []
    sequences = []
    for q in range(depth):
        d = J.differential(q)
        fact = image_factorization(d)
        if fact.inclusion.matrix @ fact.corestriction.matrix != d.matrix:
            raise VerificationFailure("cycle factorization does not recompose")
        corestrictions.append(fact.corestriction)
        sequences.append(SesModules(inclusions[q], fact.corestriction))
        inclusions.append(fact.inclusion)
    return ResolutionSplitting(tuple(inclusions), tuple(corestrictions), tuple(sequences))


# ---------------------------------------------------------------------------
# Twisted direct sums: the horseshoe filler and the two-term cylinder.

class TwistedSum(namedtuple("TwistedSum", "resolution ses")):
    """A resolution whose degree-p object is sub^p (+) quot^p, with the
    degreewise-split sequence 0 -> sub -> resolution -> quot -> 0."""

    __slots__ = ()


def _glue(
    base: LambdaModule,
    aug: RationalMatrix,
    sub: ModuleComplex,
    quot: ModuleComplex,
    thetas: list,
    prefix: Optional[TwistedSum] = None,
) -> TwistedSum:
    """The twisted direct sum of sub and quot, augmented from base by aug:
    degree p is sub^p (+) quot^p with differential [[d_sub, theta^p],
    [0, d_quot]].  prefix, this sum through a lower horizon, is
    continued by the thetas past it; without one, degree zero is built
    first.  The new degrees are checked, and only they: d o d = 0 and
    augmented exactness by the Resolution, the split squares by the
    chain maps, and degreewise exactness by the sequence of complexes."""
    if prefix is None:
        s0 = direct_sum(sub.objects[0], quot.objects[0])
        R = Resolution(base, ModuleMap(base, s0.module, aug), ModuleComplex([s0.module], []))
        prefix = TwistedSum(R, SesOfComplexes(
            ChainMap(sub.truncate(0), R.complex, [s0.include_left]),
            ChainMap(R.complex, quot.truncate(0), [s0.project_right]),
        ))
    R, S = prefix
    h = R.horizon
    sums = [direct_sum(A, B) for A, B in zip(sub.objects[h + 1 :], quot.objects[h + 1 :])]
    objects = R.objects + tuple(s.module for s in sums)
    maps = list(R.complex.maps)
    for p, theta in enumerate(thetas, h):
        dA, dB = sub.differentials[p], quot.differentials[p]
        zero = RationalMatrix.zeros(dB.nrows, dA.ncols)
        block = RationalMatrix.block([[dA, theta], [zero, dB]])
        maps.append(ModuleMap(objects[p], objects[p + 1], block))
    mid = grow(R.complex, objects, maps)
    include = S.sub_to_mid.maps + tuple(s.include_left for s in sums)
    project = S.mid_to_quot.maps + tuple(s.project_right for s in sums)
    return TwistedSum(
        grow(R, R.base, R.augmentation, mid),
        grow(S, grow(S.sub_to_mid, sub, mid, include), grow(S.mid_to_quot, mid, quot, project)),
    )


def horseshoe(
    E: SesModules,
    sub_resolution: Resolution,
    quot_resolution: Resolution,
    rng: Optional[random.Random] = None,
    prefix: Optional[TwistedSum] = None,
) -> TwistedSum:
    """Fill the middle column over resolutions of the outer terms.

    The middle differential is [[d_A, theta^p], [0, d_B]], and
    d o d = 0 makes each theta an extension problem into an injective:
    t extends e_A along iota and augments the middle by (t, e_B o pi);
    theta^0 extends -d_A^0 o t along e_B o pi, and theta^p extends
    -d_A^p o theta^(p-1) along d_B^(p-1).  Each right-hand side kills
    the kernel it must, by exactness of the outer resolutions.  rng
    varies every extension; the connecting maps do not depend on it.

    prefix, a horseshoe of E over truncations of the same resolutions,
    is continued: the ladder starts from its last theta, read off its
    top differential, so only the new thetas are solved and only the
    new degrees are checked.  A prefix of horizon 0 holds no theta, and
    the fill starts afresh.
    """
    if sub_resolution.base != E.sub or quot_resolution.base != E.quot:
        raise ValueError("resolutions do not match the sequence ends")
    h = min(sub_resolution.horizon, quot_resolution.horizon)
    RA = sub_resolution.truncate(h)
    RB = quot_resolution.truncate(h)
    k = prefix.resolution.horizon if prefix is not None else 0
    if k:
        if k > h or (prefix.resolution.base, prefix.ses.sub, prefix.ses.quot) != (
            E.mid, RA.complex.truncate(k), RB.complex.truncate(k)
        ):
            raise ValueError("prefix is not a horseshoe over these resolutions")
        aug = prefix.resolution.augmentation.matrix
        top = prefix.resolution.differential(k - 1).matrix
        prev = top.take(range(RA.objects[k].dim), range(RA.objects[k - 1].dim, top.ncols))
        along = RB.differential(k - 1)
    else:
        prefix = None
        prev = extend_along_mono(E.a_to_c, RA.augmentation, rng).matrix
        along = compose(RB.augmentation, E.c_to_b)
        aug = RationalMatrix.vstack([prev, along.matrix])
    thetas = []
    for p in range(k, h):
        # -d_A^p o theta^(p-1): both factors intertwine, so no second check.
        rhs = ModuleMap._make((along.src, RA.objects[p + 1], -(RA.differential(p).matrix @ prev)))
        prev = extend_along_mono(along, rhs, rng).matrix
        thetas.append(prev)
        along = RB.differential(p)
    return _glue(E.mid, aug, RA.complex, RB.complex, thetas, prefix)


# ---------------------------------------------------------------------------
# Comparison lifts.

def lift_resolution_map(
    phi: ModuleMap,
    src_resolution: Resolution,
    dst_resolution: Resolution,
    rng: Optional[random.Random] = None,
) -> ChainMap:
    """Lift a map of bases to a chain map of resolutions.

    Degree zero extends (dst augmentation) o phi along the source
    augmentation; each later degree extends d_T o (the previous
    component) along the source differential, whose kernel it kills
    by exactness.  The target resolution must be degreewise injective.
    Any rng variation stays within chain maps of the same homotopy
    class.
    """
    if phi.src != src_resolution.base or phi.dst != dst_resolution.base:
        raise ValueError("map endpoints do not match the resolutions")
    h = min(src_resolution.horizon, dst_resolution.horizon)
    RS = src_resolution.truncate(h)
    RT = dst_resolution.truncate(h)
    components = [extend_along_mono(RS.augmentation, compose(RT.augmentation, phi), rng)]
    for p in range(h):
        w = compose(RT.differential(p), components[p])
        components.append(extend_along_mono(RS.differential(p), w, rng))
    return ChainMap(RS.complex, RT.complex, components)


# ---------------------------------------------------------------------------
# The two-term cylinder resolution of a cycle object.

def cylinder_resolution(J: Resolution, i: int) -> TwistedSum:
    """L^p = J^(i+p) (+) J^(i+p+1) with differential blocks
    [[d, (-1)^(p+1) id], [0, d]], augmented by (id, d^i) from J^i,
    between the two shifted tails of J, for 0 <= i < J.horizon.

    The sign alternates so that the squares close; _glue checks
    d o d = 0, augmented exactness and the surrounding sequence.
    """
    h = J.horizon - i - 1
    if i < 0 or h < 0:
        raise ValueError("cylinder index out of range")
    head = J.complex.slice(i, i + h)
    tail = J.complex.slice(i + 1, i + h + 1)
    thetas = [
        RationalMatrix.identity(J.objects[i + p + 1].dim) * (-1) ** (p + 1)
        for p in range(h)
    ]
    aug = RationalMatrix.vstack(
        [RationalMatrix.identity(J.objects[i].dim), J.differential(i).matrix]
    )
    return _glue(J.objects[i], aug, head, tail, thetas)


# ---------------------------------------------------------------------------
# Acyclicity.

def is_F_acyclic(
    F: FunctorSpec, M: LambdaModule, horizon: int, registry: ResolutionRegistry
) -> bool:
    """Whether the right derived functors of F vanish on M in degrees
    1..horizon, computed from the registry resolution."""
    R = registry.resolution(M, horizon + 1)
    FC = apply_F_complex(F, R.complex)
    return all(cohomology(FC, q).dim == 0 for q in range(1, horizon + 1))
