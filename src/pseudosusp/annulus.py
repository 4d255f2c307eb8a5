"""Deck-equivariant lifted annulus maps and their estimators.

The strip is [0,1] x R with the sum metric; the angular coordinate is the
R/Z factor, and rotation numbers are measured on its lift.  Maps are pipelines
of primitives acting on floats; a twist or a reparam holds a float `pl.PL`
and reads it with `pl_at`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Union

from .config import ConfigError
from .pl import PL, pl_at


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

class RigidRotation(NamedTuple):
    beta: float

    def apply(self, t, r):
        return t, r + self.beta


class Twist(NamedTuple):
    """Angular displacement depending on the radial coordinate: r moves by
    the float PL profile at t."""

    profile: PL

    def apply(self, t, r):
        return t, r + pl_at(self.profile, t)


class RadialReparam:
    """Increasing PL reparametrization of the radial factor, fixing 0 and 1."""

    __slots__ = ("profile",)

    def __init__(self, profile: PL):
        ys = [y for _, y in profile]
        if ys[0] != 0.0 or ys[-1] != 1.0 or any(b >= a for a, b in zip(ys[1:], ys)):
            raise ValueError("radial reparametrization must increase from 0 to 1")
        self.profile = profile

    def apply(self, t, r):
        return pl_at(self.profile, t), r


class DeckCover(NamedTuple):
    """q-fold covering composite: conjugate the angular lift by r -> r/q, then
    rotate by p/q.  Equivariant as a whole even though the bare scaling is not."""

    inner: LiftedAnnulusMap
    q: int
    p: int

    def apply(self, t, r):
        t2, r2 = self.inner.apply(t, r * self.q)
        return t2, r2 / self.q + self.p / self.q


Primitive = Union[RigidRotation, Twist, RadialReparam, DeckCover]


class LiftedAnnulusMap(NamedTuple):
    """Composition pipeline; the first primitive acts first."""

    pipeline: tuple[Primitive, ...]

    def apply(self, t, r):
        for prim in self.pipeline:
            t, r = prim.apply(t, r)
        return t, r


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def rotation_estimate(m: LiftedAnnulusMap, t: float, r: float,
                      n_max: int) -> list[tuple[int, float]]:
    """Birkhoff quotients (lift displacement)/n along the orbit of (t, r)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    out = []
    t_cur, r_cur = t, r
    for n in range(1, n_max + 1):
        t_cur, r_cur = m.apply(t_cur, r_cur)
        out.append((n, (r_cur - r) / n))
    return out


def fixes_t(m: LiftedAnnulusMap) -> bool:
    """Whether m is a pipeline of rotations and twists.  Such a map fixes t,
    so every step adds the same increments to r: each rotation's beta and
    each twist's profile at t, in pipeline order."""
    return all(isinstance(prim, (RigidRotation, Twist)) for prim in m.pipeline)


def orbit(m: LiftedAnnulusMap, t: float, r: float,
          n: int) -> list[tuple[float, float, int]]:
    """(t, r, w) of (t, r) and its first n iterates under m, each r reduced
    to [0, 1) by its floor and w the sum of the floors taken so far.  A map
    that fixes t is stepped by adding its increments, with the float
    additions `m.apply` makes; any other map by `m.apply`."""
    floor = math.floor
    w = floor(r)
    r = r - w + 0.0  # + 0.0 reads a start r of -0.0 as 0.0
    if r == 1.0:  # r in [-2^-54, 0) rounds up to 1.0
        r, w = 0.0, w + 1
    out = [(t, r, w)]
    append = out.append
    if fixes_t(m):
        steps = [prim.beta if isinstance(prim, RigidRotation) else pl_at(prim.profile, t)
                 for prim in m.pipeline]
        for _ in range(n):
            for d in steps:
                r += d
            k = floor(r)
            r -= k
            if r == 1.0:
                r, k = 0.0, k + 1
            w += k
            append((t, r, w))
        return out
    apply = m.apply
    for _ in range(n):
        t, r = apply(t, r)
        k = floor(r)
        r -= k
        if r == 1.0:
            r, k = 0.0, k + 1
        w += k
        append((t, r, w))
    return out


def rotation_family(bits: tuple[int, ...], eps: float) -> tuple[float, list[float]]:
    """Injective rotation-number family from a 0/1 word.

    Schedule b_n = (eps/4) * 8^-n; bit 1 contributes b_n, bit 0 contributes
    b_n/3.  The geometric tail ratio is 1/7 < 1/6, so the schedule satisfies
    positivity, total < eps/2, and tail-after-n < b_n/6."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if len(bits) == 0:
        raise ValueError("bits must be nonempty")
    schedule = [(eps / 4.0) * 8.0 ** (-(n + 1)) for n in range(len(bits))]
    alpha = sum(b if x else b / 3.0 for b, x in zip(schedule, bits))
    return alpha, schedule


def cover_lift(m: LiftedAnnulusMap, q: int, p: int) -> LiftedAnnulusMap:
    if not isinstance(q, int) or q < 1:
        raise ConfigError("cover degree q must be an integer >= 1")
    if q == 1 and p == 0:
        return m
    return LiftedAnnulusMap((DeckCover(m, q, p),))
