"""Deck-equivariant lifted annulus maps and their estimators.

The strip is [0,1] x R with the sum metric; the angular coordinate is the
R/Z factor, and rotation numbers are measured on its lift.  Maps are pipelines
of primitives acting on floats; a twist or a reparam holds a float `pl.PL`
and reads it with `pl_at`.  `build_map` builds the float map of a config's
`map.map`, and the `rotation`, `suspend-orbit` and `rotation-family`
subcommands live here; they import `cli` when run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Union

from .config import ConfigError, parse_map
from .pl import PL, pl_at, pl_check

if TYPE_CHECKING:
    from .config import RunConfig


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


# ---------------------------------------------------------------------------
# the float map of map.map, and the subcommands that step it
# ---------------------------------------------------------------------------

def build_map(cfg: RunConfig) -> LiftedAnnulusMap:
    """The float map of `map.map`.  A value too large for a float is a
    config error naming map.map."""
    pieces, cover = parse_map(cfg)
    pipeline = []
    for name, value in pieces:
        try:
            if name == "rotation":
                prim = RigidRotation(float(value))
            else:
                # checked again: float() can merge two distinct breakpoints
                profile = pl_check((float(x), float(y)) for x, y in value)
                prim = Twist(profile) if name == "twist" else RadialReparam(profile)
        except OverflowError as exc:
            raise ConfigError(f"map.map: {name} value too large for a float") from exc
        except ValueError as exc:
            raise ConfigError(f"map.map: {name} {exc}") from exc
        pipeline.append(prim)
    m = LiftedAnnulusMap(tuple(pipeline))
    if cover is None:
        return m
    q, p = cover
    try:
        p / q  # the float shift that `DeckCover.apply` adds
    except OverflowError as exc:
        raise ConfigError("map.map: cover value too large for a float") from exc
    return cover_lift(m, q, p)


def cmd_rotation(args, cfg: RunConfig) -> int:
    from .cli import EXIT_OK, FLOAT, _out_path, _write_csv

    m = build_map(cfg)
    n = cfg.get("experiment", "n")
    rows = rotation_estimate(m, cfg.get("orbit", "t"), cfg.get("orbit", "r"), n)
    out = _out_path(args, cfg)
    _write_csv(out, {"n": "%s", "estimate": FLOAT}, rows)
    print(f"rotation: estimate {rows[-1][1]:.9g} at n={n} -> {out}")
    return EXIT_OK


def cmd_suspend_orbit(args, cfg: RunConfig) -> int:
    from .cli import EXIT_OK, FLOAT, _out_path, _write_csv

    m = build_map(cfg)
    t, r = cfg.get("orbit", "t"), cfg.get("orbit", "r")
    n = cfg.get("orbit", "n")
    # the k-th point's Cantor coordinate is h^(w_k - w_0)(c), never built
    rows = orbit(m, t, r, n)
    out = _out_path(args, cfg)
    columns = {"k": "%s", "t": FLOAT, "r": FLOAT, "w": "%s"}
    if fixes_t(m):
        # every row holds the start's t, so its text is formatted once
        columns["t"] = FLOAT % t
        table = ((k, r, w) for k, (_, r, w) in enumerate(rows))
    else:
        table = ((k, *row) for k, row in enumerate(rows))
    _write_csv(out, columns, table)
    print(f"suspend-orbit: {n} steps, final winding {rows[-1][2]} -> {out}")
    return EXIT_OK


def cmd_rotation_family(args, cfg: RunConfig) -> int:
    from .cli import EXIT_OK, FLOAT, _out_path, _write_csv

    bits = cfg.get("family", "bits")
    alpha, schedule = rotation_family(bits, cfg.get("family", "eps"))
    out = _out_path(args, cfg)
    _write_csv(out, {"n": "%s", "bit": "%s", "b_n": FLOAT, "term": FLOAT},
               [(i + 1, b, s, s if b else s / 3.0)
                for i, (b, s) in enumerate(zip(bits, schedule))])
    print(f"rotation-family: alpha = {alpha:.12g} for bits {''.join(map(str, bits))} -> {out}")
    return EXIT_OK
