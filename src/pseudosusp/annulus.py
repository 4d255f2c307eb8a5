"""Deck-equivariant lifted annulus maps and the staged-approximation verifier.

The strip is [0,1] x R with the sum metric; the angular coordinate is the
R/Z factor, and rotation numbers are measured on its lift.  Maps are pipelines
of primitives; every primitive accepts floats or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .config import ConfigError


class DomainError(ValueError):
    """Query outside the strip domain."""


class HAKConfigError(ConfigError):
    """Stage list violates a structural requirement (not a condition check)."""


class UnsupportedConjugacyError(ValueError):
    """Conjugating map is not invertible in the pipeline algebra."""


# ---------------------------------------------------------------------------
# piecewise-linear profiles
# ---------------------------------------------------------------------------

def pl_eval(xs: np.ndarray, ys: np.ndarray, x):
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    x0, x1 = xs[idx], xs[idx + 1]
    y0, y1 = ys[idx], ys[idx + 1]
    return y0 + (x - x0) * (y1 - y0) / (x1 - x0)


@dataclass(frozen=True)
class Profile:
    """Piecewise-linear function on [0,1] given by (x, y) breakpoints."""

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self):
        xs = [x for x, _ in self.breakpoints]
        if len(xs) < 2 or xs[0] != 0.0 or xs[-1] != 1.0:
            raise ValueError("profile must span [0,1]")
        if any(b >= a for a, b in zip(xs[1:], xs)):
            raise ValueError("profile breakpoints must be strictly increasing")

    @cached_property
    def _xy(self):
        xs = np.array([x for x, _ in self.breakpoints])
        ys = np.array([y for _, y in self.breakpoints])
        return xs, ys

    def __call__(self, x):
        xs, ys = self._xy
        return pl_eval(xs, ys, x)

    def negated(self) -> "Profile":
        return Profile(tuple((x, -y) for x, y in self.breakpoints))

    def inverted(self) -> "Profile":
        ys = [y for _, y in self.breakpoints]
        if any(b >= a for a, b in zip(ys[1:], ys)) or ys[0] != 0.0 or ys[-1] != 1.0:
            raise UnsupportedConjugacyError("profile is not an increasing self-map of [0,1]")
        return Profile(tuple((y, x) for x, y in self.breakpoints))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidRotation:
    beta: float

    def apply(self, t, r):
        return t, r + self.beta


@dataclass(frozen=True)
class Twist:
    """Angular displacement depending on the radial coordinate."""

    profile: Profile

    def apply(self, t, r):
        return t, r + self.profile(t)


@dataclass(frozen=True)
class RadialReparam:
    """Increasing PL reparametrization of the radial factor, fixing 0 and 1."""

    profile: Profile

    def __post_init__(self):
        ys = [y for _, y in self.profile.breakpoints]
        if ys[0] != 0.0 or ys[-1] != 1.0 or any(b >= a for a, b in zip(ys[1:], ys)):
            raise ValueError("radial reparametrization must increase from 0 to 1")

    def apply(self, t, r):
        return self.profile(t), r


@dataclass(frozen=True)
class GridSampled:
    """Bilinear displacement table over a fundamental-domain grid.

    Tables are indexed by (t node, r node) with r wrapping, which makes the
    map deck-equivariant by construction.
    """

    resolution: int
    dt_table: tuple[tuple[float, ...], ...]
    dr_table: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        res = self.resolution
        for table in (self.dt_table, self.dr_table):
            if len(table) != res + 1 or any(len(row) != res for row in table):
                raise ValueError("tables must have shape (resolution+1, resolution)")
        dt = np.array(self.dt_table)
        tgrid = np.linspace(0.0, 1.0, res + 1)[:, None]
        if np.any(tgrid + dt < -1e-12) or np.any(tgrid + dt > 1 + 1e-12):
            raise ValueError("radial displacement leaves [0,1]")

    @cached_property
    def _arrays(self):
        return np.array(self.dt_table), np.array(self.dr_table)

    def _interp(self, table, t, r):
        res = self.resolution
        ti = np.clip(np.floor(np.asarray(t) * res).astype(int), 0, res - 1)
        rf = np.mod(r, 1.0)
        ri = np.clip(np.floor(np.asarray(rf) * res).astype(int), 0, res - 1)
        ft = t * res - ti
        fr = rf * res - ri
        ri1 = (ri + 1) % res
        v00 = table[ti, ri]
        v10 = table[ti + 1, ri]
        v01 = table[ti, ri1]
        v11 = table[ti + 1, ri1]
        return (v00 * (1 - ft) * (1 - fr) + v10 * ft * (1 - fr)
                + v01 * (1 - ft) * fr + v11 * ft * fr)

    def apply(self, t, r):
        if np.any(np.asarray(t) < 0) or np.any(np.asarray(t) > 1):
            raise DomainError("first coordinate outside [0,1]")
        dt, dr = self._arrays
        return t + self._interp(dt, t, r), r + self._interp(dr, t, r)


@dataclass(frozen=True)
class DeckCover:
    """q-fold covering composite: conjugate the angular lift by r -> r/q, then
    rotate by p/q.  Equivariant as a whole even though the bare scaling is not."""

    inner: "LiftedAnnulusMap"
    q: int
    p: int

    def apply(self, t, r):
        t2, r2 = self.inner.apply(t, np.asarray(r) * self.q)
        return t2, r2 / self.q + self.p / self.q


Primitive = Union[RigidRotation, Twist, RadialReparam, GridSampled, DeckCover]


@dataclass(frozen=True)
class LiftedAnnulusMap:
    """Composition pipeline; the first primitive acts first."""

    pipeline: tuple[Primitive, ...]
    label: str = ""

    def apply(self, t, r):
        for prim in self.pipeline:
            t, r = prim.apply(t, r)
        return t, r

    def then(self, other: "LiftedAnnulusMap") -> "LiftedAnnulusMap":
        return LiftedAnnulusMap(self.pipeline + other.pipeline,
                                label=f"{self.label}|{other.label}")


def identity_map() -> LiftedAnnulusMap:
    return LiftedAnnulusMap((), label="identity")


def twist_speed(m: LiftedAnnulusMap) -> Profile:
    """The speed profile P of a map that fixes t: m(t, r) = (t, r + P(t)).

    Rigid rotations and twists leave t alone and commute, so a pipeline of
    them is one twist whose profile is the sum of theirs, PL on the union of
    their breakpoints; its iterates are m^i(t, r) = (t, r + i*P(t)) exactly.
    Every other primitive moves t and is refused."""
    shift = 0.0
    profiles = []
    for prim in m.pipeline:
        if isinstance(prim, RigidRotation):
            shift += prim.beta
        elif isinstance(prim, Twist):
            profiles.append(prim.profile)
        else:
            raise TypeError(f"{type(prim).__name__} moves t: only rigid rotations "
                            f"and twists have a speed profile")
    xs = np.unique(np.concatenate([[0.0, 1.0]] + [p._xy[0] for p in profiles]))
    ys = np.full_like(xs, shift)
    for p in profiles:
        ys = ys + p(xs)
    return Profile(tuple(zip(xs.tolist(), ys.tolist())))


def equivariance_defect(m: LiftedAnnulusMap, samples: int = 100, seed: int = 7) -> float:
    """Max over seeded samples of |map(t, r+1) - map(t, r) - (0, 1)|."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 1, samples)
    r = rng.uniform(-2, 2, samples)
    t1, r1 = m.apply(t, r)
    t2, r2 = m.apply(t, r + 1.0)
    return float(np.max(np.abs(t2 - t1) + np.abs(r2 - (r1 + 1.0))))


# ---------------------------------------------------------------------------
# metric helpers
# ---------------------------------------------------------------------------

def circle_distance(a, b):
    d = np.mod(np.asarray(a) - b, 1.0)
    return np.minimum(d, 1.0 - d)


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


def rotation_number(m: LiftedAnnulusMap, t: float = 0.5, r: float = 0.0,
                    n_max: int = 1024) -> float:
    return rotation_estimate(m, t, r, n_max)[-1][1]


def rigidity_scan(m: LiftedAnnulusMap, grid: int, horizon: int, eps: float,
                  band: tuple[float, float] = (0.0, 1.0)) -> list[tuple[int, float]]:
    """All n <= horizon whose n-th iterate stays within eps of the identity on
    a grid over band x circle, with the measured sup displacement."""
    t0 = np.linspace(band[0], band[1], grid)
    r0 = np.linspace(0.0, 1.0, grid, endpoint=False)
    tt, rr = np.meshgrid(t0, r0, indexing="ij")
    tt, rr = tt.ravel(), rr.ravel()
    t, r = tt.copy(), rr.copy()
    qualifying = []
    for n in range(1, horizon + 1):
        t, r = m.apply(t, r)
        disp = np.abs(t - tt) + circle_distance(r, rr)
        sup = float(np.max(disp))
        if sup < eps:
            qualifying.append((n, sup))
    return qualifying


def displacement_bound(m: LiftedAnnulusMap, grid: int = 64) -> int:
    """Integer bound on |angular displacement|, valid globally by deck
    periodicity; sup over a fundamental-domain grid, rounded up."""
    t = np.linspace(0.0, 1.0, grid)
    r = np.linspace(0.0, 1.0, grid, endpoint=False)
    tt, rr = np.meshgrid(t, r, indexing="ij")
    _, r1 = m.apply(tt, rr)
    sup = float(np.max(np.abs(r1 - rr)))
    return max(0, math.ceil(sup - 1e-9))


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
        raise HAKConfigError("cover degree q must be an integer >= 1")
    if q == 1 and p == 0:
        return m
    return LiftedAnnulusMap((DeckCover(m, q, p),), label=f"cover[{q},{p}]({m.label})")


def invert_map(g: LiftedAnnulusMap) -> LiftedAnnulusMap:
    inverted = []
    for prim in reversed(g.pipeline):
        if isinstance(prim, RigidRotation):
            inverted.append(RigidRotation(-prim.beta))
        elif isinstance(prim, Twist):
            inverted.append(Twist(prim.profile.negated()))
        elif isinstance(prim, RadialReparam):
            inverted.append(RadialReparam(prim.profile.inverted()))
        else:
            raise UnsupportedConjugacyError(
                f"{type(prim).__name__} is not invertible in the pipeline algebra")
    return LiftedAnnulusMap(tuple(inverted), label=f"inv({g.label})")


def conjugacy_invariance_check(F: LiftedAnnulusMap, g: LiftedAnnulusMap, n: int,
                               start: tuple[float, float] = (0.25, 0.1),
                               ) -> tuple[float, float, float]:
    """Rotation estimates at horizon n of F (along the orbit of g⁻¹(start))
    and of g∘F∘g⁻¹ (along the orbit of start), plus the bound 2K/n.

    The two orbits are the same F-orbit seen through g, so the angular
    displacements differ by at most twice g's displacement bound; the
    estimates are compared at matched points, which is what the bounded
    telescoping argument compares.  Raises if the bound is exceeded."""
    g_inv = invert_map(g)
    conj = g_inv.then(F).then(g)
    t0, r0 = g_inv.apply(*start)
    est_f = rotation_estimate(F, float(t0), float(r0), n)[-1][1]
    est_c = rotation_estimate(conj, *start, n)[-1][1]
    bound = 2.0 * displacement_bound(g) / n + 1e-12
    if abs(est_f - est_c) > bound:
        raise RuntimeError(
            f"conjugacy invariance violated: |{est_f} - {est_c}| > {bound}")
    return est_f, est_c, bound


# ---------------------------------------------------------------------------
# staged approximation scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HAKStage:
    """One stage of the approximation scheme.

    `rot` is the cumulative stage rotation p'/p in lowest terms; the stage
    increment over the previous stage is what the collar map applies.
    `chart` is the band chart; only the default identity band rescale is
    supported (its fibers over angular values are radial segments, so the
    fiber diameter equals the band width).  `support` widens the collar past
    the previous band (used by a shipped mutant; defaults to the previous
    band)."""

    n: int
    eps: float
    band: tuple[float, float]
    rot: Fraction
    alpha: Fraction
    q: int
    chart: Optional["LiftedAnnulusMap"] = None
    support: Optional[tuple[float, float]] = None

    @property
    def p(self) -> int:
        return self.rot.denominator


@dataclass
class CheckResult:
    condition: str
    stage: int
    value: float
    bound: float
    note: str = ""

    SLACK = 1e-7

    @property
    def margin(self) -> float:
        return self.bound - self.value

    @property
    def passed(self) -> bool:
        return self.margin > -self.SLACK


@dataclass
class HAKReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing_conditions(self) -> list[str]:
        return sorted({c.condition for c in self.checks if not c.passed})


def stage_increment_maps(stages: list[HAKStage]) -> list[LiftedAnnulusMap]:
    """Collar maps g_n: rotate the band by the stage increment, fade linearly
    to the identity across the collar of the previous band."""
    maps = []
    prev_rot = Fraction(0)
    for i, st in enumerate(stages):
        inc = float(st.rot - prev_rot)
        prev_rot = st.rot
        if i == 0 and st.support is None:
            profile = Profile(((0.0, inc), (1.0, inc)))
        else:
            lo, hi = st.support if st.support is not None else stages[i - 1].band
            u, v = st.band
            pts = [(0.0, 0.0)]
            if lo > 0.0:
                pts.append((lo, 0.0))
            pts.extend([(u, inc), (v, inc)])
            if hi < 1.0:
                pts.append((hi, 0.0))
            pts.append((1.0, 0.0))
            dedup = [pts[0]]
            for x, y in pts[1:]:
                if x > dedup[-1][0]:
                    dedup.append((x, y))
            profile = Profile(tuple(dedup))
        maps.append(LiftedAnnulusMap((Twist(profile),), label=f"g{st.n}"))
    return maps


def truncated_maps(stages: list[HAKStage]) -> list[LiftedAnnulusMap]:
    """H_n = g_n ∘ ... ∘ g_1 for each stage."""
    gs = stage_increment_maps(stages)
    out = []
    pipeline: tuple[Primitive, ...] = ()
    for g, st in zip(gs, stages):
        pipeline = pipeline + g.pipeline
        out.append(LiftedAnnulusMap(pipeline, label=f"H{st.n}"))
    return out


def _validate_stage_config(stages: list[HAKStage]) -> None:
    if len(stages) < 2:
        raise HAKConfigError("need at least two stages")
    for i, st in enumerate(stages):
        if st.chart is not None:
            raise HAKConfigError(
                f"stage {st.n}: only the identity band-rescale chart is supported")
        u, v = st.band
        if not (0.0 < u < v < 1.0):
            raise HAKConfigError(f"stage {st.n}.band: band must sit strictly inside (0,1)")
        if i > 0:
            pu, pv = stages[i - 1].band
            if not (pu < u < v < pv):
                raise HAKConfigError(f"stage {st.n}.band: bands must be strictly nested")
            if st.p < stages[i - 1].p:
                raise HAKConfigError(f"stage {st.n}.rot: period must not decrease")
            if st.q < stages[i - 1].q:
                raise HAKConfigError(f"stage {st.n}.q: q must not decrease")
        if st.eps <= 0:
            raise HAKConfigError(f"stage {st.n}.eps: eps must be positive")
        if st.q % st.p != 0 or st.q < st.p:
            raise HAKConfigError(
                f"stage {st.n}.q: condition (6) needs q = m*p for some m >= 1; "
                f"got q = {st.q}, p = {st.p}")


def _stage_boxes(st: HAKStage) -> list[tuple[float, float]]:
    """Angular intervals (start, start+alpha) of the p rotated boxes."""
    rot = float(st.rot)
    alpha = float(st.alpha)
    return [((j * rot) % 1.0, alpha) for j in range(st.p)]


# Iterate counts are evaluated in blocks of this many, so that the closed-form
# iterates of a q = 13824 stage never sit in memory at once.
_STEP_BLOCK = 256


def _step_blocks(q: int):
    """The iterate counts 1..q as arrays of at most _STEP_BLOCK entries."""
    for lo in range(1, q + 1, _STEP_BLOCK):
        yield np.arange(lo, min(lo + _STEP_BLOCK, q + 1))


def hak_verify(stages: list[HAKStage], grid: int = 24,
               horizon: Optional[int] = None, tail: float = 0.0) -> HAKReport:
    """Check the staged approximation conditions (1), (2), (3), (5), (6) and
    the derived box facts (7), (8) on a grid, reporting a margin per
    condition.  Condition (4) is not evaluated.

    Every collar map g_n is one Twist, so every truncation H_n fixes t and
    its iterates are exact in closed form: H_n^i(t, r) = (t, r + i*P_n(t)),
    with P_n the sum of the stage profiles (`twist_speed`).  Conditions (6)
    and (8) use that identity instead of iterating up to q_n times.

    `horizon` caps the iterate count of (6) and (8) and must be at least 1;
    `grid` must be at least 2."""
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if grid < 2:
        raise ValueError(f"grid must be at least 2, got {grid}")
    _validate_stage_config(stages)
    report = HAKReport()
    gs = stage_increment_maps(stages)
    hs = truncated_maps(stages)
    n_stages = len(stages)
    eps_list = [st.eps for st in stages]

    # radial sample points: a global grid refined inside every band and
    # support region, so narrow collars cannot slip between grid nodes
    t_parts = [np.linspace(0.0, 1.0, grid)]
    for st in stages:
        t_parts.append(np.linspace(st.band[0], st.band[1], max(5, grid // 2)))
        if st.support is not None:
            t_parts.append(np.linspace(st.support[0], st.support[1], max(5, grid // 2)))
    tfull = np.unique(np.concatenate(t_parts))

    # (1) chart fibers over angular values are radially thin
    for st in stages:
        u, v = st.band
        tgrid = np.linspace(u, v, grid)
        report.checks.append(CheckResult(
            "1", st.n, float(tgrid.max() - tgrid.min()), st.eps / 2.0,
            note="fiber diameter of the chart's angular projection = band width"))

    # (2) box family tiles the annulus and its height clears delta = eps/4
    for st in stages:
        tiling_ok = (st.alpha * st.p == 1)
        note = "alpha = 1/p tiling" if tiling_ok else \
            f"alpha*p = {float(st.alpha * st.p):.6g} != 1: boxes do not tile"
        value = float(st.alpha) if tiling_ok else max(float(st.alpha), st.eps / 4.0 + 1.0)
        report.checks.append(CheckResult("2", st.n, value, st.eps / 4.0, note=note))

    # (3) collar maps are small and supported inside the previous band
    rfull = np.linspace(0.0, 1.0, grid, endpoint=False)
    tt, rr = np.meshgrid(tfull, rfull, indexing="ij")
    for i, (g, st) in enumerate(zip(gs, stages)):
        t1, r1 = g.apply(tt, rr)
        disp = np.abs(t1 - tt) + circle_distance(r1, rr)
        report.checks.append(CheckResult(
            "3", st.n, float(disp.max()), st.eps, note="rho(g_n, id)"))
        if i > 0:
            lo, hi = stages[i - 1].band
            outside = (tt < lo) | (tt > hi)
            value = float(disp[outside].max()) if outside.any() else 0.0
            report.checks.append(CheckResult(
                "3", st.n, value, CheckResult.SLACK,
                note="identity off the previous band (support)"))

    # (5) deeper bands are invariant under the truncations
    for i in range(n_stages - 1):
        u, v = stages[i + 1].band
        tband = np.linspace(u, v, grid)
        tb, rb = np.meshgrid(tband, rfull, indexing="ij")
        t1, _ = hs[i].apply(tb, rb)
        excursion = float(np.maximum(0.0, np.maximum(u - t1, t1 - v)).max())
        report.checks.append(CheckResult(
            "5", stages[i].n, excursion, CheckResult.SLACK,
            note="H_n keeps the next band invariant"))

    # (6) consecutive truncations stay eps_n-close up to q_n iterates; both
    # fix t, so H_n^i and H_(n+1)^i differ by i*(P_n - P_(n+1))(t) in r alone
    speeds = [twist_speed(h) for h in hs]
    for i in range(n_stages - 1):
        q_n = stages[i].q if horizon is None else min(stages[i].q, horizon)
        gap = speeds[i](tfull) - speeds[i + 1](tfull)
        worst = max(float(circle_distance(steps[:, None] * gap, 0.0).max())
                    for steps in _step_blocks(q_n))
        report.checks.append(CheckResult(
            "6", stages[i].n, worst, stages[i].eps,
            note=f"rho(H_n^i, H_(n+1)^i), i <= {q_n}"))

    # (7) every box in the stage family has diameter below eps_n
    for st in stages:
        u, v = st.band
        alpha = float(st.alpha)
        worst = 0.0
        for start, a in _stage_boxes(st):
            # sum-metric diameter of a band x angular-interval rectangle
            worst = max(worst, (v - u) + min(a, 0.5))
        report.checks.append(CheckResult(
            "7", st.n, worst, st.eps, note="diam of the stage boxes"))

    # (8) the full truncation tracks each stage's box family within gamma_n;
    # H_N^step(t, r) = (t, r + step*P_N(t)), so the orbit never leaves its t
    gammas = [sum(eps_list[i:]) + tail for i in range(n_stages)]
    for i, st in enumerate(stages):
        u, v = st.band
        alpha = float(st.alpha)
        starts = np.array([start for start, _ in _stage_boxes(st)])
        j_samples = sorted({0, 1, st.p // 3, st.p // 2, st.p - 1} & set(range(st.p)))
        pts_t, pts_r, pts_j = [], [], []
        for j in j_samples:
            for ft in (0.0, 0.5, 1.0):
                for fr in (0.0, 0.5, 1.0):
                    pts_t.append(u + ft * (v - u))
                    pts_r.append(starts[j] + fr * alpha)
                    pts_j.append(j)
        t_arr = np.array(pts_t)
        r_arr = np.array(pts_r)
        j_arr = np.array(pts_j)
        q_n = st.q if horizon is None else min(st.q, horizon)
        speed = speeds[-1](t_arr)
        dt = np.maximum(0.0, np.maximum(u - t_arr, t_arr - v))
        worst = 0.0
        for steps in _step_blocks(q_n):
            step = steps[:, None]
            rc = r_arr + step * speed
            rel = np.mod(np.mod(rc, 1.0) - starts[(j_arr + step) % st.p], 1.0)
            dr = np.where(rel <= alpha, 0.0, np.minimum(rel - alpha, 1.0 - rel))
            worst = max(worst, float((dt + dr).max()))
        report.checks.append(CheckResult(
            "8", st.n, worst, gammas[i],
            note=f"orbit tracking of the stage boxes up to q_n = {q_n}"))

    return report


def rigidity_margins(stages: list[HAKStage], grid: int = 16,
                     tail: float = 0.0) -> list[tuple[int, float, float]]:
    """Sup displacement of H_N^{p_n} on the deepest band vs gamma_n.

    H_N fixes t, so H_N^{p_n}(t, r) = (t, r + p_n*P_N(t)): the displacement
    is the circle distance of p_n*P_N(t) from 0, the same for every r."""
    eps_list = [st.eps for st in stages]
    u, v = stages[-1].band
    speed = twist_speed(truncated_maps(stages)[-1])(np.linspace(u, v, grid))
    out = []
    for i, st in enumerate(stages):
        disp = float(np.max(circle_distance(st.p * speed, 0.0)))
        gamma = sum(eps_list[i:]) + tail
        out.append((st.n, disp, gamma))
    return out
