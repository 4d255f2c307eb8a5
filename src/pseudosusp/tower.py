"""The staged approximation tower and its exact verifier.

A tower has stages n = 1..N.  Stage n gives eps_n, a radial band
B_n = [u_n, v_n] inside (0, 1), the cumulative rotation rot_n = p'_n/p_n in
lowest terms, the box height alpha_n and the iterate count q_n.  Its collar
map g_n is the twist (t, r) -> (t, r + g_n(t)): the profile g_n is the
increment rot_n - rot_(n-1) on B_n, 0 off the support S_n (the previous band
B_(n-1), or the stage's `support`), and linear in between; stage 1 without a
support rotates everything by rot_1.  The truncation H_n = g_n o ... o g_1
fixes t, so H_n^i(t, r) = (t, r + i*P_n(t)) with the speed
P_n = g_1 + ... + g_n.  Points are compared in the sum metric
|t - t'| + ||r - r'||, where ||x|| is the distance from x to the integers.
The boxes of stage n are B_n x [j*rot_n, j*rot_n + alpha_n] (mod 1),
j = 0..p_n - 1, and gamma_n = eps_n + ... + eps_N + tail.

The conditions, with the value that each row of the report holds:

(1) the fibers of the band chart over angular values have diameter at most
    eps_n/2; for the identity chart that is v_n - u_n.  Config.
(2) the boxes have height alpha_n at most eps_n/4, and they tile the circle:
    the defect |alpha_n*p_n - 1| is 0.  Config.
(3) g_n is eps_n-close to the identity: sup_t ||g_n(t)|| <= eps_n; and from
    stage 2 on it is the identity off B_(n-1): sup ||g_n(t)|| over t outside
    B_(n-1) is 0.  Measured.
(5) H_n keeps B_(n+1) invariant.  Every H_n fixes t, so the excursion is 0
    for any twist tower.  Structural.
(6) H_n^i and H_(n+1)^i stay eps_n-close for i <= q_n: sup ||i*g_(n+1)(t)||
    <= eps_n.  Measured.
(7) each box of stage n has diameter (v_n - u_n) + min(alpha_n, 1/2) at
    most eps_n.  Config.
(8) for i <= q_n, H_N^i carries every box of stage n to within gamma_n of
    the box i places further on.  Measured; see `hak_verify`.

Condition (4) is not evaluated: the tower's data (bands, rotations, box
heights and iterate counts) carry nothing from which it could be read, so
the report has no rows for it and never claims it.

All stage data are exact fractions, so every value is an exact sup (for
(8) past (1 - alpha_n)/2, the bound that `hak_verify` explains), and a
check passes iff value <= bound.  Besides the standard library this module
imports only `config`, for its error and the speed of `map.map`, and `pl`,
for the exact profiles.  It also builds the stages of a config and holds
the `rigidity` and `hak-verify` subcommands, which import `cli` when run."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, NamedTuple, Optional

from .config import ConfigError, _speed

if TYPE_CHECKING:
    from .config import RunConfig
from .pl import HALF, ONE, PL, ZERO, pl_image, pl_sum

# how each condition's rows are obtained (see the module docstring)
MEASURED = ("3", "6", "8")
CONFIG = ("1", "2", "7")
STRUCTURAL = ("5",)


class HAKStage(NamedTuple):
    """One stage of the approximation scheme.

    `rot` is the cumulative stage rotation p'/p in lowest terms; the stage
    increment over the previous stage is what the collar map applies.  The
    band chart is the identity band rescale: its fibers over angular values
    are radial segments, so the fiber diameter equals the band width.
    `support` widens the collar past the previous band (used by a shipped
    mutant; defaults to the previous band)."""

    n: int
    eps: Fraction
    band: tuple[Fraction, Fraction]
    rot: Fraction
    alpha: Fraction
    q: int
    support: Optional[tuple[Fraction, Fraction]] = None

    @property
    def p(self) -> int:
        return self.rot.denominator


class CheckResult(NamedTuple):
    condition: str
    stage: int
    value: Fraction
    bound: Fraction

    @property
    def margin(self) -> Fraction:
        return self.bound - self.value

    @property
    def passed(self) -> bool:
        return self.value <= self.bound


# ---------------------------------------------------------------------------
# exact piecewise-linear profiles
# ---------------------------------------------------------------------------

def stage_profiles(stages: list[HAKStage]) -> list[PL]:
    """The collar profiles g_n of a validated stage list."""
    out = []
    prev = ZERO
    for i, st in enumerate(stages):
        inc, prev = st.rot - prev, st.rot
        if i == 0 and st.support is None:
            out.append(((ZERO, inc), (ONE, inc)))
            continue
        lo, hi = st.support if st.support is not None else stages[i - 1].band
        u, v = st.band
        # 0 <= lo < u < v < hi <= 1, so only lo = 0 or hi = 1 repeats an x
        pts = dict([(ZERO, ZERO), (lo, ZERO), (u, inc), (v, inc), (hi, ZERO), (ONE, ZERO)])
        out.append(tuple(pts.items()))
    return out


def circle_sup(f: PL, a: Fraction, b: Fraction, steps: range) -> Fraction:
    """sup of ||i*f(t)|| over i in `steps` (positive) and t in [a, b].

    f is continuous, so f([a, b]) is [lo, hi] = `pl_image(f, a, b)`.  If
    lo <= 0 <= hi, i*[lo, hi] runs from 0 out to i*max(-lo, hi), and ||.||
    takes every value up to that or 1/2.  Otherwise ||.|| on i*[lo, hi]
    peaks at 1/2 if the interval meets Z + 1/2, and at an end if not; the
    loop over i runs in integers over the common denominator d of lo and
    hi."""
    lo, hi = pl_image(f, a, b)
    if lo <= 0 <= hi:
        return min(HALF, steps[-1] * max(-lo, hi))
    d = lcm(lo.denominator, hi.denominator)
    lo_d, hi_d = int(lo * d), int(hi * d)
    best = 0
    for i in steps:
        x, y = i * lo_d, i * hi_d
        # the least odd integer >= 2x/d; it is <= 2y/d iff [x/d, y/d] meets Z + 1/2
        odd = -(-2 * x // d) | 1
        if odd * d <= 2 * y:
            return HALF
        best = max(best, min(x % d, -x % d), min(y % d, -y % d))
    return Fraction(best, d)


def rigidity_times(speed: PL, a: Fraction, b: Fraction, horizon: int, eps: Fraction) -> list:
    """Every n <= horizon with its sup displacement over [a, b] x circle, if
    that is < eps, for a map that fixes t and moves r by speed(t): the n-th
    iterate moves (t, r) by exactly ||n*speed(t)||."""
    sups = ((n, circle_sup(speed, a, b, range(n, n + 1))) for n in range(1, horizon + 1))
    return [(n, sup) for n, sup in sups if sup < eps]


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------

def _validate_stage_config(stages: list[HAKStage]) -> None:
    if len(stages) < 2:
        raise ConfigError("need at least two stages")
    for i, st in enumerate(stages):
        u, v = st.band
        if not (0 < u < v < 1):
            raise ConfigError(f"stage {st.n}.band: band must sit strictly inside (0,1)")
        if st.support is not None and not (0 <= st.support[0] < u and v < st.support[1] <= 1):
            raise ConfigError(
                f"stage {st.n}.support: support must contain the band and lie in [0,1]")
        if i > 0:
            pu, pv = stages[i - 1].band
            if not (pu < u < v < pv):
                raise ConfigError(f"stage {st.n}.band: bands must be strictly nested")
            if st.p < stages[i - 1].p:
                raise ConfigError(f"stage {st.n}.rot: period must not decrease")
            if st.q < stages[i - 1].q:
                raise ConfigError(f"stage {st.n}.q: q must not decrease")
        if st.eps <= 0:
            raise ConfigError(f"stage {st.n}.eps: eps must be positive")
        if st.q % st.p != 0 or st.q < st.p:
            raise ConfigError(
                f"stage {st.n}.q: condition (6) needs q = m*p for some m >= 1; "
                f"got q = {st.q}, p = {st.p}")


def hak_verify(stages: list[HAKStage], tail: Fraction = ZERO) -> list[CheckResult]:
    """The rows of conditions (1), (2), (3), (5), (6), (7) and (8), each an
    exact value against its bound (see the module docstring).

    (8): a point of box j at angular offset s in [0, alpha_n] goes under H_N^i
    to offset s + i*(P_N(t) - rot_n) from the start of box j + i, since
    p_n*rot_n is an integer, and its t never leaves the band.  Its distance
    to that box is ||i*(P_N(t) - rot_n)|| at worst (s at an end of the arc)
    while that is at most (1 - alpha_n)/2, and no point of the circle is
    further than (1 - alpha_n)/2 from an arc of length alpha_n.  So the row
    holds the smaller of the two: the exact sup when the first is the
    smaller, an upper bound otherwise."""
    _validate_stage_config(stages)
    checks: list[CheckResult] = []
    add = checks.append
    gs = stage_profiles(stages)
    speed = pl_sum(gs)
    once = range(1, 2)
    for st in stages:
        add(CheckResult("1", st.n, st.band[1] - st.band[0], st.eps / 2))
    for st in stages:
        add(CheckResult("2", st.n, st.alpha, st.eps / 4))
        add(CheckResult("2", st.n, abs(st.alpha * st.p - 1), ZERO))
    for i, (st, g) in enumerate(zip(stages, gs)):
        add(CheckResult("3", st.n, circle_sup(g, ZERO, ONE, once), st.eps))
        if i > 0:
            lo, hi = stages[i - 1].band
            off = max(circle_sup(g, ZERO, lo, once), circle_sup(g, hi, ONE, once))
            add(CheckResult("3", st.n, off, ZERO))
    for st in stages[:-1]:
        add(CheckResult("5", st.n, ZERO, ZERO))
    for st, g_next in zip(stages, gs[1:]):
        # H_(n+1)^i - H_n^i = i*g_(n+1) in r, and ||-x|| = ||x||
        add(CheckResult("6", st.n, circle_sup(g_next, ZERO, ONE, range(1, st.q + 1)), st.eps))
    for st in stages:
        add(CheckResult("7", st.n, st.band[1] - st.band[0] + min(st.alpha, HALF), st.eps))
    for i, st in enumerate(stages):
        drift = tuple((x, y - st.rot) for x, y in speed)
        value = min((1 - st.alpha) / 2,
                    circle_sup(drift, st.band[0], st.band[1], range(1, st.q + 1)))
        add(CheckResult("8", st.n, value, _gamma(stages, i, tail)))
    return checks


def _gamma(stages: list[HAKStage], i: int, tail: Fraction) -> Fraction:
    return sum(st.eps for st in stages[i:]) + tail


# ---------------------------------------------------------------------------
# the stages of a config, and the subcommands that verify them
# ---------------------------------------------------------------------------

def build_stages(cfg: RunConfig) -> list[HAKStage]:
    """The [stage N] sections in the order of N, every value exact."""
    sections = cfg.numbered("stage")
    if not sections:
        raise ConfigError("no [stage *] sections found")
    return [HAKStage(n=n, **{key: cfg.get(name, key) for key in cfg.declared(name)})
            for n, name in sections]


def cmd_rigidity(args, cfg: RunConfig) -> int:
    from .cli import EXIT_OK, FLOAT, _out_path, _write_csv

    speed = _speed(cfg, "rigidity")
    horizon = cfg.get("experiment", "horizon")
    eps = cfg.get("experiment", "eps")
    lo, hi = cfg.get("experiment", "band")
    rows = rigidity_times(speed, lo, hi, horizon, eps)
    out = _out_path(args, cfg)
    # the exact sups become floats for their FLOAT column
    _write_csv(out, {"n": "%s", "sup_displacement": FLOAT}, [(n, float(d)) for n, d in rows])
    print(f"rigidity: {len(rows)} qualifying times <= {horizon} at eps={float(eps):.9g} -> {out}")
    return EXIT_OK


def cmd_hak_verify(args, cfg: RunConfig) -> int:
    from .cli import BOOL, EXIT_CHECK, EXIT_OK, FLOAT, _out_path, _write_csv

    checks = hak_verify(build_stages(cfg), tail=cfg.get("hak", "tail"))
    out = _out_path(args, cfg)
    # the exact values become floats for their FLOAT columns
    _write_csv(out, {"condition": "%s", "stage": "%s", "value": FLOAT, "bound": FLOAT,
                     "margin": FLOAT, "passed": BOOL},
               [(c.condition, c.stage, float(c.value), float(c.bound), float(c.margin),
                 c.passed) for c in checks])
    failing = sorted({c.condition for c in checks if not c.passed})
    if failing:
        print(f"hak-verify: FAILED condition(s) ({','.join(failing)}) -> {out}")
        return EXIT_CHECK
    # the bound-0 rows hold identities, whose margin 0 says nothing
    binding = min((c for c in checks if c.condition in MEASURED and c.bound),
                  key=lambda c: c.margin)
    print(f"hak-verify: measured ({','.join(MEASURED)}) pass, smallest margin "
          f"{float(binding.margin):.9g} at ({binding.condition}) stage {binding.stage}; "
          f"config ({','.join(CONFIG)}) hold; ({','.join(STRUCTURAL)}) structural -> {out}")
    return EXIT_OK
