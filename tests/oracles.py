"""Estimators that no subcommand runs, kept as test oracles: the cylinder
metric of two Cantor points, annulus maps applied to float arrays, the
orbit stepped by `apply` alone, the circle distance of float arrays, the
deck equivariance defect and displacement bound of an annulus map,
conjugacy invariance of rotation estimates, word recurrence gaps of a
Cantor point, the key of a cylinder's Bowen class
count, the quotient's step, distance and winding rate under a float map,
the dense-orbit search that steps that map, the sampled and the
brute-force weak-mixing witness, near-identity return times on the
quotient, and the rigidity margins of a staged tower.  Also the canned
systems, maps and chains that only tests build, and map inversion.  Shared
by `test_acceptance.py`, `test_annulus.py`, `test_cantor.py`,
`test_chains.py` and `test_suspension.py`."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from pseudosusp.annulus import (LiftedAnnulusMap, RadialReparam, RigidRotation, Twist, orbit,
                                rotation_estimate)
from pseudosusp.cantor import SFT, CantorPoint, CantorSystem, Odometer, OdometerPoint
from pseudosusp.chains import IntervalChain
from pseudosusp.pl import PL, pl_sum
from pseudosusp.substitution import Substitution, _language_words
from pseudosusp.suspension import SuspensionPoint, SuspensionSystem, depth_for, normalize
from pseudosusp.tower import HAKStage, _gamma, circle_sup, stage_profiles


def golden_mean_sft() -> SFT:
    return SFT(2, ((1, 1), (1, 0)), label="golden-mean SFT")


def thue_morse() -> Substitution:
    return Substitution(((0, 1), (1, 0)), label="Thue-Morse substitution")


def cantor_metric(c1: CantorPoint, c2: CantorPoint, W: int) -> float:
    """The cylinder metric at window W (`cantor._depth`): 2^(-|i|), i the
    mismatch nearest 0 among the system's `positions(W)`; 0 if none."""
    if _alphabet_size(c1) != _alphabet_size(c2):
        raise ValueError("points live over different alphabets")
    for i in sorted(c1.system.positions(W), key=abs):
        if c1.symbol_at(i) != c2.symbol_at(i):
            return 2.0 ** -abs(i)
    return 0.0


def _alphabet_size(c: CantorPoint) -> int:
    """A shift's letters; an odometer's largest base."""
    return max(c.system.bases) if isinstance(c, OdometerPoint) else c.system.k


def identity_map() -> LiftedAnnulusMap:
    return LiftedAnnulusMap(())


class UnsupportedConjugacyError(ValueError):
    """Conjugating map is not invertible in the pipeline algebra."""


def invert_map(g: LiftedAnnulusMap) -> LiftedAnnulusMap:
    """The inverse pipeline: each primitive inverted, in reverse order.  A
    twist's profile is negated and a reparam's profile inverted; a cover,
    or a reparam that is not an increasing self-map of [0,1], raises."""
    inverted = []
    for prim in reversed(g.pipeline):
        if isinstance(prim, RigidRotation):
            inverted.append(RigidRotation(-prim.beta))
        elif isinstance(prim, Twist):
            inverted.append(Twist(tuple((x, -y) for x, y in prim.profile)))
        elif isinstance(prim, RadialReparam):
            ys = [y for _, y in prim.profile]
            if any(b >= a for a, b in zip(ys[1:], ys)) or ys[0] != 0.0 or ys[-1] != 1.0:
                raise UnsupportedConjugacyError(
                    "profile is not an increasing self-map of [0,1]")
            inverted.append(RadialReparam(tuple((y, x) for x, y in prim.profile)))
        else:
            raise UnsupportedConjugacyError(
                f"{type(prim).__name__} is not invertible in the pipeline algebra")
    return LiftedAnnulusMap(tuple(inverted))


def pl_eval_arrays(profile, x):
    """A float `PL` at every point of the array x: the breakpoint at or left
    of x, clamped to the end pieces, then the interpolation `pl.pl_at`
    uses."""
    xs = np.array([bx for bx, _ in profile])
    ys = np.array([by for _, by in profile])
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    return ys[i] + (x - xs[i]) * (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])


def apply_arrays(m: LiftedAnnulusMap, t, r):
    """`m.apply` on float arrays t and r, primitive by primitive."""
    for prim in m.pipeline:
        if isinstance(prim, RigidRotation):
            r = r + prim.beta
        elif isinstance(prim, Twist):
            r = r + pl_eval_arrays(prim.profile, t)
        elif isinstance(prim, RadialReparam):
            t = pl_eval_arrays(prim.profile, t)
        else:  # DeckCover
            t, r = apply_arrays(prim.inner, t, r * prim.q)
            r = r / prim.q + prim.p / prim.q
    return t, r


def circle_distance(a, b):
    """The distance of a - b from the integers, elementwise."""
    d = np.mod(np.asarray(a) - b, 1.0)
    return np.minimum(d, 1.0 - d)


def equivariance_defect(m: LiftedAnnulusMap, samples: int = 100, seed: int = 7) -> float:
    """Max over seeded samples of |map(t, r+1) - map(t, r) - (0, 1)|."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 1, samples)
    r = rng.uniform(-2, 2, samples)
    t1, r1 = apply_arrays(m, t, r)
    t2, r2 = apply_arrays(m, t, r + 1.0)
    return float(np.max(np.abs(t2 - t1) + np.abs(r2 - (r1 + 1.0))))


def displacement_bound(m: LiftedAnnulusMap, grid: int = 64) -> int:
    """Integer bound on |angular displacement|, valid globally by deck
    periodicity; sup over a fundamental-domain grid, rounded up."""
    t = np.linspace(0.0, 1.0, grid)
    r = np.linspace(0.0, 1.0, grid, endpoint=False)
    tt, rr = np.meshgrid(t, r, indexing="ij")
    _, r1 = apply_arrays(m, tt, rr)
    sup = float(np.max(np.abs(r1 - rr)))
    return max(0, math.ceil(sup - 1e-9))


def stepped_orbit(m: LiftedAnnulusMap, t: float, r: float,
                  n: int) -> list[tuple[float, float, int]]:
    """`annulus.orbit` by `m.apply` alone: (t, r, w) of (t, r) and its first
    n iterates, each r reduced to [0, 1) by its floor (an r - floor(r) that
    rounds to 1.0 reads 0 and one more winding) and w the floors so far."""
    def reduce(r, w):
        k = math.floor(r)
        r -= k
        return (0.0, w + k + 1) if r == 1.0 else (r, w + k)

    r, w = reduce(r, 0)
    out = [(t, r, w)]
    for _ in range(n):
        t, r = m.apply(t, r)
        r, w = reduce(r, w)
        out.append((t, r, w))
    return out


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
    conj = LiftedAnnulusMap(g_inv.pipeline + F.pipeline + g.pipeline)
    t0, r0 = g_inv.apply(*start)
    est_f = rotation_estimate(F, float(t0), float(r0), n)[-1][1]
    est_c = rotation_estimate(conj, *start, n)[-1][1]
    bound = 2.0 * displacement_bound(g) / n + 1e-12
    if abs(est_f - est_c) > bound:
        raise RuntimeError(
            f"conjugacy invariance violated: |{est_f} - {est_c}| > {bound}")
    return est_f, est_c, bound


def recurrence_profile(sys: CantorSystem, c: CantorPoint, L: int,
                       horizon: int) -> dict[tuple[int, ...], float]:
    """Max gap between consecutive sightings of each length-L word along the
    first `horizon` backward iterates.  Unseen words map to inf; a single
    sighting reports the conservative gap `horizon`."""
    last: dict[tuple[int, ...], int] = {}
    gaps: dict[tuple[int, ...], float] = {}
    counts: dict[tuple[int, ...], int] = {}
    cur = c
    for t in range(horizon):
        word = tuple(cur.symbol_at(j) for j in range(L))
        if word in last:
            gaps[word] = max(gaps.get(word, 0.0), float(t - last[word]))
        last[word] = t
        counts[word] = counts.get(word, 0) + 1
        cur = sys.power(cur, -1)
    out: dict[tuple[int, ...], float] = {}
    for word in sys.words(L):
        if word not in counts:
            out[word] = math.inf
        elif counts[word] == 1:
            out[word] = float(horizon)
        else:
            out[word] = gaps[word]
    return out


def core_key(h: CantorSystem, core: tuple[int, ...]) -> tuple[int, ...]:
    """The key under which `class_counts` gives the count of the cylinder
    whose symbols at -D..D (for an odometer, whose first digits) are
    `core`: what that count depends on.  An SFT's count depends on the
    core's end symbols, a substitution's on the whole core, and an
    odometer's on nothing."""
    if isinstance(h, Odometer):
        return ()
    if isinstance(h, SFT):
        return (core[0], core[-1])
    return core


def rigidity_suspension(sys: SuspensionSystem, m: LiftedAnnulusMap, grid: int, horizon: int,
                        eps: float, seed: int = 0) -> list[tuple[int, float]]:
    """All n <= horizon with sup quotient displacement < eps under the map m
    over a grid of start points sharing one seeded Cantor coordinate."""
    c0 = sys.h.random_point(seed, sys.window)
    t0 = np.linspace(0.05, 0.95, grid)
    r0 = np.linspace(0.0, 1.0, grid, endpoint=False)
    tt, rr = np.meshgrid(t0, r0, indexing="ij")
    tt, rr = tt.ravel(), rr.ravel()
    t, rlift = tt.copy(), rr.copy()
    wdist: dict[tuple[int, int], float] = {}

    def cantor_gap(w: int, s: int) -> float:
        # distance between h^w(c0) and h^(-s)(c0); the metric is not
        # shift-invariant, so cache per (w, s) pair
        key = (w, s)
        if key not in wdist:
            wdist[key] = cantor_metric(sys.h.power(c0, w), sys.h.power(c0, -s), sys.window)
        return wdist[key]

    qualifying = []
    for n in range(1, horizon + 1):
        t, rlift = apply_arrays(m, t, rlift)
        w = np.floor(rlift).astype(int)
        worst = 0.0
        for j in range(len(tt)):
            best = math.inf
            for s in (-1, 0, 1):
                strip = abs(t[j] - tt[j]) + abs((rlift[j] - w[j]) - (rr[j] + s))
                cd = cantor_gap(int(w[j]), s)
                best = min(best, max(strip, cd))
            worst = max(worst, best)
            if worst >= eps:
                break
        if worst < eps:
            qualifying.append((n, worst))
    return qualifying


def rigidity_margins(stages: list[HAKStage],
                     tail: Fraction = Fraction(0)) -> list[tuple[int, Fraction, Fraction]]:
    """(n, sup displacement of H_N^(p_n) on the deepest band, gamma_n).

    H_N^(p_n)(t, r) = (t, r + p_n*P_N(t)), so the displacement is
    ||p_n*P_N(t)||, the same for every r."""
    speed = pl_sum(stage_profiles(stages))
    u, v = stages[-1].band
    return [(st.n, circle_sup(speed, u, v, range(st.p, st.p + 1)), _gamma(stages, i, tail))
            for i, st in enumerate(stages)]


# ---------------------------------------------------------------------------
# the quotient point by point, and the weak-mixing witness
# ---------------------------------------------------------------------------

def step(sys: SuspensionSystem, m: LiftedAnnulusMap,
         p: SuspensionPoint) -> tuple[SuspensionPoint, int]:
    """One step of the float map m on the quotient point p, and the winding
    k it adds: the image is (t', r' - k, h^k(c)), (t', r') = m(t, r)."""
    t2, r2 = m.apply(p.t, p.r)
    q = normalize(sys, float(t2), float(r2), p.c)
    return q, round(r2 - q.r)


def quotient_distance(sys: SuspensionSystem, p: SuspensionPoint,
                      q: SuspensionPoint) -> float:
    """max(strip, cylinder) distance, minimized over adjacent deck shifts."""
    best = math.inf
    for s in (-1, 0, 1):
        strip = abs(p.t - q.t) + abs(p.r - (q.r + s))
        if strip >= best:
            continue
        cd = cantor_metric(p.c, sys.h.power(q.c, -s), sys.window)
        best = min(best, max(strip, cd))
    return best


def winding_rate(m: LiftedAnnulusMap, p0: SuspensionPoint,
                 n: int) -> list[tuple[int, float]]:
    """w_k/k along the orbit under m: an independent rotation-number
    estimate."""
    return [(k, w / k) for k, (_, _, w) in enumerate(orbit(m, p0.t, p0.r, n)[1:], start=1)]


def stepped_dense_orbit(sys: SuspensionSystem, m: LiftedAnnulusMap, c: CantorPoint,
                        tr: tuple[float, float], eps: float,
                        k_max: int, s_max: int, p_max: int):
    """`dense_orbit_check` with its annulus half stepped by the float map m:
    for each j <= p, j blocks of s steps of m must carry (t0, r0) to within
    eps of (t0, r0 + k*j)."""
    positions = sys.h.positions(depth_for(eps))
    net = set(sys.h.words(len(positions)))
    t0, r0 = tr
    for k in range(1, k_max + 1):
        unseen = set(net)
        cur = c
        p_cover = None
        for i in range(p_max + 1):
            unseen.discard(tuple(cur.symbol_at(j) for j in positions))
            if not unseen:
                p_cover = i
                break
            cur = sys.h.power(cur, -k)
        if p_cover is None:
            continue
        for s in range(1, s_max + 1):
            ok = True
            t_cur, r_cur = t0, r0
            for j in range(1, p_cover + 1):
                for _ in range(s):
                    t_cur, r_cur = m.apply(t_cur, r_cur)
                if abs(t_cur - t0) + abs(r_cur - (r0 + k * j)) >= eps:
                    ok = False
                    break
            if ok:
                return (k, s, p_cover)
    return None


def splice_point(h: CantorSystem, base: CantorPoint, D: int, rng: random.Random,
                 W: int) -> CantorPoint:
    """A point agreeing with `base` at the positions |i| <= D, drawn from
    rng beyond: an odometer keeps the first D + 1 digits of `base`."""
    if isinstance(h, Odometer):
        digits = [base.symbol_at(i) if i <= D else rng.randrange(b)
                  for i, b in enumerate(h.bases)]
        return OdometerPoint(h, sum(x * math.prod(h.bases[:i]) for i, x in enumerate(digits)))
    return h.splice(base, D, rng, W)


def sampled_witness(sys: SuspensionSystem, m: LiftedAnnulusMap, U, V, horizon: int,
                    cloud_size: int = 64, seed: int = 0):
    """The sampled weak-mixing search: a seeded cloud of points of U near its
    centre, stepped point by point by m; the least l at which some point is back
    in U and some point is in V, or None.  Every hit is a point of U whose
    l-th iterate lies in the ball, so the exact witness is at most this l
    (up to float rounding in the steps)."""
    (cu, ru), (cv, rv) = U, V
    rng = random.Random(seed)
    D = depth_for(ru)
    cloud = []
    for _ in range(cloud_size):
        dt = (rng.random() - 0.5) * ru / 2
        dr = (rng.random() - 0.5) * ru / 2
        c = splice_point(sys.h, cu.c, D, rng, sys.window)
        p = normalize(sys, min(1.0, max(0.0, cu.t + dt)), cu.r + dr, c)
        if quotient_distance(sys, p, cu) < ru:
            cloud.append(p)
    for l in range(1, horizon + 1):
        cloud = [step(sys, m, p)[0] for p in cloud]
        if (any(quotient_distance(sys, p, cu) < ru for p in cloud)
                and any(quotient_distance(sys, p, cv) < rv for p in cloud)):
            return l
    return None


def brute_force_witness(sys: SuspensionSystem, U, V, horizon: int):
    """The weak-mixing witness from the definitions, by brute force: the
    least l <= horizon at which some point of U has its l-th iterate in U
    and some point of U has it in V.

    A point (t, r, c) of U under shift s' goes to (t, r + l*P(t) - k, h^k c).
    For each piece of the speed, winding k and shifts s' and s, the strip
    part is a set of linear inequalities in (t, r), decided on the vertices
    of their line arrangement in Fractions (`strip_meets`), and the
    cylinder part by `cylinders_meet`."""
    for l in range(1, horizon + 1):
        if _image_meets(sys, U, U, l) and _image_meets(sys, U, V, l):
            return l
    return None


def _image_meets(sys, U, B, l: int) -> bool:
    (cu, ru), (cq, rq) = U, B
    u = tuple(Fraction(x) for x in (cu.t, cu.r, ru))
    q = tuple(Fraction(x) for x in (cq.t, cq.r, rq))
    for (x0, y0), (x1, y1) in zip(sys.speed, sys.speed[1:]):
        x0, y0, x1, y1 = (Fraction(v) for v in (x0, y0, x1, y1))
        m = (y1 - y0) / (x1 - x0)
        lo, hi = sorted((l * y0, l * y1))
        for k in range(math.floor(lo) - 1, math.ceil(hi) + 2):
            for su, sq in itertools.product((-1, 0, 1), repeat=2):
                if (cylinders_meet(sys, sys.h.power(cu.c, -su), ru,
                                    sys.h.power(cq.c, -sq), rq, k)
                        and strip_meets(u, q, (x0, x1, m, y0 - m * x0), l, k, su, sq)):
                    return True
    return False


def strip_meets(u, q, piece, l: int, k: int, su: int, sq: int) -> bool:
    """Whether some (t, r), t in [x0, x1] and r in [0, 1), lies within rho_u
    of (t_u, r_u + su) while r' = r + l*P(t) - k lies in [0, 1) and (t, r')
    within rho_q of (t_q, r_q + sq); balls are (t, r, rho) and the piece
    (x0, x1, m, c), P(t) = m*t + c, all exact.  Each condition is a row
    (a, b, c, strict), a*t + b*r + c > 0 or >= 0, decided by
    `_region_nonempty`."""
    (tu, au, pu), (tq, aq, pq) = u, q
    x0, x1, m, c = piece
    if max(x0, tu - pu, tq - pq) >= min(x1, tu + pu, tq + pq):
        return False  # the t-ranges of the balls and the piece miss
    one = Fraction(1)
    e = l * c - k  # r' = r + l*m*t + e
    rows = [(one, 0, -x0, False), (-one, 0, x1, False),
            (0, one, 0, False), (0, -one, one, True),
            (l * m, one, e, False), (-l * m, -one, 1 - e, True)]
    for s1, s2 in itertools.product((-1, 1), repeat=2):
        # rho - s1*(t - t_c) - s2*(r_any - r_c) > 0 for both balls
        rows.append((-s1 * one, -s2 * one, pu + s1 * tu + s2 * (au + su), True))
        rows.append((-s1 - s2 * l * m, -s2 * one, pq + s1 * tq - s2 * (e - aq - sq), True))
    return _region_nonempty(rows)


def _region_nonempty(rows) -> bool:
    """Whether some (t, r) meets every row.  Every row has a nonzero
    (a, b), and the rows bound t and r, so a nonempty region has interior;
    its closure is then a polygon whose corners are vertices of the rows'
    line arrangement, and the centroid of the arrangement's vertices in that
    closure is an interior point.  So the region is nonempty iff that
    centroid meets every row.  Each row is scaled to integers, and a vertex
    is (t, r) = (x, y) / z with z > 0."""
    rows = [tuple(int(v * math.lcm(*(Fraction(u).denominator for u in row[:3])))
                  for v in row[:3]) + row[3:] for row in rows]
    inside = []
    for (a1, b1, c1, _), (a2, b2, c2, _) in itertools.combinations(rows, 2):
        z = a1 * b2 - a2 * b1
        x, y = b1 * c2 - b2 * c1, a2 * c1 - a1 * c2
        if z < 0:
            x, y, z = -x, -y, -z
        if z and all(a * x + b * y + c * z >= 0 for a, b, c, _ in rows):
            inside.append((Fraction(x, z), Fraction(y, z)))
    if not inside:
        return False
    t = sum(t for t, _ in inside) / len(inside)
    r = sum(r for _, r in inside) / len(inside)
    return all(a * t + b * r + c > 0 if strict else a * t + b * r + c >= 0
               for a, b, c, strict in rows)


def cylinders_meet(sys, p, rp, q, rq, n: int) -> bool:
    """Whether some point c has cantor_metric(c, p) < rp and
    cantor_metric(h^n c, q) < rq: over every value of an odometer; for a
    shift, the positions where the metric reads a mismatch as at least the
    radius must hold p's symbols and, n further on, q's, and a legal word
    with those symbols is sought position by position (an SFT) or among
    the language words of the span (a substitution)."""
    h, W = sys.h, sys.window
    if isinstance(h, Odometer):
        return any(cantor_metric(c, p, W) < rp and cantor_metric(h.power(c, n), q, W) < rq
                   for c in (OdometerPoint(h, v) for v in range(math.prod(h.bases))))
    fixed = {}
    for point, rho, at in ((p, rp, 0), (q, rq, n)):
        for i in h.positions(W):
            if 2.0 ** -abs(i) >= rho:
                symbol = point.symbol_at(i)
                if fixed.setdefault(i + at, symbol) != symbol:
                    return False
    if not fixed:
        return True
    lo, hi = min(fixed), max(fixed)
    if isinstance(h, Substitution):
        return any(all(word[i - lo] == x for i, x in fixed.items())
                   for word in _language_words(h.rules, hi - lo + 1))
    allowed = {fixed[lo]}
    for i in range(lo + 1, hi + 1):
        allowed = {b for b in range(h.k) if any(h.adjacency[a][b] for a in allowed)}
        if i in fixed:
            allowed &= {fixed[i]}
    return bool(allowed)


# ---------------------------------------------------------------------------
# canned interval maps and chains
# ---------------------------------------------------------------------------

def tent_map() -> PL:
    return ((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0)))


def full_branch_middle_map(k: int) -> PL:
    """PL map with k full branches folded over the middle seventh of [0,1],
    constant outside; Markov entropy exactly log k."""
    if k % 2 == 0 or k < 3:
        raise ValueError("need odd k >= 3")
    left = Fraction(3, 7)
    pts = [(Fraction(0), Fraction(0)), (left, Fraction(0))]
    for j in range(1, k + 1):
        pts.append((left + Fraction(j, 7 * k), Fraction(j % 2)))
    pts.append((Fraction(1), Fraction(1)))
    return tuple(pts)


def uniform_seven_chain(overlap: Fraction = Fraction(1, 252)) -> IntervalChain:
    links = []
    for i in range(7):
        lo = max(Fraction(0), Fraction(i, 7) - overlap)
        hi = min(Fraction(1), Fraction(i + 1, 7) + overlap)
        links.append((lo, hi))
    return IntervalChain(tuple(links))


def tent_seven_chain() -> IntervalChain:
    """Taut 7-chain tailored to the tent map: stretching holds at exponent 2,
    and the k = 3 certificate fails (the shipped negative fixture)."""
    return IntervalChain((
        (Fraction(0), Fraction(1, 4)),
        (Fraction(6, 25), Fraction(3, 10)),
        (Fraction(29, 100), Fraction(31, 100)),
        (Fraction(61, 200), Fraction(89, 200)),
        (Fraction(11, 25), Fraction(23, 50)),
        (Fraction(91, 200), Fraction(19, 25)),
        (Fraction(3, 4), Fraction(1)),
    ))
