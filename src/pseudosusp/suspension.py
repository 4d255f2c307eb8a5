"""Suspension quotient dynamics over a Cantor system.

Points of the quotient are normalized representatives (t, r, c) with
r in [0,1): shifting r by an integer n trades exactly against applying the
n-th power of the Cantor homeomorphism to c.  The map fixes t and moves r by
its exact speed P(t) (a `pl.PL`), so n steps carry (t, r, c) to
(t, r + n*P(t) - k, h^k(c)), k = floor(r + n*P(t)): every search and count
here reads P, never a stepped orbit.  Everything here runs on floats, ints
and exact fractions.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .cantor import CantorPoint, CantorSystem, depth_for
from .config import CapacityError
from .pl import HALF, PL, pl_at


class SuspensionPoint(NamedTuple):
    t: float
    r: float
    c: CantorPoint


class SuspensionSystem(NamedTuple):
    """The suspension of h under the map that fixes t and moves r by the
    exact speed P, the continuous PL function whose (x, y) breakpoints from
    0 to 1 are `speed`; `window` is the Cantor symbol window W."""

    speed: PL
    h: CantorSystem
    window: int = 32


def normalize(sys: SuspensionSystem, t: float, r: float, c: CantorPoint) -> SuspensionPoint:
    """Fundamental-domain representative: (t, r, c) -> (t, r - k, h^k(c)),
    k = floor(r); ties at integers resolve downward.  An r in [-2^-54, 0),
    whose r - k rounds to 1.0, takes r = 0 and k one more."""
    k = math.floor(r)
    r = r - k + 0.0  # + 0.0 reads an r of -0.0 as 0.0
    if r == 1.0:
        r, k = 0.0, k + 1
    return SuspensionPoint(t, r, sys.h.power(c, k))


# ---------------------------------------------------------------------------
# dense-orbit condition search
# ---------------------------------------------------------------------------

def dense_orbit_check(sys: SuspensionSystem, c: CantorPoint, t0: float, eps: float,
                      k_max: int, s_max: int, p_max: int):
    """Search for (k, s, p) witnessing the two dense-orbit hypotheses:
    the backward k-orbit of c passes eps-close to every Cantor point within p
    steps, and the s-step annulus orbit advances by k per block within eps.
    Returns the first witness triple or None.

    The map fixes t0, so after j blocks of s steps any start r0 has moved
    by j*s*P(t0), at distance j*|s*P(t0) - k| from r0 + k*j; the largest,
    at j = p, is below eps exactly when p*|s*P(t0) - k| is."""
    h, D = sys.h, depth_for(eps)
    # every legal pattern at the positions read: an eps-net of the Cantor set
    net = set(h.words(len(h.positions(D))))
    speed = pl_at(sys.speed, Fraction(t0))
    for k in range(1, k_max + 1):
        unseen = set(net)
        cur = c
        p_cover = None
        for i in range(p_max + 1):
            unseen.discard(h.cylinder(cur, D)[0])
            if not unseen:
                p_cover = i
                break
            cur = h.power(cur, -k)
        if p_cover is None:
            continue
        for s in range(1, s_max + 1):
            if p_cover * abs(s * speed - k) < eps:
                return (k, s, p_cover)
    return None


# ---------------------------------------------------------------------------
# weak-mixing witness search
# ---------------------------------------------------------------------------

def weak_mixing_witness(sys: SuspensionSystem, U: tuple[SuspensionPoint, float],
                        V: tuple[SuspensionPoint, float], horizon: int):
    """The Banks criterion, decided exactly: the least l <= horizon at which
    H^l(U) meets U and H^l(U) meets V, or None.

    U and V are (centre, radius) open balls of the quotient distance: the
    least, over deck shifts s in {-1, 0, 1}, of the larger of the strip
    distance |t - t'| + |r - (r' + s)| and the Cantor distance to h^-s of
    the centre's Cantor coordinate.  H fixes t and moves r by the speed
    P(t) of `sys`.

    A point (t, r, c) of U, near the centre under shift s', goes to
    (t, r + l*P(t) - k, h^k(c)), k its winding.  For each k and shifts s'
    and s (into the target) the question splits in two: a strip question on
    (t, r), which `_strip_meets` decides on each piece of the speed, and a
    cylinder question on c: whether c holds the cylinder of U's ball under
    s' and, k further on, that of the target's under s, which is the
    system's `joins`.  The strip question runs in integers: every float
    centre and radius is an exact dyadic rational, and one common
    denominator d scales them and the speed's pieces to ints."""
    (cu, ru), (cv, rv) = U, V
    if ru <= 0 or rv <= 0:
        raise ValueError("ball radii must be positive")
    h, W = sys.h, sys.window
    balls = [tuple(Fraction(x) for x in (c.t, c.r, rho)) for c, rho in (U, V)]
    # P(t) = m*t + c on the piece [x0, x1], with P's least and largest value
    # there as (numerator, denominator)
    pieces = []
    for (x0, y0), (x1, y1) in zip(sys.speed, sys.speed[1:]):
        x0, y0, x1, y1 = (Fraction(v) for v in (x0, y0, x1, y1))
        m = (y1 - y0) / (x1 - x0)
        pieces.append(((x0, x1, m, y0 - m * x0), min(y0, y1).as_integer_ratio(),
                       max(y0, y1).as_integer_ratio()))
    d = math.lcm(*(x.denominator for row in balls + [line for line, _, _ in pieces]
                   for x in row))
    balls = [tuple(int(x * d) for x in ball) for ball in balls]
    pieces = [(tuple(int(x * d) for x in line), lo, hi) for line, lo, hi in pieces]
    # the deck shifts under which a ball's r-interval meets [0, 1), where the
    # r of a point and of its image lie
    shifts = [[s for s in (-1, 0, 1) if -rho < r + s * d < d + rho] for _, r, rho in balls]

    # the ball about h^-s of each centre's Cantor coordinate, for each shift
    # s of its ball: a cylinder (word, start), or None for the whole space
    cylinders = [{s: h.ball(h.power(c.c, -s), rho, W) for s in ss}
                 for (c, rho), ss in zip((U, V), shifts)]

    @functools.cache
    def joined(target: int, k: int, su: int, sq: int) -> bool:
        a, b = cylinders[0][su], cylinders[target][sq]
        return a is None or b is None or h.joins(*a, b[0], b[1] + k)

    def hit(target: int, l: int) -> bool:
        # the windings k run from floor(l*lo) to ceil(l*hi)
        return any(joined(target, k, su, sq)
                   and _strip_meets(balls[0], balls[target], piece, l, k, su, sq, d)
                   for piece, (lo, lo_den), (hi, hi_den) in pieces
                   for k in range(l * lo // lo_den, -(-l * hi // hi_den) + 1)
                   for su in shifts[0] for sq in shifts[target])

    for l in range(1, horizon + 1):
        if hit(0, l) and hit(1, l):
            return l
    return None


def _strip_meets(u, q, piece, l: int, k: int, su: int, sq: int, d: int) -> bool:
    """Whether some (t, r) with t on the piece and r in [0, 1) lies in U's
    strip ball under shift su while r + l*P(t) - k lies in [0, 1) and, with
    that t, in the target's strip ball under shift sq.  Balls are
    (t, r, radius) and the piece (x0, x1, m, c), P(t) = m*t + c on it, all
    numerators over d.

    On a flat piece, r + l*P - k = r - shift.  For a fixed r, the t of U's
    ball and of the target's are open intervals about their centres, of
    half-widths rho_U - |r - a| and rho - |r - b|; they and the piece share
    a point iff each two of them meet (Helly, in one dimension).  So r must
    lie in I, the window and the two r-intervals whose radii are shrunk by
    their centre's distance from the piece, and |r - a| + |r - b|, least on
    I at its point nearest [a, b], must be below rho_U + rho - |t_U - t_q|.
    On a sloped piece every condition is linear in (t, r), and `_feasible`
    decides them."""
    (tu, au, pu), (tq, aq, pq) = u, q
    x0, x1, m, c = piece
    a = au + su * d
    if m == 0:
        shift = k * d - l * c
        b = aq + sq * d + shift
        eu = pu - max(0, x0 - tu, tu - x1)
        eq = pq - max(0, x0 - tq, tq - x1)
        lo, hi = max(a - eu, b - eq, shift, 0), min(a + eu, b + eq, shift + d, d)
        near = max(0, lo - max(a, b), min(a, b) - hi)
        return lo < hi and abs(a - b) + 2 * near < pu + pq - abs(tu - tq)
    # d*(r + l*P(t) - k) = d*r + L1*t + L0, and E shifts that to the target's centre
    L1, L0 = l * m, l * c - k * d
    E = L0 - aq - sq * d
    rows = [(d, 0, -x0, False), (-d, 0, x1, False),
            (0, d, 0, False), (0, -d, d, True),
            (L1, d, L0, False), (-L1, -d, d - L0, True)]
    for s1 in (-1, 1):
        for s2 in (-1, 1):
            rows.append((-s1 * d, -s2 * d, pu + s1 * tu + s2 * a, True))
            rows.append((-s1 * d - s2 * L1, -s2 * d, pq + s1 * tq - s2 * E, True))
    return _feasible(rows)


def _feasible(rows) -> bool:
    """Whether some real (t, r) meets every row (a, b, c, strict), which
    reads a*t + b*r + c > 0 if strict and >= 0 if not.  Fourier-Motzkin
    elimination of r, then of t, in integers: two rows that bound a variable
    from opposite sides combine, with positive weights, into one without
    it, strict if either is; the system is feasible iff every row left,
    now a bare constant c, holds."""
    for var in (1, 0):
        pos = [row for row in rows if row[var] > 0]
        neg = [row for row in rows if row[var] < 0]
        rows = [row for row in rows if row[var] == 0] + [
            tuple(-n[var] * x + p[var] * y for x, y in zip(p[:3], n[:3])) + (p[3] or n[3],)
            for p in pos for n in neg]
    return all(c > 0 if strict else c >= 0 for _, _, c, strict in rows)


# ---------------------------------------------------------------------------
# entropy brackets
# ---------------------------------------------------------------------------

def _seen_positions(sys: SuspensionSystem, scale: float, n: int) -> tuple[int, list[int]]:
    """D and the sorted symbol positions S = union of [w_i - D, w_i + D] that
    the Bowen windows read, w_i = floor(i*P(1/2)) the windings of the orbit
    of (0.5, 0.0) over n steps, exact in integers.  The window W caps D
    only: `class_counts` reads any position, so a winding may exceed W."""
    if not scale < 1.0:
        raise ValueError(f"entropy scale {scale!r} must be below 1: at scale 1 "
                         "the deck shifts +-1 come within reach")
    if scale < 2.0 ** (-(sys.window - 2)):
        raise CapacityError("scale below window resolution; increase W")
    D = min(depth_for(scale), sys.window)
    num, den = pl_at(sys.speed, HALF).as_integer_ratio()
    windings = {i * num // den for i in range(n)}
    return D, sorted({p for w in windings for p in range(w - D, w + D + 1)})


def _cylinder_counts(sys: SuspensionSystem, scale: float, n: int) -> dict:
    """The Bowen class count of every scale-cylinder, keyed by what the
    count depends on (see the system's `class_counts`).

    Every point of the Bowen sample shares the annulus orbit of (0.5, 0.0),
    so the strip term of a pair under deck shift s is |s|.  At a scale
    below 1 only s = 0 counts, and two points of one cylinder are Bowen-close exactly when they
    agree on the seen positions S: the count is the number of admissible
    fillings of the free positions, S minus the core [-D, D], which the
    system's `class_counts` gives exactly."""
    return sys.h.class_counts(*_seen_positions(sys, scale, n))


def entropy_separated(sys: SuspensionSystem, eps: float, n: int) -> float:
    """Lower entropy estimate: (1/n) log of the least Bowen class count of
    any cylinder at scale eps, the count that every eps-cylinder reaches.
    Like Bowen's separated sets it reads the whole space, with no base
    point, so it depends on neither a seed nor the window."""
    return math.log(min(_cylinder_counts(sys, eps, n).values())) / n


def entropy_spanning(sys: SuspensionSystem, eps: float, n: int) -> float:
    """Upper companion estimate: (1/n) log of the largest Bowen class count
    of any cylinder at scale eps/2.  That is k^f for the full shift, the
    largest row sum of A^f for an SFT whose windings are >= 0, 1 for the
    odometer, and the largest count over language cores for a substitution.

    lower <= upper holds for the full shift, an SFT and an odometer whenever
    the windings start at 0 and move by at most 1 in one direction, as under
    any rotation of speed in [-1, 1]: then f is the same at eps and eps/2,
    the count depends only on the core's end symbols, and every symbol ends
    some core, so the largest count at eps/2 bounds every eps-cylinder's
    count, and the least one a fortiori.  For a substitution, whose count
    depends on the whole core, the ordering is measured, not proved:
    Thue-Morse has eps-cylinders with more classes than any eps/2-cylinder,
    yet the least eps-count stays at or below the upper count on every case
    tried (README "Entropy counting")."""
    return math.log(max(_cylinder_counts(sys, eps / 2.0, n).values())) / n


class ProductFormulaRow(NamedTuple):
    eps: float
    n: int
    lower: float
    upper: float
    target: float
    alpha: float
    h_entropy: float


def product_formula_report(sys: SuspensionSystem, alpha: float, eps_list: list[float],
                           n_list: list[int]) -> list[ProductFormulaRow]:
    """Estimate table against the product target |alpha| * h_top(h)."""
    h_ent = sys.h.entropy_exact()
    target = abs(alpha) * h_ent
    rows = []
    for eps in eps_list:
        for n in n_list:
            rows.append(ProductFormulaRow(
                eps=eps, n=n,
                lower=entropy_separated(sys, eps, n),
                upper=entropy_spanning(sys, eps, n),
                target=target, alpha=alpha, h_entropy=h_ent))
    return rows
