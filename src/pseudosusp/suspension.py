"""Suspension quotient dynamics over a Cantor system.

Points of the quotient are normalized representatives (t, r, c) with
r in [0,1): shifting r by an integer n trades exactly against applying the
n-th power of the Cantor homeomorphism to c.  The step map applies the lifted
annulus map to (t, r) and renormalizes; the accumulated winding identifies
which power of h acts on the point's seed, so pseudo-component bookkeeping
is exact by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .annulus import LiftedAnnulusMap
from .cantor import CantorPoint, CantorSystem, cantor_metric
from .config import CapacityError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SuspensionPoint:
    t: float
    r: float
    c: CantorPoint
    seed: CantorPoint
    winding: int = 0


class SuspensionSystem:
    """Lifted annulus map over a Cantor system.

    All dynamics here is pure.  `orbit` follows one point; a `QuotientCloud`
    steps many points at once as arrays."""

    def __init__(self, H: LiftedAnnulusMap, h: CantorSystem, window: int = 32):
        self.H = H
        self.h = h
        self.window = window

    def point(self, t: float, r: float, c: CantorPoint) -> SuspensionPoint:
        return normalize(self, t, r, c)


def normalize(sys: SuspensionSystem, t: float, r: float, c: CantorPoint,
              seed: CantorPoint | None = None, winding: int = 0) -> SuspensionPoint:
    """Fundamental-domain representative: (t, r, c) -> (t, r - k, h^k(c)),
    k = floor(r); ties at integers resolve downward."""
    k = math.floor(r)
    return SuspensionPoint(t, r - k, sys.h.power(c, k),
                           c if seed is None else seed, winding + k)


def step(sys: SuspensionSystem, p: SuspensionPoint) -> SuspensionPoint:
    t2, r2 = sys.H.apply(p.t, p.r)
    return normalize(sys, float(t2), float(r2), p.c, p.seed, p.winding)


def orbit(sys: SuspensionSystem, p: SuspensionPoint,
          n: int) -> list[tuple[float, float, int]]:
    """(t, r, winding) of p and its first n iterates under `step`.  The k-th
    iterate's Cantor coordinate is h^(w_k - w_0)(p.c); it is not built."""
    t, r, w = p.t, p.r, p.winding
    out = [(t, r, w)]
    for _ in range(n):
        t2, r2 = sys.H.apply(t, r)
        t, r = float(t2), float(r2)
        k = math.floor(r)
        r -= k
        w += k
        out.append((t, r, w))
    return out


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


def winding_rate(sys: SuspensionSystem, p0: SuspensionPoint,
                 n: int) -> list[tuple[int, float]]:
    """w_k/k along the orbit: an independent rotation-number estimate."""
    return [(k, (w - p0.winding) / k)
            for k, (_, _, w) in enumerate(orbit(sys, p0, n)[1:], start=1)]


# ---------------------------------------------------------------------------
# dense-orbit condition search
# ---------------------------------------------------------------------------

def depth_for(eps: float) -> int:
    """Least D with 2^-(D+1) < eps: window agreement on |i| <= D certifies
    cylinder distance < eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    d = 0
    while 2.0 ** (-(d + 1)) >= eps:
        d += 1
    return d


def dense_orbit_check(sys: SuspensionSystem, c: CantorPoint,
                      tr: tuple[float, float], eps: float,
                      k_max: int, s_max: int, p_max: int):
    """Search for (k, s, p) witnessing the two dense-orbit hypotheses:
    the backward k-orbit of c passes eps-close to every Cantor point within p
    steps, and the s-step annulus orbit advances by k per block within eps.
    Returns the first witness triple or None."""
    positions = sys.h.positions(depth_for(eps))
    # every legal pattern at the positions read: an eps-net of the Cantor set
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
                    t_cur, r_cur = sys.H.apply(t_cur, r_cur)
                if abs(t_cur - t0) + abs(r_cur - (r0 + k * j)) >= eps:
                    ok = False
                    break
            if ok:
                return (k, s, p_cover)
    return None


# ---------------------------------------------------------------------------
# weak-mixing witness search
# ---------------------------------------------------------------------------

class QuotientCloud:
    """Points (t, r, h^w(seed)) of the quotient held as arrays, stepped and
    measured all at once with the same floating-point operations as `step`
    and `quotient_distance` use point by point, so every coordinate and
    every distance is bit-identical to theirs.

    t and r are float64 and the winding w is int64.  The Cantor coordinate
    is the system's `table` of the seeds, read at the positions the metric
    reads: a symbol table for a shift, carried digits for the odometer.
    Only this class builds arrays in the module, so it alone imports numpy."""

    def __init__(self, sys: SuspensionSystem, points: list[SuspensionPoint]):
        import numpy as np

        self.sys = sys
        self.alphabet = points[0].c.alphabet_size
        self.t = np.array([p.t for p in points], dtype=np.float64)
        self.r = np.array([p.r for p in points], dtype=np.float64)
        self.w = np.array([p.winding for p in points], dtype=np.int64)
        self.positions = np.array(sys.h.positions(sys.window))
        self.scale = np.array([2.0 ** (-abs(int(i))) for i in self.positions])
        self.table = sys.h.table([p.seed for p in points], self.positions)
        self.symbols = self.table.read(self.w)

    def step(self) -> None:
        import numpy as np

        t, r = self.sys.H.apply(self.t, self.r)
        k = np.floor(r)
        self.t, self.r = t, r - k
        self.w += k.astype(np.int64)
        self.symbols = self.table.read(self.w)

    def target(self, q: SuspensionPoint):
        """q with the symbols of h^-s(q.c), s = -1, 0, 1, at the positions
        the metric reads, for `distances`."""
        import numpy as np

        if q.c.alphabet_size != self.alphabet:
            raise ValueError("points live over different alphabets")
        rows = np.array([[self.sys.h.power(q.c, -s).symbol_at(int(i))
                          for i in self.positions] for s in (-1, 0, 1)])
        return q.t, q.r, rows

    def distances(self, target) -> np.ndarray:
        """`quotient_distance` from every point to the target's point: the
        cylinder term is the scale of the nearest mismatch, or 0."""
        import numpy as np

        qt, qr, rows = target
        best = np.full(len(self.t), math.inf)
        for s, row in zip((-1, 0, 1), rows):
            strip = np.abs(self.t - qt) + np.abs(self.r - (qr + s))
            cd = np.where(self.symbols != row, self.scale, 0.0).max(axis=1)
            best = np.minimum(best, np.maximum(strip, cd))
        return best


def weak_mixing_witness(sys: SuspensionSystem, U: tuple[SuspensionPoint, float],
                        V: tuple[SuspensionPoint, float], horizon: int,
                        cloud_size: int = 64, seed: int = 0):
    """Banks-criterion search: least l <= horizon with some iterate of the
    U-cloud back in U and some iterate in V.  None on exhaustion."""
    (cu, ru), (cv, rv) = U, V
    if ru <= 0 or rv <= 0:
        raise ValueError("ball radii must be positive")
    if cloud_size < 1:
        raise ValueError(f"cloud size must be at least 1, got {cloud_size}")
    rng = random.Random(seed)
    D = depth_for(ru)
    cloud = []
    for _ in range(cloud_size):
        dt = (rng.random() - 0.5) * ru / 2
        dr = (rng.random() - 0.5) * ru / 2
        c = sys.h.splice(cu.c, D, rng, sys.window)
        p = normalize(sys, min(1.0, max(0.0, cu.t + dt)), cu.r + dr, c)
        if quotient_distance(sys, p, cu) < ru:
            cloud.append(p)
    if not cloud:
        raise ValueError("could not seed a cloud inside U")
    cloud = QuotientCloud(sys, cloud)
    to_u, to_v = cloud.target(cu), cloud.target(cv)
    for l in range(1, horizon + 1):
        cloud.step()
        if (cloud.distances(to_u) < ru).any() and (cloud.distances(to_v) < rv).any():
            return l
    return None


# ---------------------------------------------------------------------------
# entropy brackets
# ---------------------------------------------------------------------------

def _seen_positions(sys: SuspensionSystem, scale: float, n: int) -> tuple[int, list[int]]:
    """D and the sorted symbol positions S = union of [w_i - D, w_i + D] that
    the Bowen windows read, w_i the windings of the annulus orbit of
    (0.5, 0.0) over n steps.  The window W caps D only: `class_counts` reads
    any position, so a winding may exceed W."""
    if not scale < 1.0:
        raise ValueError(f"entropy scale {scale!r} must be below 1: at scale 1 "
                         "the deck shifts +-1 come within reach")
    if scale < 2.0 ** (-(sys.window - 2)):
        raise CapacityError("scale below window resolution; increase W")
    D = min(depth_for(scale), sys.window)
    windings = []
    t, r = 0.5, 0.0
    for _ in range(n):
        windings.append(math.floor(r))
        t, r = (float(x) for x in sys.H.apply(t, r))
    return D, sorted({p for w in windings for p in range(w - D, w + D + 1)})


def _cylinder_counts(sys: SuspensionSystem, scale: float, n: int) -> tuple[int, dict]:
    """D, and the Bowen class count of every scale-cylinder, keyed by the
    system's `core_key` (what the count depends on).

    Every point of the Bowen sample shares the annulus orbit of (0.5, 0.0),
    so the strip term of a pair under deck shift s is |s|, at least
    1 - 2^-53 for s = +-1 in floating point.  At a scale below 1 only s = 0
    counts, and two points of one cylinder are Bowen-close exactly when they
    agree on the seen positions S: the count is the number of admissible
    fillings of the free positions, S minus the core [-D, D], which the
    system's `class_counts` gives exactly."""
    D, seen = _seen_positions(sys, scale, n)
    return D, sys.h.class_counts(D, seen)


def entropy_separated(sys: SuspensionSystem, eps: float, n: int, seed: int) -> float:
    """Lower entropy estimate: (1/n) log of the Bowen class count at scale
    eps on the cylinder of the seeded base point."""
    D, counts = _cylinder_counts(sys, eps, n)
    base = sys.h.random_point(seed * 7 + 1, sys.window)
    return math.log(counts[sys.h.core_key(base, D)]) / n


def entropy_spanning(sys: SuspensionSystem, eps: float, n: int) -> float:
    """Upper companion estimate: (1/n) log of the largest Bowen class count
    of any cylinder at scale eps/2.  That is k^f for the full shift, the
    largest row sum of A^f for an SFT whose windings are >= 0, 1 for the
    odometer, and the largest count over language cores for a substitution.

    lower <= upper holds for the full shift, an SFT and an odometer whenever
    the windings start at 0 and move by at most 1 in one direction, as under
    any rotation of speed in [-1, 1]: then f is the same at eps and eps/2,
    the count depends only on the core's end symbols, and every symbol ends
    some core, so the largest count bounds the base cylinder's.  It does not
    hold in general for a substitution, whose count depends on the whole
    core: Thue-Morse has eps-cylinders with more classes than any
    eps/2-cylinder."""
    _, counts = _cylinder_counts(sys, eps / 2.0, n)
    return math.log(max(counts.values())) / n


@dataclass
class ProductFormulaRow:
    eps: float
    n: int
    lower: float
    upper: float
    target: float
    alpha: float
    h_entropy: float


def product_formula_report(sys: SuspensionSystem, alpha: float,
                           eps_list: list[float], n_list: list[int],
                           seed: int) -> list[ProductFormulaRow]:
    """Estimate table against the product target |alpha| * h_top(h)."""
    h_ent = sys.h.entropy_exact()
    target = abs(alpha) * h_ent
    rows = []
    for eps in eps_list:
        for n in n_list:
            rows.append(ProductFormulaRow(
                eps=eps, n=n,
                lower=entropy_separated(sys, eps, n, seed),
                upper=entropy_spanning(sys, eps, n),
                target=target, alpha=alpha, h_entropy=h_ent))
    return rows
