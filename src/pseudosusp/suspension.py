"""Suspension quotient dynamics over a Cantor system.

Points of the quotient are normalized representatives (t, r, c) with
r in [0,1): shifting r by an integer n trades exactly against applying the
n-th power of the Cantor homeomorphism to c.  The step map applies the lifted
annulus map to (t, r) and renormalizes; the accumulated winding identifies
which power of h acts on the registered seed, so pseudo-component bookkeeping
is exact by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .annulus import LiftedAnnulusMap
from .cantor import (CantorSystem, DigitStream, FullShift, GraphPath,
                     InvalidPointError, Odometer, Periodic, SFT, Substitution,
                     SymbolSequence, cantor_metric, entropy_exact, random_point,
                     shift_power, _all_words, _language_words, _substitution_language)


class CapacityError(RuntimeError):
    """Windings would outrun the metric window; construct with a larger W."""


@dataclass(frozen=True)
class SuspensionPoint:
    t: float
    r: float
    c: SymbolSequence
    seed: SymbolSequence
    winding: int = 0


class SuspensionSystem:
    """Lifted annulus map over a Cantor system, with a seed registry that
    names pseudo-components in reports.

    All dynamics here is pure; the registry is append-only naming and the only
    mutable state.  `orbit` follows one point; a `QuotientCloud` steps many
    points at once as arrays."""

    def __init__(self, H: LiftedAnnulusMap, h: CantorSystem, window: int = 32):
        self.H = H
        self.h = h
        self.window = window
        self._registry: list[SymbolSequence] = []

    def component_index(self, seed: SymbolSequence) -> int:
        for i, s in enumerate(self._registry):
            if s is seed:
                return i
        self._registry.append(seed)
        return len(self._registry) - 1

    def point(self, t: float, r: float, c: SymbolSequence) -> SuspensionPoint:
        return normalize(self, t, r, c)


def normalize(sys: SuspensionSystem, t: float, r: float, c: SymbolSequence,
              seed: SymbolSequence | None = None, winding: int = 0) -> SuspensionPoint:
    """Fundamental-domain representative: (t, r, c) -> (t, r - k, h^k(c)),
    k = floor(r); ties at integers resolve downward."""
    k = math.floor(r)
    return SuspensionPoint(t, r - k, shift_power(c, sys.h, k),
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
        cd = cantor_metric(p.c, shift_power(q.c, sys.h, -s), sys.window)
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


def _net_keys(h: CantorSystem, D: int) -> set[tuple[int, ...]]:
    """All valid centered patterns on |i| <= D (odometer: the first D + 1
    digits): an eps-net of the Cantor set."""
    return set(_all_words(h, D + 1 if isinstance(h, Odometer) else 2 * D + 1))


def _point_key(c: SymbolSequence, h: CantorSystem, D: int) -> tuple[int, ...]:
    if isinstance(h, Odometer):
        return tuple(c.symbol_at(i) for i in range(min(D + 1, len(h.bases))))
    return tuple(c.symbol_at(i) for i in range(-D, D + 1))


def dense_orbit_check(sys: SuspensionSystem, c: SymbolSequence,
                      tr: tuple[float, float], eps: float,
                      k_max: int, s_max: int, p_max: int):
    """Search for (k, s, p) witnessing the two dense-orbit hypotheses:
    the backward k-orbit of c passes eps-close to every Cantor point within p
    steps, and the s-step annulus orbit advances by k per block within eps.
    Returns the first witness triple or None."""
    D = depth_for(eps)
    net = _net_keys(sys.h, D)
    t0, r0 = tr
    for k in range(1, k_max + 1):
        unseen = set(net)
        cur = c
        p_cover = None
        for i in range(p_max + 1):
            unseen.discard(_point_key(cur, sys.h, D))
            if not unseen:
                p_cover = i
                break
            cur = shift_power(cur, sys.h, -k)
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

def _splice_point(h: CantorSystem, base: SymbolSequence, D: int, rng: random.Random,
                  W: int) -> SymbolSequence:
    """A point agreeing with `base` on |i| <= D, varied beyond (admissibly)."""
    if isinstance(h, Odometer):
        digits = list(base.extension.digits)
        for i in range(min(D + 1, len(digits)), len(digits)):
            digits[i] = rng.randrange(h.bases[i])
        return SymbolSequence(DigitStream(tuple(digits), h.bases), base.alphabet_size, W)
    if isinstance(h, FullShift):
        word = [base.symbol_at(i) if abs(i) <= D else rng.randrange(h.k)
                for i in range(-W, W + 1)]
        word = tuple(word)
        return SymbolSequence(Periodic(word, word, -W), h.k, W)
    if isinstance(h, SFT):
        word = [base.symbol_at(i) for i in range(-W, W + 1)]
        for pos in range(W + D + 1, 2 * W + 1):
            succ = [q for q, bit in enumerate(h.adjacency[word[pos - 1]]) if bit]
            word[pos] = succ[rng.randrange(len(succ))]
        for pos in range(W - D - 1, -1, -1):
            pred = [q for q in range(h.k) if h.adjacency[q][word[pos + 1]]]
            word[pos] = pred[rng.randrange(len(pred))]
        return SymbolSequence(GraphPath(h.adjacency, tuple(word), -W), h.k, W)
    if isinstance(h, Substitution):
        # language windows sharing the base core; tails periodic approximants
        core = tuple(base.symbol_at(i) for i in range(-D, D + 1))
        lang = _substitution_language(h.rules, 7)
        hits = []
        for big in lang:
            for i in range(W, len(big) - W):
                if big[i - D:i + D + 1] == core:
                    hits.append(big[i - W:i + W + 1])
        if not hits:
            return base
        word = hits[rng.randrange(len(hits))]
        return SymbolSequence(Periodic(word, word, -W), len(h.rules), W)
    raise TypeError(f"unknown system {h!r}")


class QuotientCloud:
    """Points (t, r, h^w(seed)) of the quotient held as arrays, stepped and
    measured all at once with the same floating-point operations as `step`
    and `quotient_distance` use point by point, so every coordinate and
    every distance is bit-identical to theirs.

    t and r are float64 and the winding w is int64.  The Cantor coordinate
    of an odometer point is its digits, carried when w moves; for a shift,
    SFT or substitution it is one table of the seeds' symbols over an index
    range that grows when the windings need it, read at i + w.  An SFT table
    is checked against the adjacency once per growth, in place of the
    per-shift validation of `shift_power`."""

    def __init__(self, sys: SuspensionSystem, points: list[SuspensionPoint]):
        W = sys.window
        self.sys = sys
        self.alphabet = points[0].c.alphabet_size
        self.t = np.array([p.t for p in points], dtype=np.float64)
        self.r = np.array([p.r for p in points], dtype=np.float64)
        self.w = np.array([p.winding for p in points], dtype=np.int64)
        self.odometer = isinstance(sys.h, Odometer)
        if self.odometer:
            # positions past the digits or below 0 read 0 on every point
            self.positions = np.arange(min(len(sys.h.bases), W + 1))
            depth = self.positions
            self.digits = np.array([[p.c.symbol_at(i) for i in self.positions]
                                    for p in points], dtype=np.int64)
        else:
            # the metric's reading order 0, 1, -1, ..., W, -W
            self.positions = np.array([0] + [s * m for m in range(1, W + 1)
                                             for s in (1, -1)])
            depth = (np.arange(2 * W + 1) + 1) // 2
            self.seeds = [p.seed for p in points]
            # an empty table over 0..-1, which the first cover fills
            self.lo, self.hi = 0, -1
            self.table = self._columns(0, 0)
            self._cover()
        self.scale = np.array([2.0 ** (-int(m)) for m in depth])

    def _cover(self) -> None:
        """Grow the symbol table to indices w - W .. w + W of every point;
        each growth adds as many columns again as the table has, so the
        growths stay few."""
        W = self.sys.window
        need_lo, need_hi = int(self.w.min()) - W, int(self.w.max()) + W
        if self.lo <= need_lo and need_hi <= self.hi:
            return
        pad = self.hi - self.lo + 1
        lo = self.lo if need_lo >= self.lo else need_lo - pad
        hi = self.hi if need_hi <= self.hi else need_hi + pad
        self.table = np.hstack([self._columns(lo, self.lo), self.table,
                                self._columns(self.hi + 1, hi + 1)])
        self.lo, self.hi = lo, hi
        h = self.sys.h
        if isinstance(h, SFT):
            if ((self.table < 0) | (self.table >= h.k)).any():
                raise InvalidPointError("window symbol outside alphabet")
            left, right = self.table[:, :-1], self.table[:, 1:]
            bad = ~np.array(h.adjacency, dtype=bool)[left, right]
            if bad.any():
                j, i = np.argwhere(bad)[0]
                raise InvalidPointError(f"inadmissible pair ({left[j, i]},{right[j, i]}) "
                                        "for SFT adjacency")

    def _columns(self, lo: int, hi: int) -> np.ndarray:
        return np.array([[c.symbol_at(i) for i in range(lo, hi)] for c in self.seeds],
                        dtype=np.int64)

    def step(self) -> None:
        t, r = self.sys.H.apply(self.t, self.r)
        k = np.floor(r)
        self.t, self.r = t, r - k
        k = k.astype(np.int64)
        self.w += k
        if self.odometer:
            # mixed-radix addition; the carry past the last digit is dropped
            for i, b in enumerate(self.sys.h.bases[:len(self.positions)]):
                if not k.any():
                    break
                k, self.digits[:, i] = np.divmod(self.digits[:, i] + k, b)
        else:
            self._cover()

    def target(self, q: SuspensionPoint):
        """q with the symbols of h^-s(q.c), s = -1, 0, 1, at the positions
        the metric reads, for `distances`."""
        if q.c.alphabet_size != self.alphabet:
            raise ValueError("points live over different alphabets")
        rows = np.array([[shift_power(q.c, self.sys.h, -s).symbol_at(int(i))
                          for i in self.positions] for s in (-1, 0, 1)])
        return q.t, q.r, rows

    def distances(self, target) -> np.ndarray:
        """`quotient_distance` from every point to the target's point."""
        qt, qr, rows = target
        if self.odometer:
            syms = self.digits
        else:
            cols = (self.w - self.lo)[:, None] + self.positions[None, :]
            syms = np.take_along_axis(self.table, cols, axis=1)
        best = np.full(len(self.t), math.inf)
        for s, row in zip((-1, 0, 1), rows):
            strip = np.abs(self.t - qt) + np.abs(self.r - (qr + s))
            mismatch = syms != row
            cd = np.where(mismatch.any(axis=1), self.scale[mismatch.argmax(axis=1)], 0.0)
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
        c = _splice_point(sys.h, cu.c, D, rng, sys.window)
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
# rigidity on the quotient
# ---------------------------------------------------------------------------

def rigidity_suspension(sys: SuspensionSystem, grid: int, horizon: int,
                        eps: float, seed: int = 0) -> list[tuple[int, float]]:
    """All n <= horizon with sup quotient displacement < eps over a grid of
    start points sharing one seeded Cantor coordinate."""
    c0 = random_point(sys.h, seed, sys.window)
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
            wdist[key] = cantor_metric(shift_power(c0, sys.h, w),
                                       shift_power(c0, sys.h, -s), sys.window)
        return wdist[key]

    qualifying = []
    for n in range(1, horizon + 1):
        t, rlift = sys.H.apply(t, rlift)
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


# ---------------------------------------------------------------------------
# entropy brackets
# ---------------------------------------------------------------------------

def _seen_positions(sys: SuspensionSystem, scale: float, n: int) -> tuple[int, list[int]]:
    """D and the sorted symbol positions S = union of [w_i - D, w_i + D] that
    the Bowen windows read, w_i the windings of the annulus orbit of
    (0.5, 0.0) over n steps."""
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
    widest = max(abs(w) for w in windings)
    if widest > sys.window:
        raise CapacityError(f"winding {widest} exceeds window radius {sys.window}; "
                            "increase W")
    return D, sorted({p for w in windings for p in range(w - D, w + D + 1)})


def _reach(adjacency, steps: int) -> np.ndarray:
    """0/1 matrix: (A^steps > 0), without the growth of A^steps."""
    a = np.array(adjacency, dtype=bool).astype(np.int64)
    out = np.identity(len(a), dtype=np.int64)
    for _ in range(steps):
        out = np.minimum(out @ a, 1)
    return out


def _fillings(adjacency, steps: list[int]) -> list[int]:
    """Entry a: the admissible fillings of the seen positions past a core
    edge holding symbol a, where `steps` are the distances between
    consecutive seen positions going outward; a step g > 1 crosses unseen
    positions and enters as (A^g > 0).  Exact integers."""
    count = [1] * len(adjacency)
    for g in reversed(steps):
        count = [sum(c for c, bit in zip(count, row) if bit) for row in _reach(adjacency, g)]
    return count


def _cylinder_counts(sys: SuspensionSystem, scale: float, n: int) -> tuple[int, dict]:
    """D, and the Bowen class count of every scale-cylinder, keyed by
    `_cylinder_key` (what the count depends on).

    Every point of the Bowen sample shares the annulus orbit of (0.5, 0.0),
    so the strip term of a pair under deck shift s is |s|, at least
    1 - 2^-53 for s = +-1 in floating point.  At a scale below 1 only s = 0
    counts, and two points of one cylinder are Bowen-close exactly when they
    agree on the seen positions S: the count is the number of admissible
    fillings of the free positions, S minus the core [-D, D], f_R of them on
    the right and f_L on the left.

    - Full shift: k^(f_R + f_L), whatever the core.
    - SFT: the row sum of A^(f_R) at the core's right symbol times the column
      sum of A^(f_L) at its left symbol; a gap in S of g positions enters as
      (A^g > 0).  Keyed by the core's end symbols.
    - Odometer: 1.  An identity, not a sample: the windows compare the first
      D + 1 digits of value + w_i, i.e. value + w_i modulo the product of
      the first D + 1 bases, and every point of the cylinder has the same
      value modulo that product.
    - Substitution: the distinct restrictions to S of the language words on
      the span of S whose core is the cylinder's.  Keyed by the core."""
    D, seen = _seen_positions(sys, scale, n)
    h = sys.h
    if isinstance(h, Odometer):
        return D, {(): 1}
    right = [p for p in seen if p >= D]
    left = [p for p in reversed(seen) if p <= -D]
    if isinstance(h, FullShift):
        return D, {(): h.k ** (len(right) + len(left) - 2)}
    if isinstance(h, SFT):
        rows = _fillings(h.adjacency, [b - a for a, b in zip(right, right[1:])])
        transposed = tuple(zip(*h.adjacency))
        cols = _fillings(transposed, [a - b for a, b in zip(left, left[1:])])
        joined = _reach(h.adjacency, 2 * D)
        return D, {(b, a): cols[b] * rows[a]
                   for b in range(h.k) for a in range(h.k) if joined[b][a]}
    if isinstance(h, Substitution):
        lo = seen[0]
        picks = [p - lo for p in seen]
        restrictions: dict[tuple[int, ...], set] = {}
        for word in _language_words(h.rules, seen[-1] - lo + 1):
            core = word[-D - lo:D - lo + 1]
            restrictions.setdefault(core, set()).add(tuple(word[i] for i in picks))
        return D, {core: len(r) for core, r in restrictions.items()}
    raise TypeError(f"unknown system {h!r}")


def _cylinder_key(h: CantorSystem, c: SymbolSequence, D: int) -> tuple[int, ...]:
    if isinstance(h, SFT):
        return (c.symbol_at(-D), c.symbol_at(D))
    if isinstance(h, Substitution):
        return tuple(c.symbol_at(i) for i in range(-D, D + 1))
    return ()


def entropy_separated(sys: SuspensionSystem, eps: float, n: int, seed: int) -> float:
    """Lower entropy estimate: (1/n) log of the Bowen class count at scale
    eps on the cylinder of the seeded base point."""
    D, counts = _cylinder_counts(sys, eps, n)
    base = random_point(sys.h, seed * 7 + 1, sys.window)
    return math.log(counts[_cylinder_key(sys.h, base, D)]) / n


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
    h_ent = entropy_exact(sys.h)
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
