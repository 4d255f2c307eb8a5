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
                     SymbolSequence, alphabet_size, cantor_metric, entropy_exact,
                     random_point, shift_power, _all_words, _substitution_language)


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

def _stratified_digits(j: int, k: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(j % k)
        j //= k
    return out


def _variation_windows(h: CantorSystem, base: SymbolSequence, D: int,
                       budget: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """int8 windows (rows = points) over absolute indices lo..hi: all match
    `base` on |i| <= D, stratified then seeded beyond."""
    width = hi - lo + 1
    cols = np.arange(lo, hi + 1)
    if isinstance(h, Odometer):
        bases = h.bases
        depth = len(bases)
        shared = min(D + 1, depth)
        place = 1
        base_val = 0
        for i in range(shared):
            base_val += base.extension.digits[i] * place
            place *= bases[i]
        vals = np.full(budget, base_val, dtype=np.int64)
        mult = place
        jj = np.arange(budget, dtype=np.int64)
        for i in range(shared, depth):
            vals += (jj % bases[i]) * mult  # cyclic enumeration of completions
            jj //= bases[i]
            mult *= bases[i]
        win = np.zeros((budget, width), dtype=np.int8)
        v = vals.copy()
        for i in range(depth):
            col = i - lo
            if 0 <= col < width:
                win[:, col] = (v % bases[i]).astype(np.int8)
            v //= bases[i]
        return win

    k = alphabet_size(h)
    base_syms = np.array([base.symbol_at(i) for i in cols], dtype=np.int8)
    win = np.tile(base_syms, (budget, 1))
    rng = np.random.default_rng(seed)
    right = [i for i in cols if i > D]
    left = [i for i in cols if i < -D]
    free_positions = right + left[::-1]
    n_strat = min(len(free_positions), max(1, math.ceil(math.log(max(budget, 2), k))) + 4)

    if isinstance(h, FullShift):
        for rank, idx in enumerate(free_positions):
            col = idx - lo
            if rank < n_strat:
                digits = np.array([_stratified_digits(j, k, rank + 1)[-1]
                                   for j in range(budget)], dtype=np.int8)
                win[:, col] = digits
            else:
                win[:, col] = rng.integers(0, k, budget).astype(np.int8)
        return win

    if isinstance(h, SFT):
        succ = [[q for q, bit in enumerate(h.adjacency[p]) if bit] for p in range(k)]
        pred = [[p for p in range(k) if h.adjacency[p][q]] for q in range(k)]
        choice = rng.integers(0, 64, (budget, width))
        for rank, idx in enumerate(sorted(right)):
            col = idx - lo
            prev = win[:, col - 1].astype(int)
            if rank < n_strat:
                pick = np.array([_stratified_digits(j, 4, rank + 1)[-1]
                                 for j in range(budget)])
            else:
                pick = choice[:, col]
            win[:, col] = np.array([succ[p][pk % len(succ[p])]
                                    for p, pk in zip(prev, pick)], dtype=np.int8)
        for idx in sorted(left, reverse=True):
            col = idx - lo
            nxt = win[:, col + 1].astype(int)
            pick = choice[:, col]
            win[:, col] = np.array([pred[q][pk % len(pred[q])]
                                    for q, pk in zip(nxt, pick)], dtype=np.int8)
        return win

    if isinstance(h, Substitution):
        core = tuple(int(x) for x in base_syms[(cols >= -D) & (cols <= D)])
        lang = _substitution_language(h.rules, 7)
        radius = max(-lo, hi)
        hits = []
        for big in lang:
            for i in range(radius, len(big) - radius):
                if tuple(big[i - D:i + D + 1]) == core:
                    hits.append(big[i + lo:i + hi + 1])
        if not hits:
            hits = [tuple(int(x) for x in base_syms)]
        uniq = sorted(set(hits))
        for j in range(budget):
            win[j, :] = np.array(uniq[j % len(uniq)], dtype=np.int8)
        return win

    raise TypeError(f"unknown system {h!r}")


def _bowen_count(sys: SuspensionSystem, scale: float, n: int, budget: int,
                 seed: int) -> int:
    """Size of a maximal Bowen-(scale)-separated subset of a stratified sample
    sharing the annulus orbit of (0.5, 0.0) and one Cantor cylinder.

    The count is exact, not greedy.  Since every sample has the same annulus
    orbit, the strip term of a pair under deck shift s is |s|, which in
    floating point is at least 1 - 2^-53 for s = +-1.  So for scale < 1 only
    s = 0 counts, and two samples are Bowen-close exactly when their s = 0
    symbol windows agree at every time.  That is an equivalence relation:
    any maximal separated subset holds one sample per class, and its size is
    the number of distinct window rows."""
    if not scale < 1.0:
        raise ValueError(f"entropy scale {scale!r} must be below 1: at scale 1 "
                         "the deck shifts +-1 come within reach")
    if scale < 2.0 ** (-(sys.window - 2)):
        raise CapacityError("scale below window resolution; increase W")
    D = min(depth_for(scale), sys.window)

    r_orbit = []
    t, r = 0.5, 0.0
    for _ in range(n):
        r_orbit.append(r)
        t, r = (float(x) for x in sys.H.apply(t, r))
    w = np.floor(r_orbit).astype(np.int64)
    if np.abs(w).max() > sys.window:
        raise CapacityError(
            f"winding {int(np.abs(w).max())} exceeds window radius {sys.window}; "
            "increase W")

    base = random_point(sys.h, seed * 7 + 1, sys.window)
    # the one-column margin past the windows is part of the seeded sample
    # layout: narrowing lo..hi would draw a different sample
    lo = int(w.min()) - 1 - D
    hi = int(w.max()) + 1 + D
    win = _variation_windows(sys.h, base, D, budget, seed, lo, hi)

    if isinstance(sys.h, Odometer):
        # winding acts by addition: the window at time i holds the first
        # min(depth, D + 1) digits of value + w_i, i.e. value + w_i modulo
        # the product of those bases
        bases = sys.h.bases[:D + 1]
        modulus = math.prod(bases)
        vals = np.zeros(budget, dtype=np.int64)
        place = 1
        for idx, b in enumerate(bases):
            vals += win[:, idx - lo].astype(np.int64) * place
            place *= b
        rows = (vals[:, None] + w[None, :]) % modulus
    else:
        cols = (w[:, None] - D - lo) + np.arange(2 * D + 1)
        rows = win[:, cols.ravel()]
    return len(np.unique(rows, axis=0))


def entropy_separated(sys: SuspensionSystem, eps: float, n: int, budget: int,
                      seed: int) -> float:
    """Lower entropy estimate: (1/n) log of a maximal Bowen-eps-separated
    subsample count."""
    return math.log(max(1, _bowen_count(sys, eps, n, budget, seed))) / n


def entropy_spanning(sys: SuspensionSystem, eps: float, n: int, budget: int,
                     seed: int) -> float:
    """Upper companion estimate at scale eps/2 (a spanning set at eps/2 is at
    least as large as any eps-separated set)."""
    return math.log(max(1, _bowen_count(sys, eps / 2.0, n, budget, seed))) / n


@dataclass
class ProductFormulaRow:
    eps: float
    n: int
    budget: int
    lower: float
    upper: float
    target: float
    alpha: float
    h_entropy: float


def product_formula_report(sys: SuspensionSystem, alpha: float,
                           eps_list: list[float], n_list: list[int],
                           budget: int, seed: int) -> list[ProductFormulaRow]:
    """Estimate table against the product target |alpha| * h_top(h)."""
    h_ent = entropy_exact(sys.h)
    target = abs(alpha) * h_ent
    rows = []
    for eps in eps_list:
        for n in n_list:
            rows.append(ProductFormulaRow(
                eps=eps, n=n, budget=budget,
                lower=entropy_separated(sys, eps, n, budget, seed),
                upper=entropy_spanning(sys, eps, n, budget, seed),
                target=target, alpha=alpha, h_entropy=h_ent))
    return rows
