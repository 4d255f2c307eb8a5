"""Chain patterns, folding refinements, stretching tests and horseshoe
certificates on a piecewise-linear desk model.

All geometry here is exact rational arithmetic: fractions.Fraction, except
in the horseshoe pullback, which works on integer numerators over one common
denominator per level and reports its hulls as numerators over the last
level's denominator.  The only floats are reported entropies.  Closed
intervals stand in for the subcontinua of the folding construction: the
itinerary structure is identical, only the ambient space is simplified.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

FR = Fraction


class ChainError(ValueError):
    """Chain violates tautness/adjacency, or a refinement is infeasible."""


class StretchPreconditionError(ValueError):
    """Horseshoe extraction requires a passing stretch test."""


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

class Pattern(NamedTuple):
    """Unit-step index map f: {1..m} -> {1..n} between chains."""

    values: tuple[int, ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]


def kfold(k: int) -> Pattern:
    """The 7-link folding pattern on 2k+5 indices; defined for odd k >= 3."""
    if k % 2 == 0 or k < 3:
        raise ValueError(f"k-fold requires an odd k >= 3, got {k}")
    # links 1-3, (k - 1)/2 swings 4,5,4,3 between links 5 and 3, then links 4-7
    return Pattern((1, 2, 3) + (4, 5, 4, 3) * ((k - 1) // 2) + (4, 5, 6, 7), 7)


# ---------------------------------------------------------------------------
# piecewise-linear interval maps (exact)
# ---------------------------------------------------------------------------

class PLMap:
    """Continuous piecewise-linear self-map of [0,1], exact breakpoints."""

    __slots__ = ("breakpoints",)

    def __init__(self, breakpoints: tuple[tuple[FR, FR], ...]):
        xs = [x for x, _ in breakpoints]
        ys = [y for _, y in breakpoints]
        if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1:
            raise ValueError("breakpoints must span [0,1]")
        if any(b >= a for a, b in zip(xs[1:], xs)):
            raise ValueError("breakpoint abscissae must strictly increase")
        if any(y < 0 or y > 1 for y in ys):
            raise ValueError("image must stay inside [0,1]")
        self.breakpoints = breakpoints

    def __call__(self, x: FR) -> FR:
        bp = self.breakpoints
        for (x0, y0), (x1, y1) in zip(bp, bp[1:]):
            if x0 <= x <= x1:
                return y0 + (x - x0) * (y1 - y0) / (x1 - x0)
        raise ValueError(f"{x} outside [0,1]")

    def image(self, interval: tuple[FR, FR]) -> tuple[FR, FR]:
        lo, hi = interval
        if lo > hi:
            raise ValueError("empty interval")
        vals = [self(lo), self(hi)]
        vals += [y for x, y in self.breakpoints if lo < x < hi]
        return min(vals), max(vals)


def _merge_intervals(pieces: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if len(pieces) < 2:
        return list(pieces)
    pieces = sorted(pieces)
    out = [pieces[0]]
    for lo, hi in pieces[1:]:
        plo, phi = out[-1]
        if lo <= phi:
            out[-1] = (plo, max(phi, hi))
        else:
            out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# one-dimensional chains, stretching, horseshoes
# ---------------------------------------------------------------------------

class IntervalChain:
    """Ordered closed subintervals of [0,1]; taut = only consecutive closures
    meet."""

    __slots__ = ("links",)

    def __init__(self, links: tuple[tuple[FR, FR], ...]):
        for i, (lo, hi) in enumerate(links):
            if lo < 0 or hi > 1:
                raise ChainError(f"link {i + 1} leaves [0,1]")
        self.links = links

    def validate_taut(self) -> None:
        ln = self.links
        for i, (lo, hi) in enumerate(ln):
            if lo >= hi:
                raise ChainError(f"link {i + 1} is degenerate")
        for i in range(len(ln) - 1):
            if ln[i][1] < ln[i + 1][0]:
                raise ChainError(f"links {i + 1},{i + 2} do not meet")
        for i in range(len(ln)):
            for j in range(i + 2, len(ln)):
                if ln[i][1] >= ln[j][0]:
                    raise ChainError(f"links {i + 1},{j + 1} are not taut")


def _contains(outer: tuple[FR, FR], inner: tuple[FR, FR]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def stretch_check(g: PLMap, chain: IntervalChain,
                  m_bound: int = 8) -> Optional[tuple[int, str]]:
    """The least m <= m_bound for which g^m sends link 3 into an end link and
    link 5 into the opposite end link, with the orientation: "standard" if
    link 3 lands in link 1, "swapped" if in link 7.  None if no m does.
    Exact interval images."""
    if len(chain.links) != 7:
        raise ChainError(f"stretch test is defined on 7-link chains, got {len(chain.links)}")
    chain.validate_taut()
    u1, u3, u5, u7 = (chain.links[i] for i in (0, 2, 4, 6))
    i3, i5 = u3, u5
    for m in range(1, m_bound + 1):
        i3, i5 = g.image(i3), g.image(i5)  # g^m(I) = g(g^(m-1)(I)), g continuous
        if _contains(u1, i3) and _contains(u7, i5):
            return m, "standard"
        if _contains(u7, i3) and _contains(u1, i5):
            return m, "swapped"
    return None


class HorseshoeCertificate(NamedTuple):
    k: int
    depth: int
    exponent: int
    orientation: str
    passed: bool
    nonempty: int
    expected: int
    failing_word: Optional[tuple[int, ...]]
    entropy_bound: float
    slots: tuple[tuple[FR, FR], ...]
    scale: int
    # each surviving full-depth word's hull, as numerators over `scale`
    intervals: dict[tuple[int, ...], tuple[int, int]]

    def summary(self) -> str:
        if self.passed:
            return (f"horseshoe certificate: k={self.k} depth={self.depth} "
                    f"m={self.exponent}: all {self.expected} itinerary intervals "
                    f"nonempty, entropy >= {self.entropy_bound:.9g}")
        word = ",".join(map(str, self.failing_word or ()))
        return (f"horseshoe certificate FAILED: k={self.k} depth={self.depth} "
                f"m={self.exponent}: empty branch at word ({word}); "
                f"{self.nonempty}/{self.expected} intervals nonempty")


def _lattice_preimages(laps, lo: int, hi: int) -> list[tuple[int, int]]:
    """g^-1([lo, hi]) as merged pieces, on the integer lattice of one
    preimage step: lo, hi and each lap's y0, ymin and ymax are numerators
    over the step's old scale D, its x0 and x1 numerators over D·S, and r is
    its inverse slope times S (0 on a constant lap), so each piece comes out
    over D·S."""
    pieces = []
    for x0, x1, y0, ymin, ymax, r in laps:
        if ymax < lo or ymin > hi:
            continue
        if not r:
            pieces.append((x0, x1))
            continue
        a = x0 + (lo - y0) * r
        b = x0 + (hi - y0) * r
        if a > b:
            a, b = b, a
        if a < x0:
            a = x0
        if b > x1:
            b = x1
        if a <= b:
            pieces.append((a, b))
    return _merge_intervals(pieces)


def _pullback(g: PLMap, m: int, slots: Sequence[tuple[FR, FR]], depth: int
              ) -> list[tuple[int, dict[tuple[int, ...], list[tuple[int, int]]]]]:
    """The points of slot w[0] whose g^m-itinerary through the slots is w,
    as merged pieces, for every word w where they exist: level l holds the
    words of length l + 1, for l = 0..depth, as (scale, pieces by word), each
    piece a pair of integer numerators over the level's scale.

    The pieces of (s,) + v are g^-m(pieces of v) ∩ slot s, so they depend on
    v alone: each level is built from the previous one.  g^-m is m chained
    preimage steps over the merged piece list, one `_lattice_preimages` call
    per piece per step; with m = 1 and every piece whole that is
    k + k² + ... + k^depth calls.  The slots are sorted and disjoint, so each
    preimage piece is clipped only to the run of slots that it meets.

    Every endpoint lies on one integer lattice.  Let D0 be the lcm of the
    denominators of the breakpoints and the slots, and S the lcm of the
    denominators of the laps' inverse slopes: a preimage step takes a value
    over D to a value over D·S, so level l lives on scale D0·S^(l·m), and
    each preimage, clip and merge is a plain integer operation."""
    bp = g.breakpoints
    d0 = math.lcm(*(v.denominator for point in bp for v in point),
                  *(v.denominator for slot in slots for v in slot))
    inv = [(x1 - x0) / (y1 - y0) if y1 != y0 else 0 for (x0, y0), (x1, y1) in zip(bp, bp[1:])]
    s = math.lcm(*(r.denominator for r in inv))

    def over_d0(v: FR) -> int:
        return v.numerator * (d0 // v.denominator)

    pts = [(over_d0(x), over_d0(y)) for x, y in bp]
    laps = [(x0, x1, y0, min(y0, y1), max(y0, y1), int(r * s))
            for ((x0, y0), (x1, y1)), r in zip(zip(pts, pts[1:]), inv)]
    base = [(over_d0(lo), over_d0(hi)) for lo, hi in slots]
    levels = [(d0, {(i + 1,): [slot] for i, slot in enumerate(base)})]
    for _ in range(depth):
        scale, level = levels[-1]
        steps = []
        for _ in range(m):
            old, scale = scale // d0, scale * s
            new = scale // d0
            steps.append([(x0 * new, x1 * new, y0 * old, ymin * old, ymax * old, r)
                          for x0, x1, y0, ymin, ymax, r in laps])
        clip = [(lo * new, hi * new) for lo, hi in base]
        starts = [lo for lo, _ in clip]
        nxt: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for suffix, pieces in level.items():
            pre = pieces
            for step in steps:
                pre = [p for lo, hi in _merge_intervals(pre)
                       for p in _lattice_preimages(step, lo, hi)]
            clipped: dict[int, list[tuple[int, int]]] = {}
            for lo, hi in pre:
                for i in range(max(bisect_right(starts, lo) - 1, 0), bisect_right(starts, hi)):
                    a, b = clip[i]
                    if a < lo:
                        a = lo
                    if b > hi:
                        b = hi
                    if a <= b:
                        clipped.setdefault(i + 1, []).append((a, b))
            for sym in sorted(clipped):
                nxt[(sym,) + suffix] = _merge_intervals(clipped[sym])
        levels.append((scale, nxt))
    return levels


def horseshoe_extract(g: PLMap, chain: IntervalChain, k: int, depth: int,
                      m_bound: int = 8) -> HorseshoeCertificate:
    """Itinerary certificate over the k symbol slots of the k-fold refinement.

    kfold(k) visits link 4 at positions 4, 6, ..., 2k+2 and nowhere else, and
    the refinement splits a link's free part equally among its visits, so the
    slots are the k equal parts of the gap between links 3 and 5, each shrunk
    by a tenth of its width at both ends: sorted, and w/5 apart.

    The exact pullback decides it: a word's branch is nonempty exactly when
    some point of its first slot has that g^m-itinerary, and the hull of
    those points is reported for each surviving full-depth word.  A failed
    certificate names the least missing word at the first level that misses
    one.  A passing certificate lower-bounds the entropy by log(k)/m."""
    if k % 2 == 0 or k < 3:
        raise ValueError(f"horseshoe extraction requires odd k >= 3, got {k}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    stretch = stretch_check(g, chain, m_bound)
    if stretch is None:
        raise StretchPreconditionError(
            f"map does not stretch the chain for any exponent <= {m_bound}")
    lo, hi = chain.links[2][1], chain.links[4][0]
    w = (hi - lo) / k
    if w <= FR(1, 10 ** 6):
        raise ChainError("refinement margins collapse inside parent 4")
    slots = tuple((lo + s * w + w / 10, lo + (s + 1) * w - w / 10) for s in range(k))
    m, orientation = stretch

    levels = _pullback(g, m, slots, depth)
    scale, pulled = levels[-1]
    nonempty = len(pulled)
    expected = k ** (depth + 1)
    passed = nonempty == expected
    # At the first level that misses a word every shorter word is present,
    # so its least missing word is the first empty branch in word order.
    failing = None
    for n, (_, level) in enumerate(levels, start=1):
        if len(level) < k ** n:
            failing = next(w for w in itertools.product(range(1, k + 1), repeat=n)
                           if w not in level)
            break
    intervals = {word: (pieces[0][0], pieces[-1][1]) for word, pieces in sorted(pulled.items())}

    return HorseshoeCertificate(
        k=k, depth=depth, exponent=m, orientation=orientation,
        passed=passed, nonempty=nonempty, expected=expected,
        failing_word=failing, entropy_bound=math.log(k) / m,
        slots=slots, scale=scale, intervals=intervals)


# ---------------------------------------------------------------------------
# two-dimensional chain covers and pattern refinement
# ---------------------------------------------------------------------------

class Rect(NamedTuple):
    t: tuple[FR, FR]
    a: tuple[FR, FR]

    def hull_with(self, t_pt: FR, a_pt: FR) -> "Rect":
        return Rect((min(self.t[0], t_pt), max(self.t[1], t_pt)),
                    (min(self.a[0], a_pt), max(self.a[1], a_pt)))

    def contains(self, other: "Rect") -> bool:
        return (self.t[0] <= other.t[0] and other.t[1] <= self.t[1]
                and self.a[0] <= other.a[0] and other.a[1] <= self.a[1])


def _intervals_meet(x: tuple[FR, FR], y: tuple[FR, FR]) -> bool:
    return x[0] <= y[1] and y[0] <= x[1]


def rects_meet(p: Rect, q: Rect, wrap: bool = True) -> bool:
    if not _intervals_meet(p.t, q.t):
        return False
    shifts = (-1, 0, 1) if wrap else (0,)
    return any(_intervals_meet(p.a, (q.a[0] + s, q.a[1] + s)) for s in shifts)


class ChainCover(NamedTuple):
    """Chain of rectangles in (radial, angular) coordinates.

    `essential` chains close around the annulus: the last and first links are
    also adjacent.  `taut` is computed, never assumed: folding refinements of
    rectangle chains are genuinely non-taut (that obstruction is the point of
    the folding construction)."""

    links: tuple[Rect, ...]
    essential: bool = False
    taut: bool = True

    @staticmethod
    def build(links: Sequence[Rect], essential: bool = False) -> "ChainCover":
        links = tuple(links)
        n = len(links)
        for i, link in enumerate(links):
            if link.a[1] - link.a[0] >= FR(1, 2):
                raise ChainError(f"link {i + 1} angular extent must stay below 1/2")
        for i in range(n - 1):
            if not rects_meet(links[i], links[i + 1]):
                raise ChainError(f"links {i + 1},{i + 2} do not meet")
        if essential and n > 2 and not rects_meet(links[-1], links[0]):
            raise ChainError("essential chain must close around the annulus")
        taut = True
        for i in range(n):
            for j in range(i + 2, n):
                if essential and i == 0 and j == n - 1:
                    continue
                if rects_meet(links[i], links[j]):
                    taut = False
        return ChainCover(links, essential, taut)


def essential_seven_chain(overlap: FR = FR(1, 36)) -> ChainCover:
    """Uniform essential 7-chain of full-height rectangles around the annulus."""
    links = []
    for i in range(7):
        lo = FR(i, 7) - overlap
        hi = FR(i + 1, 7) + overlap
        links.append(Rect((FR(1, 10), FR(9, 10)), (lo, hi)))
    return ChainCover.build(links, essential=True)


def refine_chain(parent: ChainCover, f: Pattern) -> ChainCover:
    """Child chain following the pattern: link i strictly inside parent f(i),
    consecutive children meeting at a connector point inside the shared
    parent overlap.  Containment and adjacency are exact; tautness is
    computed honestly (folding patterns lose it on rectangles)."""
    n = len(parent.links)
    if f.n > n:
        raise ChainError("pattern range exceeds parent chain length")
    m = f.m
    s = FR(1, 1) / (m + FR(1, 2))

    def band(i: int) -> tuple[FR, FR]:
        return ((i - 1) * s, (i - 1) * s + s * FR(3, 2))

    def t_in_parent(p: Rect, frac_lo: FR, frac_hi: FR) -> tuple[FR, FR]:
        h = p.t[1] - p.t[0]
        return (p.t[0] + h * (FR(1, 20) + FR(9, 10) * frac_lo),
                p.t[0] + h * (FR(1, 20) + FR(9, 10) * frac_hi))

    children: list[Rect] = []
    for i in range(1, m + 1):
        p = parent.links[f(i) - 1]
        blo, bhi = band(i)
        tlo, thi = t_in_parent(p, blo, bhi)
        w = p.a[1] - p.a[0]
        alo, ahi = p.a[0] + w / 10, p.a[1] - w / 10
        if thi - tlo <= FR(1, 10 ** 6) or ahi - alo <= FR(1, 10 ** 6):
            raise ChainError("refinement margins collapse")
        children.append(Rect((tlo, thi), (alo, ahi)))

    def connector(i: int) -> tuple[FR, FR, FR]:
        """(t, a in parent-f(i) coords, angular shift to parent-f(i+1) coords)."""
        p = parent.links[f(i) - 1]
        q = parent.links[f(i + 1) - 1]
        b_lo = max(band(i)[0], band(i + 1)[0])
        b_hi = min(band(i)[1], band(i + 1)[1])
        b_mid = (b_lo + b_hi) / 2
        if f(i) == f(i + 1):
            tlo, thi = t_in_parent(p, b_mid, b_mid)
            return tlo, (p.a[0] + p.a[1]) / 2, FR(0)
        t_lo = max(p.t[0], q.t[0])
        t_hi = min(p.t[1], q.t[1])
        if t_lo > t_hi:
            raise ChainError(f"parents {f(i)},{f(i + 1)} share no radial range")
        if p.t == q.t:
            t_pt = t_in_parent(p, b_mid, b_mid)[0]
        else:
            t_pt = (t_lo + t_hi) / 2
        for shift in (FR(0), FR(1), FR(-1)):
            a_lo = max(p.a[0], q.a[0] + shift)
            a_hi = min(p.a[1], q.a[1] + shift)
            if a_lo <= a_hi:
                return t_pt, (a_lo + a_hi) / 2, shift
        raise ChainError(f"parents {f(i)},{f(i + 1)} share no angular range")

    for i in range(1, m):
        t_pt, a_pt, shift = connector(i)
        children[i - 1] = children[i - 1].hull_with(t_pt, a_pt)
        children[i] = children[i].hull_with(t_pt, a_pt - shift)

    for i in range(1, m + 1):
        if not parent.links[f(i) - 1].contains(children[i - 1]):
            raise ChainError(f"child {i} escaped parent {f(i)}")
    return ChainCover.build(children, essential=False)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

WIDTH, HEIGHT = 1000, 500
PALETTE = ("#0f3460", "#e94560", "#2ecc71", "#f39c12", "#533483")
FILL_OPACITY = 0.25
STROKE_WIDTH = 1.5


def render_chains(levels: Sequence[ChainCover]) -> str:
    """Deterministic SVG: one layer per level, one polygon per link."""
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">']
    for li, level in enumerate(levels):
        color = PALETTE[li % len(PALETTE)]
        out.append(f'  <g id="level{li}">')
        for ki, link in enumerate(level.links):
            x0 = float(link.a[0]) * WIDTH
            x1 = float(link.a[1]) * WIDTH
            y0 = (1.0 - float(link.t[1])) * HEIGHT
            y1 = (1.0 - float(link.t[0])) * HEIGHT
            pts = f"{x0:.3f},{y0:.3f} {x1:.3f},{y0:.3f} {x1:.3f},{y1:.3f} {x0:.3f},{y1:.3f}"
            out.append(
                f'    <polygon id="level{li}-link{ki}" points="{pts}" '
                f'fill="{color}" fill-opacity="{FILL_OPACITY}" '
                f'stroke="{color}" stroke-width="{STROKE_WIDTH}" />')
        out.append('  </g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
