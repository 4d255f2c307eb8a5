"""Two-dimensional chain covers of the annulus, exact in (radial, angular)
coordinates, their refinement along a chain pattern and their SVG.  Only
`cmd_render` imports this module."""

from __future__ import annotations

from fractions import Fraction as FR
from typing import NamedTuple, Sequence

from .chains import ChainError, Pattern


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
